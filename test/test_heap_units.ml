(* Object-level units: descriptors, object representation, proxies,
   stores, addresses, parameters, statistics, roots. *)

open Heap
open Manticore_gc
open Sim_mem

let mk_store () =
  Store.create ~n_nodes:2 ~capacity_bytes:(1 lsl 20) ~page_bytes:4096
    ~policy:Page_policy.Local

let with_region f =
  let s = mk_store () in
  let base = Page_alloc.alloc s.Store.pa ~policy:Page_policy.Local ~requester_node:0 ~bytes:8192 in
  f s base

(* --- Addr ---------------------------------------------------------- *)

let test_addr () =
  Alcotest.(check int) "word index" 3 (Addr.word_index 24);
  Alcotest.(check int) "of index" 24 (Addr.of_word_index 3);
  Alcotest.(check int) "words round up" 2 (Addr.words 9);
  Alcotest.(check int) "round bytes" 16 (Addr.round_up_words 9);
  Alcotest.(check bool) "aligned" true (Addr.is_word_aligned 16);
  Alcotest.(check bool) "unaligned" false (Addr.is_word_aligned 12);
  Alcotest.check_raises "unaligned index" (Invalid_argument "Addr.word_index: unaligned")
    (fun () -> ignore (Addr.word_index 12))

(* --- Descriptor ---------------------------------------------------- *)

let test_descriptor_register_find () =
  let t = Descriptor.create_table () in
  let d = Descriptor.register t ~name:"pair" ~size_words:2 ~pointer_slots:[ 0; 1 ] in
  Alcotest.(check int) "first id" Header.first_mixed_id d.Descriptor.id;
  Alcotest.(check bool) "find" true (Descriptor.find t d.Descriptor.id == d);
  Alcotest.(check bool) "by name" true
    (match Descriptor.find_by_name t "pair" with
    | Some d' -> d' == d
    | None -> false);
  Alcotest.(check int) "size" 1 (Descriptor.size t)

let test_descriptor_scan_specialization () =
  let t = Descriptor.create_table () in
  let check_slots slots =
    let name = "d" ^ String.concat "_" (List.map string_of_int slots) in
    let d =
      Descriptor.register t ~name ~size_words:8 ~pointer_slots:slots
    in
    let seen = ref [] in
    d.Descriptor.scan_slots (fun i -> seen := i :: !seen);
    Alcotest.(check (list int)) name slots (List.rev !seen)
  in
  List.iter check_slots [ []; [ 3 ]; [ 1; 5 ]; [ 0; 2; 4 ]; [ 0; 1; 2; 3; 7 ] ]

let test_descriptor_rejects () =
  let t = Descriptor.create_table () in
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Descriptor.register: slot out of range") (fun () ->
      ignore (Descriptor.register t ~name:"x" ~size_words:2 ~pointer_slots:[ 2 ]));
  Alcotest.check_raises "unordered"
    (Invalid_argument "Descriptor.register: slots must be strictly increasing")
    (fun () ->
      ignore (Descriptor.register t ~name:"y" ~size_words:3 ~pointer_slots:[ 1; 1 ]));
  ignore (Descriptor.register t ~name:"z" ~size_words:1 ~pointer_slots:[]);
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Descriptor.register: duplicate name z") (fun () ->
      ignore (Descriptor.register t ~name:"z" ~size_words:1 ~pointer_slots:[]))

(* --- Obj_repr ------------------------------------------------------ *)

let test_obj_repr_vector () =
  with_region (fun s base ->
      Obj_repr.init_vector s ~addr:base [| Value.of_int 5; Value.of_int 6 |];
      Alcotest.(check bool) "kind" true (Obj_repr.kind s base = Obj_repr.Vector);
      Alcotest.(check int) "size" 2 (Obj_repr.size_words s base);
      Alcotest.(check int) "bytes" 24 (Obj_repr.total_bytes s base);
      Alcotest.(check int) "field" 6 (Value.to_int (Obj_repr.get_field s base 1)))

let test_obj_repr_raw_floats () =
  with_region (fun s base ->
      Obj_repr.init_raw s ~addr:base ~words:3;
      Obj_repr.set_float s base 0 3.25;
      Obj_repr.set_float s base 2 (-1.5);
      Alcotest.(check (float 0.)) "f0" 3.25 (Obj_repr.get_float s base 0);
      Alcotest.(check (float 0.)) "f2" (-1.5) (Obj_repr.get_float s base 2);
      Alcotest.(check bool) "raw kind" true (Obj_repr.kind s base = Obj_repr.Raw);
      (* Raw objects expose no pointer slots. *)
      let n = ref 0 in
      Obj_repr.iter_pointer_slots s base (fun _ -> incr n);
      Alcotest.(check int) "no slots" 0 !n)

let test_obj_repr_mixed_slots () =
  with_region (fun s base ->
      let d =
        Descriptor.register s.Store.table ~name:"rec3" ~size_words:3
          ~pointer_slots:[ 1 ]
      in
      (* Slot 1 points at a second object. *)
      let other = base + 64 in
      Obj_repr.init_raw s ~addr:other ~words:1;
      Obj_repr.init_mixed s ~addr:base d
        [| Value.of_int 7; Value.of_ptr other; Value.of_int 9 |];
      let slots = ref [] in
      Obj_repr.iter_pointer_slots s base (fun a -> slots := a :: !slots);
      Alcotest.(check (list int)) "only the pointer slot"
        [ Obj_repr.field_addr base 1 ]
        !slots)

let test_obj_repr_copy () =
  with_region (fun s base ->
      Obj_repr.init_vector s ~addr:base [| Value.of_int 1; Value.of_int 2 |];
      let dst = base + 128 in
      let n = Obj_repr.copy_object s ~src:base ~dst in
      Alcotest.(check int) "bytes copied" 24 n;
      Alcotest.(check int) "copied field" 2 (Value.to_int (Obj_repr.get_field s dst 1)))

(* --- Proxy --------------------------------------------------------- *)

let test_proxy_layout () =
  with_region (fun s base ->
      Obj_repr.init_raw s ~addr:(base + 64) ~words:1;
      Proxy.init s ~addr:base ~owner:3 ~referent:(Value.of_ptr (base + 64));
      Alcotest.(check bool) "is proxy" true (Proxy.is_proxy s base);
      Alcotest.(check int) "owner" 3 (Proxy.owner s base);
      Alcotest.(check int) "referent" (base + 64) (Value.to_ptr (Proxy.referent s base));
      Proxy.set_state s base 2;
      Alcotest.(check int) "state" 2 (Proxy.state s base);
      Proxy.set_referent s base (Value.of_int 0);
      Alcotest.(check bool) "referent cleared" true
        (Value.is_int (Proxy.referent s base)))

(* --- Params -------------------------------------------------------- *)

let test_params_validate () =
  Alcotest.(check bool) "default valid" true
    (Result.is_ok (Params.validate Params.default));
  let bad p msg =
    match Params.validate p with
    | Ok () -> Alcotest.failf "expected rejection: %s" msg
    | Error _ -> ()
  in
  bad { Params.default with Params.page_bytes = 3000 } "page not pow2";
  bad { Params.default with Params.capacity_bytes = 4097 } "capacity not page multiple";
  bad { Params.default with Params.chunk_bytes = 1000 } "chunk not page multiple";
  bad
    { Params.default with Params.nursery_min_bytes = Params.default.Params.local_heap_bytes }
    "nursery threshold too large";
  bad { Params.default with Params.global_budget_per_vproc = 100 } "budget below chunk"

(* --- Gc_stats ------------------------------------------------------ *)

let test_gc_stats_roundtrip () =
  let a = Gc_stats.create () and b = Gc_stats.create () in
  a.Gc_stats.minor_count <- 2;
  a.Gc_stats.promoted_bytes <- 100;
  b.Gc_stats.minor_count <- 3;
  b.Gc_stats.gc_ns <- 5.;
  let t = Gc_stats.total [| a; b |] in
  Alcotest.(check int) "minors" 5 t.Gc_stats.minor_count;
  Alcotest.(check int) "promoted" 100 t.Gc_stats.promoted_bytes;
  Alcotest.(check (float 1e-9)) "ns" 5. t.Gc_stats.gc_ns

(* Collector time reaches [Gc_stats.gc_ns] when a vproc leaves collector
   context, before the collection's observer fires: at the observer,
   every vproc's [gc_ns] already equals what the caller reads after the
   collector returns.  A top-level minor or major adds the pauses of its
   spans: every nanosecond of them was charged in collector context. *)
let test_gc_ns_published_at_exit () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let gc_ns () =
    Array.map (fun (m : Ctx.mutator) -> m.Ctx.stats.Gc_stats.gc_ns) ctx.Ctx.muts
  in
  let seen = ref [] in
  Ctx.set_on_collection ctx (Some (fun _ _ -> seen := gc_ns () :: !seen));
  Gc_trace.enable ctx.Ctx.trace;
  let collect name run =
    Array.iter
      (fun (m : Ctx.mutator) ->
        ignore (Roots.add m.Ctx.roots (Gc_util.build_list ctx m [ 1; 2; 3 ])))
      ctx.Ctx.muts;
    seen := [];
    Gc_trace.clear ctx.Ctx.trace;
    let before = gc_ns () in
    run ();
    let after = gc_ns () in
    (match !seen with
    | [ at_observer ] ->
        Array.iteri
          (fun v ns ->
            Alcotest.(check (float 0.))
              (Printf.sprintf "%s: vproc %d at the observer" name v)
              after.(v) ns)
          at_observer
    | l -> Alcotest.failf "%s: the observer fired %d times" name (List.length l));
    after.(0) -. before.(0)
  in
  let paused name grew =
    let pauses =
      List.fold_left
        (fun acc (e : Gc_trace.event) ->
          if e.Gc_trace.vproc <> 0 then acc
          else acc +. (e.Gc_trace.t_end_ns -. e.Gc_trace.t_start_ns))
        0. (Gc_trace.events ctx.Ctx.trace)
    in
    Alcotest.(check bool) (name ^ ": paused") true (pauses > 0.);
    Alcotest.(check (float (1e-9 *. pauses)))
      (name ^ ": grew by the pauses") pauses grew
  in
  paused "minor" (collect "minor" (fun () -> Minor_gc.run ctx m));
  paused "major" (collect "major" (fun () -> Major_gc.run ctx m));
  ignore
    (collect "promotion" (fun () ->
         ignore (Promote.value ctx m (Gc_util.build_list ctx m [ 4; 5 ]))));
  ignore (collect "STW global" (fun () -> Global_gc.run ctx));
  ignore (collect "concurrent global" (fun () -> Concurrent_gc.run ctx))

(* --- Roots --------------------------------------------------------- *)

let test_roots_add_remove () =
  let t = Roots.create () in
  let a = Roots.add t (Value.of_int 1) in
  let b = Roots.add t (Value.of_int 2) in
  let c = Roots.add t (Value.of_int 3) in
  Alcotest.(check int) "count" 3 (Roots.count t);
  Roots.remove t b;
  Alcotest.(check int) "count after remove" 2 (Roots.count t);
  let seen = ref [] in
  Roots.iter t (fun cell -> seen := Value.to_int (Roots.get cell) :: !seen);
  Alcotest.(check (list int)) "swap-remove keeps others" [ 1; 3 ]
    (List.sort compare !seen);
  Roots.remove t a;
  Roots.remove t c;
  Alcotest.(check int) "empty" 0 (Roots.count t);
  Alcotest.check_raises "double remove" (Invalid_argument "Roots.remove: stale cell")
    (fun () -> Roots.remove t a)

let test_roots_protect_exception () =
  let t = Roots.create () in
  (try
     ignore
       (Roots.protect t (Value.of_int 1) (fun _ -> failwith "boom") : Value.t)
   with Failure _ -> ());
  Alcotest.(check int) "cell released on exception" 0 (Roots.count t)

let prop_roots_stress =
  QCheck.Test.make ~name:"roots add/remove stress" ~count:200
    QCheck.(list (int_bound 99))
    (fun ops ->
      let t = Roots.create () in
      let live = ref [] in
      List.iter
        (fun x ->
          if x < 60 || !live = [] then live := Roots.add t (Value.of_int x) :: !live
          else begin
            match !live with
            | c :: rest ->
                Roots.remove t c;
                live := rest
            | [] -> ()
          end)
        ops;
      Roots.count t = List.length !live)

let suite =
  ( "heap-units",
    [
      Alcotest.test_case "addr helpers" `Quick test_addr;
      Alcotest.test_case "descriptor register/find" `Quick test_descriptor_register_find;
      Alcotest.test_case "descriptor scan specialization" `Quick
        test_descriptor_scan_specialization;
      Alcotest.test_case "descriptor rejects bad layouts" `Quick test_descriptor_rejects;
      Alcotest.test_case "vectors" `Quick test_obj_repr_vector;
      Alcotest.test_case "raw float payloads" `Quick test_obj_repr_raw_floats;
      Alcotest.test_case "mixed pointer slots" `Quick test_obj_repr_mixed_slots;
      Alcotest.test_case "object copy" `Quick test_obj_repr_copy;
      Alcotest.test_case "proxy layout" `Quick test_proxy_layout;
      Alcotest.test_case "params validation" `Quick test_params_validate;
      Alcotest.test_case "gc stats" `Quick test_gc_stats_roundtrip;
      Alcotest.test_case "gc time published at collector exit" `Quick
        test_gc_ns_published_at_exit;
      Alcotest.test_case "roots add/remove" `Quick test_roots_add_remove;
      Alcotest.test_case "roots protect on exception" `Quick
        test_roots_protect_exception;
      QCheck_alcotest.to_alcotest prop_roots_stress;
    ] )
