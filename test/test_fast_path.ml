(* The access fast path must not move a single virtual nanosecond.  The
   cost model and the charged accessors are held to the pre-fast-path
   reference ([Ref_cost_model]) on random access streams, bit for bit,
   and the checks the slow path made (unmapped pages, bad words) must
   still fire when the fast path takes the access. *)

open Heap
open Manticore_gc

let machine = Numa.Machines.with_scaled_caches 128 Numa.Machines.amd48
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One op of a random stream: [kind] 0 = access, 1 = bulk, 2 = word read
   (the Ctx property only), 3 = a jump of the vproc's clock by
   [offset / 395] contention windows, 0 to 20 (the cost-model property
   only); [bytes = 0] ops sit on a line boundary. *)
type op = { kind : int; vproc : int; region : int; offset : int; bytes : int }

let byte_sizes = [| 0; 1; 8; 8; 8; 8; 16; 60; 64; 130 |]

let op_gen ~kinds =
  QCheck.Gen.(
    map
      (fun (kind, vproc, region, (offset, b)) ->
        let bytes = byte_sizes.(b) in
        let offset =
          if kind = 2 then offset land lnot 7
          else if bytes = 0 then offset land lnot 63
          else offset
        in
        { kind; vproc; region; offset; bytes = (if kind = 2 then 8 else bytes) })
      (quad (oneofl kinds) (int_bound 11) (int_bound 11)
         (pair (int_bound 7900) (int_bound (Array.length byte_sizes - 1)))))

let print_op o =
  Printf.sprintf "{kind=%d; v=%d; region=%d; off=%d; bytes=%d}" o.kind o.vproc
    o.region o.offset o.bytes

let stream ~kinds =
  QCheck.make
    ~print:QCheck.Print.(list print_op)
    QCheck.Gen.(list_size (int_range 1 300) (op_gen ~kinds))

let n_vprocs = 12

(* [Contention]'s default window. *)
let window_ns = 100_000.

(* Direct calls: the rewritten cache against the find-and-promote one,
   with vprocs sharing nodes so their L3 and bank traffic interleave, and
   the all-float meters against the integer-window ones.  Each stream runs
   at two capacities: at the scarcer one banks and links overflow, and the
   clock jumps make the meters drain carried overflow across idle
   windows. *)
let prop_cost_model =
  QCheck.Test.make ~name:"cost model matches the reference" ~count:150
    (stream ~kinds:[ 0; 1; 3 ]) (fun ops ->
      List.for_all
        (fun cap_scale ->
          let vproc_node v = v mod 3 in
          let cm = Numa.Cost_model.create ~cap_scale machine ~n_vprocs ~vproc_node in
          let rf = Ref_cost_model.create ~cap_scale machine ~n_vprocs ~vproc_node in
          let clk = Array.make n_vprocs 0. and ref_clk = Array.make n_vprocs 0. in
          List.for_all
            (fun o ->
              let v = o.vproc and addr = (o.region * 8192) + o.offset in
              let dst_node = o.region mod 8 in
              let call f g =
                let a = f ~vproc:v ~dst_node ~addr ~bytes:o.bytes ~now_ns:clk.(v) in
                let b =
                  g ~vproc:v ~dst_node ~addr ~bytes:o.bytes ~now_ns:ref_clk.(v)
                in
                clk.(v) <- clk.(v) +. a;
                ref_clk.(v) <- ref_clk.(v) +. b;
                same_float a b
              in
              (if o.kind = 3 then begin
                 let jump = float_of_int o.offset *. window_ns /. 395. in
                 clk.(v) <- clk.(v) +. jump;
                 ref_clk.(v) <- ref_clk.(v) +. jump;
                 true
               end
               else if o.kind = 0 then
                 call (Numa.Cost_model.access cm) (Ref_cost_model.access rf)
               else call (Numa.Cost_model.bulk cm) (Ref_cost_model.bulk rf))
              && same_float clk.(v) ref_clk.(v)
              && same_float
                   (Numa.Cost_model.l2_hit_rate cm ~vproc:v)
                   (Ref_cost_model.l2_hit_rate rf ~vproc:v)
              && same_float
                   (Numa.Cost_model.l3_hit_rate cm ~node:(vproc_node v))
                   (Ref_cost_model.l3_hit_rate rf ~node:(vproc_node v))
              && List.for_all
                   (fun node ->
                     same_float
                       (Numa.Cost_model.bank_total_bytes cm ~node)
                       (Ref_cost_model.bank_total_bytes rf ~node))
                   (List.init 8 Fun.id))
            ops)
        [ 16.; 4096. ])

(* Through the charged accessors, where the MRU-line filter runs: every
   clock must equal the reference clock after every op.  Addresses range
   over all twelve vprocs' (mapped) local heaps. *)
let prop_ctx =
  QCheck.Test.make ~name:"charged accesses match the reference" ~count:150
    (stream ~kinds:[ 0; 1; 2 ]) (fun ops ->
      let ctx =
        Ctx.create ~params:Gc_util.small_params ~cap_scale:16. ~machine ~n_vprocs
          ~policy:Sim_mem.Page_policy.Local ()
      in
      let vproc_node = Numa.Cost_model.vproc_node ctx.Ctx.cost in
      let rf = Ref_cost_model.create ~cap_scale:16. machine ~n_vprocs ~vproc_node in
      let mem = ctx.Ctx.store.Store.mem in
      List.for_all
        (fun o ->
          let m = Ctx.mutator ctx o.vproc in
          let addr =
            (Ctx.mutator ctx o.region).Ctx.lh.Local_heap.base + o.offset
          in
          let dst_node = Sim_mem.Memory.node_of_addr mem addr in
          let now_ns = m.Ctx.now_ns in
          let cost =
            if o.kind = 1 then begin
              Ctx.bulk_touch ctx m ~addr ~bytes:o.bytes;
              Ref_cost_model.bulk rf ~vproc:o.vproc ~dst_node ~addr ~bytes:o.bytes
                ~now_ns
            end
            else begin
              if o.kind = 0 then Ctx.touch ctx m ~addr ~bytes:o.bytes
              else ignore (Ctx.read_word ctx m addr);
              Ref_cost_model.access rf ~vproc:o.vproc ~dst_node ~addr
                ~bytes:o.bytes ~now_ns
            end
          in
          same_float m.Ctx.now_ns (now_ns +. cost)
          && same_float
               (Numa.Cost_model.l2_hit_rate ctx.Ctx.cost ~vproc:o.vproc)
               (Ref_cost_model.l2_hit_rate rf ~vproc:o.vproc))
        ops)

let filter_hits ctx v = ctx.Ctx.l2_filter.Numa.Cost_model.hits.(v)

(* A page unmapped under a line the filter would take must still raise:
   the filter tests the page table inline. *)
let test_unmapped_repeat_read () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let addr = m.Ctx.lh.Local_heap.base + 64 in
  ignore (Ctx.read_word ctx m addr);
  let h0 = filter_hits ctx 0 in
  ignore (Ctx.read_word ctx m addr);
  Alcotest.(check int) "the repeat read took the filter" (h0 + 1)
    (filter_hits ctx 0);
  let mem = ctx.Ctx.store.Store.mem in
  Sim_mem.Memory.unmap_pages mem
    ~first_page:(Sim_mem.Memory.page_of_addr mem addr)
    ~n_pages:1;
  Alcotest.check_raises "unmapped"
    (Invalid_argument "Memory.node_of_addr: unmapped page") (fun () ->
      ignore (Ctx.read_word ctx m addr))

(* Bad words in a field raise from [get_field] whether or not the read
   takes the filter (each field is read twice). *)
let test_bad_words_raise () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Alloc.alloc_raw ctx m ~words:4 in
  List.iteri
    (fun i w -> Alloc.init_raw_word ctx m v i w)
    [ 0L; 12L; 0x4000_0000_0000_0001L; 85L ];
  let addr = Value.to_ptr v in
  let twice name exn i =
    for _ = 1 to 2 do
      Alcotest.check_raises name exn (fun () -> ignore (Ctx.get_field ctx m addr i))
    done
  in
  twice "null" (Invalid_argument "Value.of_word: null") 0;
  twice "unaligned" (Invalid_argument "Value.of_word: unaligned pointer") 1;
  twice "overflow" (Invalid_argument "Memory.get: odd word overflows a tagged int") 2;
  Alcotest.(check int) "immediate" 42 (Value.to_int (Ctx.get_field ctx m addr 3));
  Alcotest.check_raises "unaligned word read"
    (Invalid_argument "Addr.word_index: unaligned") (fun () ->
      ignore (Ctx.read_word ctx m (addr + 12)))

(* Forwarding words chain: a field naming the head of a chain reads back
   as the chain's last object. *)
let test_forwarding_chain () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let vec x = Alloc.alloc_vector ctx m [| Value.of_int x |] in
  let a = vec 1 in
  let b = vec 2 in
  let c = vec 3 in
  let holder = Alloc.alloc_vector ctx m [| a |] in
  let mem = ctx.Ctx.store.Store.mem in
  Sim_mem.Memory.set mem (Value.to_ptr a) (Header.forward (Value.to_ptr b));
  Sim_mem.Memory.set mem (Value.to_ptr b) (Header.forward (Value.to_ptr c));
  Alcotest.(check bool) "resolve" true (Value.equal c (Ctx.resolve ctx m a));
  let f = Ctx.get_field ctx m (Value.to_ptr holder) 0 in
  Alcotest.(check bool) "field resolves" true (Value.equal c f);
  Alcotest.(check int) "payload" 3 (Value.to_int (Ctx.get_field ctx m (Value.to_ptr f) 0))

let suite =
  ( "fast-path",
    [
      QCheck_alcotest.to_alcotest prop_cost_model;
      QCheck_alcotest.to_alcotest prop_ctx;
      Alcotest.test_case "unmapped repeat read raises" `Quick
        test_unmapped_repeat_read;
      Alcotest.test_case "bad words raise" `Quick test_bad_words_raise;
      Alcotest.test_case "forwarding chain resolves" `Quick test_forwarding_chain;
    ] )
