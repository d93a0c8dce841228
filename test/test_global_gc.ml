(* The parallel stop-the-world global collection (§3.4). *)

open Heap
open Manticore_gc

let test_global_preserves_reachable () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 1; 2; 3 ] in
  let g = Promote.value ctx m v in
  let cell = Roots.add m.Ctx.roots g in
  let before = Gc_util.snapshot ctx g in
  Global_gc.run ctx;
  let g' = Roots.get cell in
  Alcotest.(check bool) "moved to to-space" false (Value.equal g g');
  Alcotest.check Gc_util.snap "structure preserved" before (Gc_util.snapshot ctx g');
  Gc_util.assert_invariants ctx

let test_global_reclaims_garbage_chunks () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  (* Promote lots of garbage to fill chunks, keep nothing. *)
  for i = 0 to 50 do
    ignore (Promote.value ctx m (Gc_util.build_list ctx m [ i; i; i ]))
  done;
  let in_use_before = Global_heap.in_use_bytes ctx.Ctx.global in
  Global_gc.run ctx;
  let in_use_after = Global_heap.in_use_bytes ctx.Ctx.global in
  Alcotest.(check bool) "chunks reclaimed" true (in_use_after < in_use_before);
  Alcotest.(check bool) "free pool refilled" true
    (Sim_mem.Chunk.free_count (Global_heap.pool ctx.Ctx.global) > 0);
  Gc_util.assert_invariants ctx

let test_global_runs_entry_collections () =
  (* Entering a global collection performs each vproc's minor and major
     first, so local live data ends up global or young-at-bottom. *)
  let ctx = Gc_util.mk_ctx () in
  let m0 = Ctx.mutator ctx 0 and m1 = Ctx.mutator ctx 1 in
  let a = Gc_util.build_list ctx m0 [ 1 ] in
  let ca = Roots.add m0.Ctx.roots a in
  let b = Gc_util.build_list ctx m1 [ 2 ] in
  let cb = Roots.add m1.Ctx.roots b in
  Global_gc.run ctx;
  Alcotest.(check bool) "vproc0 minors ran" true (m0.Ctx.stats.Gc_stats.minor_count > 0);
  Alcotest.(check bool) "vproc1 minors ran" true (m1.Ctx.stats.Gc_stats.minor_count > 0);
  Alcotest.(check (list int)) "a alive" [ 1 ] (Gc_util.read_list ctx m0 (Roots.get ca));
  Alcotest.(check (list int)) "b alive" [ 2 ] (Gc_util.read_list ctx m1 (Roots.get cb));
  Gc_util.assert_invariants ctx

let test_global_synchronizes_clocks () =
  let ctx = Gc_util.mk_ctx () in
  let m0 = Ctx.mutator ctx 0 and m1 = Ctx.mutator ctx 1 in
  Ctx.charge_ns m0 5000.;
  Global_gc.run ctx;
  Alcotest.(check bool) "clocks equal after barrier" true
    (abs_float (m0.Ctx.now_ns -. m1.Ctx.now_ns) < 1e-9);
  Alcotest.(check bool) "time advanced past the laggard" true (m1.Ctx.now_ns >= 5000.)

let test_global_triggered_by_budget () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let head = Roots.add m.Ctx.roots (Value.of_int 0) in
  (* Keep promoting live data until the chunk budget trips the collector
     (the sync hook runs it at the allocation safe point). *)
  for i = 1 to 3000 do
    Roots.set head (Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get head |])
  done;
  Alcotest.(check bool) "global collections ran" true
    (ctx.Ctx.stats.Gc_stats.global_count > 0);
  Alcotest.(check int) "all reachable" 3000
    (List.length (Gc_util.read_list ctx m (Roots.get head)));
  Gc_util.assert_invariants ctx

let test_global_updates_global_roots () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let g = Promote.value ctx m (Gc_util.build_list ctx m [ 6; 7 ]) in
  let cell = Roots.add ctx.Ctx.global_roots g in
  Global_gc.run ctx;
  let g' = Roots.get cell in
  Alcotest.(check bool) "runtime root forwarded" false (Value.equal g g');
  Alcotest.(check (list int)) "readable" [ 6; 7 ] (Gc_util.read_list ctx m g');
  Gc_util.assert_invariants ctx

let test_global_proxy_handling () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  (* A proxy with a local referent: both survive; the proxy moves, the
     referent stays under the owner's control. *)
  let v = Gc_util.build_list ctx m [ 11 ] in
  let paddr, pcell = Gc_util.make_proxy ctx m v in
  Global_gc.run ctx;
  let paddr' = Value.to_ptr (Roots.get pcell) in
  Alcotest.(check bool) "proxy moved" true (paddr' <> paddr);
  Alcotest.(check bool) "still a proxy" true (Proxy.is_proxy ctx.Ctx.store paddr');
  let r = Proxy.referent ctx.Ctx.store paddr' in
  Alcotest.(check (list int)) "referent readable" [ 11 ] (Gc_util.read_list ctx m r);
  (* Promote the referent, collect again: the proxy's now-global referent
     must be forwarded with it. *)
  let gr = Promote.value ctx m (Proxy.referent ctx.Ctx.store paddr') in
  Ctx.write_word ctx m (Obj_repr.field_addr paddr' 0) (gr : Value.t :> int);
  Global_gc.run ctx;
  let paddr'' = Value.to_ptr (Roots.get pcell) in
  let r' = Proxy.referent ctx.Ctx.store paddr'' in
  Alcotest.(check bool) "global referent forwarded" true
    (Global_heap.contains ctx.Ctx.global (Value.to_ptr r'));
  Alcotest.(check (list int)) "still readable" [ 11 ] (Gc_util.read_list ctx m r');
  Gc_util.assert_invariants ctx

let test_global_node_affinity_of_chunks () =
  (* Under the local policy, each vproc's to-space chunks live on its own
     node. *)
  let ctx = Gc_util.mk_ctx ~n_vprocs:2 () in
  let m0 = Ctx.mutator ctx 0 and m1 = Ctx.mutator ctx 1 in
  let g0 = Promote.value ctx m0 (Gc_util.build_list ctx m0 [ 1; 2; 3; 4 ]) in
  let g1 = Promote.value ctx m1 (Gc_util.build_list ctx m1 [ 5; 6; 7; 8 ]) in
  let c0 = Roots.add m0.Ctx.roots g0 and c1 = Roots.add m1.Ctx.roots g1 in
  Global_gc.run ctx;
  let node_of v =
    Sim_mem.Memory.node_of_addr ctx.Ctx.store.Store.mem (Value.to_ptr v)
  in
  Alcotest.(check int) "vproc0 data on node0" m0.Ctx.node (node_of (Roots.get c0));
  Alcotest.(check int) "vproc1 data on node1" m1.Ctx.node (node_of (Roots.get c1));
  Gc_util.assert_invariants ctx

let test_global_copied_byte_accounting () =
  (* A known object graph: 3 cons cells of (header + 2 fields) = 72 bytes
     of live global data.  The collection must (a) attribute each vproc's
     *true* copied-byte share to its trace event and metrics — not the
     seed's average, which erased skew and dropped remainders — and
     (b) tally exactly 72 bytes once in the ctx record and once across
     the per-mutator records (aliasing either way would double it). *)
  let ctx = Gc_util.mk_ctx () in
  let m0 = Ctx.mutator ctx 0 in
  Gc_trace.enable ctx.Ctx.trace;
  let g = Promote.value ctx m0 (Gc_util.build_list ctx m0 [ 1; 2; 3 ]) in
  let _cell = Roots.add m0.Ctx.roots g in
  Gc_trace.clear ctx.Ctx.trace (* drop the promotion event *);
  Global_gc.run ctx;
  let expected = 3 * 3 * 8 in
  let per_mut_sum =
    Array.fold_left
      (fun acc (m : Ctx.mutator) ->
        acc + m.Ctx.stats.Gc_stats.global_copied_bytes)
      0 ctx.Ctx.muts
  in
  Alcotest.(check int) "per-mutator tallies sum to the graph size" expected
    per_mut_sum;
  Alcotest.(check int) "ctx tally is the same total, recorded once" expected
    ctx.Ctx.stats.Gc_stats.global_copied_bytes;
  let globals =
    List.filter
      (fun e -> e.Gc_trace.kind = Gc_trace.Global)
      (Gc_trace.events ctx.Ctx.trace)
  in
  Alcotest.(check int) "one global event per vproc"
    (Array.length ctx.Ctx.muts) (List.length globals);
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "vproc %d event carries its true share" e.Gc_trace.vproc)
        (Ctx.mutator ctx e.Gc_trace.vproc).Ctx.stats.Gc_stats.global_copied_bytes
        e.Gc_trace.bytes)
    globals;
  Alcotest.(check int) "event bytes sum to the total (no remainder lost)"
    expected
    (List.fold_left (fun a e -> a + e.Gc_trace.bytes) 0 globals);
  let snap = Metrics.snapshot ctx.Ctx.metrics in
  let metrics_sum =
    List.fold_left
      (fun acc (vs : Metrics.vproc_stats) ->
        acc +. vs.Metrics.global.Metrics.copied_bytes.Metrics.sum)
      0. snap.Metrics.vprocs
  in
  Alcotest.(check (float 0.)) "metrics record the same bytes"
    (float_of_int expected) metrics_sum

let prop_global_gc_random_graphs =
  QCheck.Test.make ~name:"global GC preserves random graphs" ~count:30
    QCheck.(pair (int_range 0 6) (int_range 1 1000))
    (fun (depth, seed) ->
      let ctx = Gc_util.mk_ctx () in
      let m = Ctx.mutator ctx 0 in
      let v = Gc_util.build_tree ctx m depth seed in
      let g = Promote.value ctx m v in
      let cell = Roots.add m.Ctx.roots g in
      let before = Gc_util.snapshot ctx g in
      Global_gc.run ctx;
      Global_gc.run ctx;
      Gc_util.snapshot ctx (Roots.get cell) = before
      && Result.is_ok (Ctx.check_invariants ctx))

let test_budget_regrowth_both_modes () =
  (* End-of-cycle regrowth, shared by both collectors: when the live
     bytes exceed two thirds of the budget, the budget becomes twice the
     live bytes; a roomy budget is left alone. *)
  List.iter
    (fun (mode, collect) ->
      let ctx = Gc_util.mk_ctx () in
      let m = Ctx.mutator ctx 0 in
      let list = Gc_util.build_list ctx m (List.init 200 Fun.id) in
      let _cell = Roots.add m.Ctx.roots (Promote.value ctx m list) in
      let roomy = 100 * Global_heap.in_use_bytes ctx.Ctx.global in
      Ctx.set_global_budget ctx roomy;
      collect ctx;
      Alcotest.(check int) (mode ^ ": roomy budget kept") roomy
        ctx.Ctx.global_budget_bytes;
      Ctx.set_global_budget ctx (Global_heap.chunk_bytes ctx.Ctx.global);
      collect ctx;
      let live = Global_heap.in_use_bytes ctx.Ctx.global in
      Alcotest.(check bool) (mode ^ ": live data spans chunks") true
        (live > Global_heap.chunk_bytes ctx.Ctx.global);
      Alcotest.(check int) (mode ^ ": budget regrown to twice the live bytes")
        (2 * live) ctx.Ctx.global_budget_bytes;
      Gc_util.assert_invariants ctx)
    [
      ("stw", fun ctx -> Global_gc.run ctx);
      ("concurrent", fun ctx -> Concurrent_gc.run ctx);
    ]

let suite =
  ( "global_gc",
    [
      Alcotest.test_case "preserves reachable data" `Quick test_global_preserves_reachable;
      Alcotest.test_case "reclaims garbage chunks" `Quick
        test_global_reclaims_garbage_chunks;
      Alcotest.test_case "runs entry minor+major per vproc" `Quick
        test_global_runs_entry_collections;
      Alcotest.test_case "synchronizes virtual clocks" `Quick
        test_global_synchronizes_clocks;
      Alcotest.test_case "triggered by chunk budget" `Quick test_global_triggered_by_budget;
      Alcotest.test_case "updates runtime global roots" `Quick
        test_global_updates_global_roots;
      Alcotest.test_case "proxies survive and follow" `Quick test_global_proxy_handling;
      Alcotest.test_case "to-space chunks keep node affinity" `Quick
        test_global_node_affinity_of_chunks;
      Alcotest.test_case "copied-byte accounting is exact per vproc" `Quick
        test_global_copied_byte_accounting;
      Alcotest.test_case "budget regrowth in both modes" `Quick
        test_budget_regrowth_both_modes;
      QCheck_alcotest.to_alcotest prop_global_gc_random_graphs;
    ] )
