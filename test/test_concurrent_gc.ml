(* The concurrent global collector (bounded-pause alternative to the
   stop-the-world collection of §3.4): cycle lifecycle, the extended
   write barrier for stores into claimed chunks mid-evacuation,
   remembered-set drain ordering, termination under mutation, and
   copied-byte parity with the STW collector. *)

open Heap
open Manticore_gc

let conc_params =
  { Gc_util.small_params with Params.global_gc_mode = Params.Concurrent }

(* Is [v] a pointer into a still-condemned (from-space) chunk? *)
let in_from_space ctx v =
  Value.is_ptr v
  &&
  let p = Value.to_ptr v in
  List.exists
    (fun c -> p >= c.Sim_mem.Chunk.base && p < c.Sim_mem.Chunk.base + c.Sim_mem.Chunk.bytes)
    (Ctx.conc_from_chunks ctx)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_conc_preserves_reachable () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 1; 2; 3 ] in
  let g = Promote.value ctx m v in
  let cell = Roots.add m.Ctx.roots g in
  let before = Gc_util.snapshot ctx g in
  Concurrent_gc.run ctx;
  let g' = Roots.get cell in
  Alcotest.(check bool) "moved to to-space" false (Value.equal g g');
  Alcotest.check Gc_util.snap "structure preserved" before (Gc_util.snapshot ctx g');
  Alcotest.(check bool) "cycle finished" false (Concurrent_gc.active ctx);
  Gc_util.assert_invariants ctx

let test_conc_reclaims_garbage_chunks () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  for i = 0 to 50 do
    ignore (Promote.value ctx m (Gc_util.build_list ctx m [ i; i; i ]))
  done;
  let in_use_before = Global_heap.in_use_bytes ctx.Ctx.global in
  Concurrent_gc.run ctx;
  let in_use_after = Global_heap.in_use_bytes ctx.Ctx.global in
  Alcotest.(check bool) "chunks reclaimed" true (in_use_after < in_use_before);
  Alcotest.(check bool) "free pool refilled" true
    (Sim_mem.Chunk.free_count (Global_heap.pool ctx.Ctx.global) > 0);
  Gc_util.assert_invariants ctx

let test_conc_bounded_slices () =
  (* With a tiny slice budget, evacuating a few KiB of live data must
     take many slices — the cycle interleaves instead of running as one
     monolithic pause. *)
  let params = { Gc_util.small_params with Params.conc_slice_bytes = 512 } in
  let ctx = Gc_util.mk_ctx ~params () in
  let m = Ctx.mutator ctx 0 in
  let g = Promote.value ctx m (Gc_util.build_list ctx m (List.init 200 Fun.id)) in
  let cell = Roots.add m.Ctx.roots g in
  let before = Gc_util.snapshot ctx g in
  Concurrent_gc.start ctx;
  Alcotest.(check bool) "cycle active after start" true (Concurrent_gc.active ctx);
  let steps = ref 0 in
  while Concurrent_gc.step ctx do incr steps done;
  Alcotest.(check bool)
    (Printf.sprintf "many bounded slices (%d)" !steps)
    true (!steps > 4);
  Alcotest.check Gc_util.snap "structure preserved" before
    (Gc_util.snapshot ctx (Roots.get cell));
  Gc_util.assert_invariants ctx

let test_conc_store_into_claimed_chunk_mid_cycle () =
  (* The write-barrier extension's worst case: a from-space pointer
     stored into an already-evacuated (and scanned) global object while
     the cycle is in flight.  The store must land in the mutation log
     and the drain must re-forward it before from-space is released. *)
  let ctx = Gc_util.mk_ctx () in
  let m0 = Ctx.mutator ctx 0 and m1 = Ctx.mutator ctx 1 in
  let r = Promote.value ctx m0 (Mut.alloc_ref ctx m0 (Value.of_int 0)) in
  let rc = Roots.add m0.Ctx.roots r in
  let g2 = Promote.value ctx m1 (Gc_util.build_list ctx m1 [ 7; 8; 9 ]) in
  let gc2 = Roots.add m1.Ctx.roots g2 in
  (* Pin vproc 1's clock far ahead: slices run on the min-clock vproc,
     so vproc 1 stays unhandshaken and [g2] stays a from-space pointer. *)
  Ctx.charge_ns m1 1e12;
  Concurrent_gc.start ctx;
  (* Slice 1 handshakes vproc 0 (forwarding [r]); slice 2 scans it. *)
  ignore (Concurrent_gc.step ctx);
  ignore (Concurrent_gc.step ctx);
  let st =
    match ctx.Ctx.conc with
    | Some st -> st
    | None -> Alcotest.fail "cycle ratified too early"
  in
  Alcotest.(check bool) "vproc0 handshaken" true st.Ctx.cg_entered.(0);
  Alcotest.(check bool) "vproc1 not yet handshaken" false st.Ctx.cg_entered.(1);
  Alcotest.(check bool) "stored value still in from-space" true
    (in_from_space ctx (Roots.get gc2));
  let logged_before = Remember.cardinal st.Ctx.cg_log in
  Mut.set ctx m0 (Roots.get rc) (Roots.get gc2);
  Alcotest.(check int) "store logged by the extended barrier"
    (logged_before + 1)
    (Remember.cardinal st.Ctx.cg_log);
  Concurrent_gc.finish ctx;
  let got = Mut.get ctx m0 (Roots.get rc) in
  Alcotest.(check bool) "slot re-forwarded out of from-space" false
    (in_from_space ctx got);
  Alcotest.(check (list int)) "ref reads the evacuated list" [ 7; 8; 9 ]
    (Gc_util.read_list ctx m0 got);
  Gc_util.assert_invariants ctx

let test_conc_drain_ordering () =
  (* The mutation log drains in ascending slot-address order, whatever
     the insertion order — evacuation order (and therefore every
     downstream to-space address) stays deterministic. *)
  let ctx = Gc_util.mk_ctx () in
  let m0 = Ctx.mutator ctx 0 and m1 = Ctx.mutator ctx 1 in
  let mk_ref () =
    let r = Promote.value ctx m0 (Mut.alloc_ref ctx m0 (Value.of_int 0)) in
    Roots.add m0.Ctx.roots r
  in
  let refs = List.init 5 (fun _ -> mk_ref ()) in
  Ctx.charge_ns m1 1e12;
  Concurrent_gc.start ctx;
  ignore (Concurrent_gc.step ctx);
  ignore (Concurrent_gc.step ctx);
  let st =
    match ctx.Ctx.conc with
    | Some st -> st
    | None -> Alcotest.fail "cycle ratified too early"
  in
  (* Store in deliberately shuffled order. *)
  List.iteri
    (fun i rc -> Mut.set ctx m0 (Roots.get rc) (Value.of_int (100 + i)))
    (match refs with
    | [ a; b; c; d; e ] -> [ d; a; e; c; b ]
    | _ -> assert false);
  Alcotest.(check int) "five slots logged" 5 (Remember.cardinal st.Ctx.cg_log);
  let seen = ref [] in
  Remember.iter st.Ctx.cg_log (fun slot -> seen := slot :: !seen);
  let drained = List.rev !seen in
  Alcotest.(check (list int)) "drain order is ascending slot address"
    (List.sort compare drained) drained;
  Concurrent_gc.finish ctx;
  (* Stores above were d←100 a←101 e←102 c←103 b←104. *)
  List.iter2
    (fun expected rc ->
      Alcotest.(check int) "ref survives the drain" expected
        (Value.to_int (Mut.get ctx m0 (Roots.get rc))))
    [ 101; 104; 103; 100; 102 ]
    refs;
  Gc_util.assert_invariants ctx

let test_conc_terminates_under_mutation () =
  (* Promotions and logged stores between every slice postpone the
     ratify but cannot prevent it: once the mutator quiets down, the
     cycle drains and finishes — and counts as exactly one collection. *)
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let r = Promote.value ctx m (Mut.alloc_ref ctx m (Value.of_int 0)) in
  let rc = Roots.add m.Ctx.roots r in
  Concurrent_gc.start ctx;
  let steps = ref 0 in
  while Concurrent_gc.active ctx do
    incr steps;
    if !steps > 10_000 then Alcotest.fail "concurrent cycle failed to terminate";
    ignore (Concurrent_gc.step ctx);
    if Concurrent_gc.active ctx && !steps <= 50 then begin
      let v = Promote.value ctx m (Gc_util.build_list ctx m [ !steps ]) in
      Mut.set ctx m (Roots.get rc) v
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "mutation stretched the cycle (%d steps)" !steps)
    true (!steps > 50);
  Alcotest.(check int) "exactly one collection" 1
    ctx.Ctx.stats.Gc_stats.global_count;
  Alcotest.(check (list int)) "last store readable" [ 50 ]
    (Gc_util.read_list ctx m (Mut.get ctx m (Roots.get rc)));
  Gc_util.assert_invariants ctx

let test_conc_copied_bytes_match_stw () =
  (* Incremental-mark exact count: on identical object graphs, both
     collectors evacuate exactly the same number of live bytes and
     preserve the same structure (checksum identity). *)
  let build ctx =
    let m = Ctx.mutator ctx 0 in
    let g = Promote.value ctx m (Gc_util.build_tree ctx m 4 1) in
    (m, Roots.add m.Ctx.roots g)
  in
  let ctx_stw = Gc_util.mk_ctx () in
  let _, cell_stw = build ctx_stw in
  let ctx_conc = Gc_util.mk_ctx ~params:conc_params () in
  let _, cell_conc = build ctx_conc in
  Global_gc.run ctx_stw;
  Concurrent_gc.run ctx_conc;
  Alcotest.(check int) "copied bytes identical across collectors"
    ctx_stw.Ctx.stats.Gc_stats.global_copied_bytes
    ctx_conc.Ctx.stats.Gc_stats.global_copied_bytes;
  Alcotest.check Gc_util.snap "same surviving structure"
    (Gc_util.snapshot ctx_stw (Roots.get cell_stw))
    (Gc_util.snapshot ctx_conc (Roots.get cell_conc));
  Gc_util.assert_invariants ctx_stw;
  Gc_util.assert_invariants ctx_conc

let test_conc_triggered_by_budget () =
  (* In Concurrent mode the safe-point hook starts a cycle when the
     chunk budget trips and advances it one slice per poll; the whole
     loop must finish with every element reachable. *)
  let ctx = Gc_util.mk_ctx ~params:conc_params () in
  let m = Ctx.mutator ctx 0 in
  let head = Roots.add m.Ctx.roots (Value.of_int 0) in
  for i = 1 to 3000 do
    Roots.set head (Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get head |])
  done;
  (* A cycle may still be in flight when the loop ends. *)
  Concurrent_gc.finish ctx;
  Alcotest.(check bool) "concurrent collections ran" true
    (ctx.Ctx.stats.Gc_stats.global_count > 0);
  Alcotest.(check int) "all reachable" 3000
    (List.length (Gc_util.read_list ctx m (Roots.get head)));
  Gc_util.assert_invariants ctx

let test_barrier_pause_kind () =
  (* Satellite: barrier dead-wait is its own pause kind.  Both
     collectors record one entry and one exit wait per vproc; a skewed
     clock makes at least one of them strictly positive. *)
  let count_barrier ctx =
    let snap = Metrics.snapshot ctx.Ctx.metrics in
    List.fold_left
      (fun acc (vs : Metrics.vproc_stats) ->
        acc + vs.Metrics.barrier.Metrics.pause_ns.Metrics.count)
      0 snap.Metrics.vprocs
  in
  let ctx = Gc_util.mk_ctx () in
  Gc_trace.enable ctx.Ctx.trace;
  Ctx.charge_ns (Ctx.mutator ctx 0) 5000.;
  Global_gc.run ctx;
  Alcotest.(check int) "STW: two barrier records per vproc"
    (2 * Array.length ctx.Ctx.muts)
    (count_barrier ctx);
  let waits =
    List.filter
      (fun e -> e.Gc_trace.kind = Gc_trace.Barrier)
      (Gc_trace.events ctx.Ctx.trace)
  in
  Alcotest.(check bool) "a nonzero wait was recorded" true
    (List.exists
       (fun e -> e.Gc_trace.t_end_ns -. e.Gc_trace.t_start_ns > 0.)
       waits);
  (* Disable the dirty-only ratify so every vproc is stopped and the
     2-records-per-vproc count is exact. *)
  let all_stop =
    { conc_params with Params.conc_ratify_dirty_only = false }
  in
  let ctx2 = Gc_util.mk_ctx ~params:all_stop () in
  Ctx.charge_ns (Ctx.mutator ctx2 0) 5000.;
  Concurrent_gc.run ctx2;
  Alcotest.(check int) "concurrent ratify: two barrier records per vproc"
    (2 * Array.length ctx2.Ctx.muts)
    (count_barrier ctx2)

let test_ratify_skips_quiescent () =
  (* Dirty-only ratify: with no mutator activity after the handshakes,
     only the lead vproc is stopped by the ratify barrier — the other
     vproc's generation/store counters are unchanged, so it is skipped
     and records no barrier wait at all. *)
  let ctx = Gc_util.mk_ctx ~params:conc_params () in
  let m0 = Ctx.mutator ctx 0 in
  let g = Promote.value ctx m0 (Gc_util.build_list ctx m0 [ 1; 2; 3 ]) in
  let _cell = Roots.add m0.Ctx.roots g in
  Concurrent_gc.run ctx;
  let snap = Metrics.snapshot ctx.Ctx.metrics in
  let vs i = List.find (fun v -> v.Metrics.vproc = i) snap.Metrics.vprocs in
  let total f = List.fold_left (fun acc i -> acc + f (vs i)) 0 [ 0; 1 ] in
  Alcotest.(check int) "exactly one vproc stopped" 1
    (total (fun v -> v.Metrics.ratified));
  Alcotest.(check int) "exactly one vproc skipped" 1
    (total (fun v -> v.Metrics.ratify_skipped));
  List.iter
    (fun i ->
      let v = vs i in
      if v.Metrics.ratify_skipped = 1 then
        Alcotest.(check int) "skipped vproc saw no barrier" 0
          v.Metrics.barrier.Metrics.pause_ns.Metrics.count
      else
        Alcotest.(check int) "stopped vproc saw entry+exit barriers" 2
          v.Metrics.barrier.Metrics.pause_ns.Metrics.count)
    [ 0; 1 ];
  Gc_util.assert_invariants ctx

let test_ratify_stops_late_store () =
  (* The flip side: a vproc that re-acquires a from-space reference
     after its handshake (reads it out of an unscanned to-space slot)
     and stashes it in a root must never be skipped while that
     reference is live.  With re-clean rounds left the cycle handles it
     barrier-free (re-handshake + skip); with the budget exhausted the
     ratify barrier stops it.  Both paths must keep the stash valid. *)
  let setup () =
    let ctx = Gc_util.mk_ctx ~params:conc_params () in
    let m0 = Ctx.mutator ctx 0 and m1 = Ctx.mutator ctx 1 in
    let g0 = Promote.value ctx m0 (Gc_util.build_list ctx m0 [ 7; 8 ]) in
    let r0 =
      Roots.protect m0.Ctx.roots g0 (fun c ->
          Promote.value ctx m0 (Mut.alloc_ref ctx m0 (Roots.get c)))
    in
    let rc0 = Roots.add m0.Ctx.roots r0 in
    Concurrent_gc.start ctx;
    let st =
      match ctx.Ctx.conc with
      | Some st -> st
      | None -> Alcotest.fail "cycle ratified too early"
    in
    let guard = ref 0 in
    while not (st.Ctx.cg_entered.(0) && st.Ctx.cg_entered.(1)) do
      incr guard;
      if !guard > 10_000 then Alcotest.fail "handshakes never completed";
      ignore (Concurrent_gc.step ctx)
    done;
    (* The handshakes evacuated the ref but scanned no chunk yet, so its
       slot still holds the from-space list pointer.  Vproc 1 reads it
       (tainting itself) and stashes it in a root. *)
    let got = Mut.get ctx m1 (Roots.get rc0) in
    Alcotest.(check bool) "re-acquired value is in from-space" true
      (in_from_space ctx got);
    let stash = Roots.add m1.Ctx.roots got in
    (* Push vproc 1's clock ahead so it is not the ratify lead — being
       stopped must come from its dirtiness alone. *)
    Ctx.charge_ns m1 1e9;
    (ctx, m1, st, stash)
  in
  let check_stash label ctx m1 stash =
    Alcotest.(check bool) (label ^ ": stash re-forwarded out of from-space")
      false
      (in_from_space ctx (Roots.get stash));
    Alcotest.(check (list int)) (label ^ ": stash reads the evacuated list")
      [ 7; 8 ]
      (Gc_util.read_list ctx m1 (Roots.get stash));
    Gc_util.assert_invariants ctx
  in
  (* Re-clean budget exhausted: the barrier must stop the dirty vproc. *)
  let ctx, m1, st, stash = setup () in
  st.Ctx.cg_reclean.(1) <- 1000;
  Concurrent_gc.finish ctx;
  let snap = Metrics.snapshot ctx.Ctx.metrics in
  let v1 = List.find (fun v -> v.Metrics.vproc = 1) snap.Metrics.vprocs in
  Alcotest.(check int) "dirty vproc stopped" 1 v1.Metrics.ratified;
  Alcotest.(check int) "dirty vproc not skipped" 0 v1.Metrics.ratify_skipped;
  Alcotest.(check int) "dirty vproc saw entry+exit barriers" 2
    v1.Metrics.barrier.Metrics.pause_ns.Metrics.count;
  check_stash "stopped" ctx m1 stash;
  (* Re-clean budget available: a barrier-free re-handshake clears the
     taint, the barrier skips the vproc, and the stash is still safe. *)
  let ctx, m1, st, stash = setup () in
  Concurrent_gc.finish ctx;
  Alcotest.(check bool) "dirty vproc was re-cleaned" true
    (st.Ctx.cg_reclean.(1) >= 1);
  let snap = Metrics.snapshot ctx.Ctx.metrics in
  let v1 = List.find (fun v -> v.Metrics.vproc = 1) snap.Metrics.vprocs in
  Alcotest.(check int) "re-cleaned vproc skipped" 1 v1.Metrics.ratify_skipped;
  Alcotest.(check int) "re-cleaned vproc saw no barrier" 0
    v1.Metrics.barrier.Metrics.pause_ns.Metrics.count;
  check_stash "re-cleaned" ctx m1 stash;
  Gc_util.assert_invariants ctx

let test_generation_flip_under_appends () =
  (* Two-generation mutation log: the flip materializes the active
     generation in address order; stores that land while that generation
     drains go to the fresh one and leave the draining array untouched. *)
  let ctx = Gc_util.mk_ctx () in
  let m0 = Ctx.mutator ctx 0 and m1 = Ctx.mutator ctx 1 in
  let mk_ref () =
    let r = Promote.value ctx m0 (Mut.alloc_ref ctx m0 (Value.of_int 0)) in
    Roots.add m0.Ctx.roots r
  in
  let refs = List.init 8 (fun _ -> mk_ref ()) in
  let first5 = List.filteri (fun i _ -> i < 5) refs in
  let last3 = List.filteri (fun i _ -> i >= 5) refs in
  Ctx.charge_ns m1 1e12;
  Concurrent_gc.start ctx;
  ignore (Concurrent_gc.step ctx);
  ignore (Concurrent_gc.step ctx);
  let st =
    match ctx.Ctx.conc with
    | Some st -> st
    | None -> Alcotest.fail "cycle ratified too early"
  in
  (* Generation 1: five stores in shuffled order. *)
  List.iteri
    (fun i rc -> Mut.set ctx m0 (Roots.get rc) (Value.of_int (100 + i)))
    (match first5 with
    | [ a; b; c; d; e ] -> [ d; a; e; c; b ]
    | _ -> assert false);
  let expected = ref [] in
  Remember.iter st.Ctx.cg_log (fun slot -> expected := slot :: !expected);
  let expected = List.rev !expected in
  (* Step until the collector flips generation 1 out for draining. *)
  let guard = ref 0 in
  while Array.length st.Ctx.cg_drain = 0 do
    incr guard;
    if !guard > 10_000 then Alcotest.fail "flip never happened";
    ignore (Concurrent_gc.step ctx)
  done;
  let drained = Array.to_list st.Ctx.cg_drain in
  Alcotest.(check (list int)) "flip is address-ordered"
    (List.sort compare expected) drained;
  Alcotest.(check int) "active generation empty after flip" 0
    (Remember.cardinal st.Ctx.cg_log);
  (* Generation 2: appends while generation 1 drains. *)
  List.iteri
    (fun i rc -> Mut.set ctx m0 (Roots.get rc) (Value.of_int (200 + i)))
    last3;
  Alcotest.(check int) "appends land in the fresh generation" 3
    (Remember.cardinal st.Ctx.cg_log);
  Alcotest.(check (list int)) "draining generation untouched by appends"
    drained
    (Array.to_list st.Ctx.cg_drain);
  Concurrent_gc.finish ctx;
  List.iter2
    (fun expected rc ->
      Alcotest.(check int) "store survives both generations" expected
        (Value.to_int (Mut.get ctx m0 (Roots.get rc))))
    [ 101; 104; 103; 100; 102; 200; 201; 202 ]
    refs;
  Gc_util.assert_invariants ctx

let test_parallel_slices_distinct_chunks () =
  (* Two evacuation slices in one scheduler turn, on distinct vprocs and
     distinct chunks (per-chunk claims keep them apart), with exact
     copied-byte accounting against the STW collector. *)
  let params =
    {
      conc_params with
      Params.conc_parallel_slices = 2;
      conc_slice_bytes = 256;
    }
  in
  let build ctx =
    let cells =
      List.map
        (fun v ->
          let m = Ctx.mutator ctx v in
          let g =
            Promote.value ctx m
              (Gc_util.build_list ctx m (List.init 100 (fun i -> (100 * v) + i)))
          in
          Roots.add m.Ctx.roots g)
        [ 0; 1 ]
    in
    cells
  in
  (* Three vprocs: 0 and 1 carry the data and run the slices; 2 is
     pinned far ahead to act as the virtual-time frontier (assists only
     dispatch to vprocs strictly behind the frontier, so in a 2-vproc
     setup the non-lead vproc could never assist). *)
  let ctx = Gc_util.mk_ctx ~params ~n_vprocs:3 () in
  let cells = build ctx in
  Ctx.charge_ns (Ctx.mutator ctx 2) 1e12;
  Concurrent_gc.start ctx;
  let st =
    match ctx.Ctx.conc with
    | Some st -> st
    | None -> Alcotest.fail "cycle ratified too early"
  in
  let guard = ref 0 in
  while not (st.Ctx.cg_entered.(0) && st.Ctx.cg_entered.(1)) do
    incr guard;
    if !guard > 10_000 then Alcotest.fail "handshakes never completed";
    ignore (Concurrent_gc.step ctx)
  done;
  (* One turn: the lead slice plus one assist on the other (idle) vproc. *)
  let before = Array.copy st.Ctx.cg_evac.Ctx.ev_copied_by in
  ignore (Concurrent_gc.step_turn ctx ~idle:(fun _ -> true));
  Alcotest.(check bool) "vproc 0 copied bytes this turn" true
    (st.Ctx.cg_evac.Ctx.ev_copied_by.(0) > before.(0));
  Alcotest.(check bool) "vproc 1 copied bytes this turn" true
    (st.Ctx.cg_evac.Ctx.ev_copied_by.(1) > before.(1));
  let claims =
    Hashtbl.fold (fun chunk owner acc -> (chunk, owner) :: acc) st.Ctx.cg_evac.Ctx.ev_claims
      []
  in
  let chunks_of v =
    List.filter_map (fun (c, o) -> if o = v then Some c else None) claims
  in
  Alcotest.(check bool) "both vprocs hold claims" true
    (chunks_of 0 <> [] && chunks_of 1 <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "claimed chunks are distinct" false
        (List.mem c (chunks_of 1)))
    (chunks_of 0);
  let multi =
    List.exists
      (fun (_, _, ev) ->
        match ev with
        | Obs.Event.Conc_slices { count; _ } -> count = 2
        | _ -> false)
      (List.concat_map
         (fun v -> Obs.Recorder.events ctx.Ctx.obs ~vproc:v)
         [ 0; 1 ])
  in
  Alcotest.(check bool) "Conc_slices{count=2} recorded" true multi;
  Concurrent_gc.finish ctx;
  (* Exact accounting: an STW run over the identical graph copies the
     same number of bytes, and the structures survive. *)
  let ctx_stw = Gc_util.mk_ctx ~n_vprocs:3 () in
  let cells_stw = build ctx_stw in
  Global_gc.run ctx_stw;
  Alcotest.(check int) "copied bytes identical to STW"
    ctx_stw.Ctx.stats.Gc_stats.global_copied_bytes
    ctx.Ctx.stats.Gc_stats.global_copied_bytes;
  List.iter2
    (fun c c_stw ->
      Alcotest.check Gc_util.snap "structure preserved"
        (Gc_util.snapshot ctx_stw (Roots.get c_stw))
        (Gc_util.snapshot ctx (Roots.get c)))
    cells cells_stw;
  Gc_util.assert_invariants ctx;
  Gc_util.assert_invariants ctx_stw

let test_stw_refuses_mid_cycle () =
  (* A stop-the-world run over a half-evacuated heap would double-copy
     live data; it must refuse while a concurrent cycle is in flight. *)
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let g = Promote.value ctx m (Gc_util.build_list ctx m [ 1 ]) in
  let _cell = Roots.add m.Ctx.roots g in
  Concurrent_gc.start ctx;
  Alcotest.check_raises "STW refused mid-cycle"
    (Failure "Global_gc.run: concurrent collection already in flight")
    (fun () -> Global_gc.run ctx);
  Concurrent_gc.finish ctx;
  Gc_util.assert_invariants ctx

let test_audit_raises_on_untainted_stash () =
  (* The pre-release audit is fatal: a vproc that finished its handshake
     and stays clean is skipped by the ratify, so a condemned address
     handed to one of its roots without [Ctx.conc_taint] would survive
     the release.  With CONC_GC_AUDIT=1 the collection must raise, naming
     the root, instead of releasing from-space under it. *)
  let ctx = Gc_util.mk_ctx ~params:conc_params () in
  let m0 = Ctx.mutator ctx 0 and m1 = Ctx.mutator ctx 1 in
  let cell =
    Roots.add m0.Ctx.roots
      (Promote.value ctx m0 (Gc_util.build_list ctx m0 [ 1; 2 ]))
  in
  Concurrent_gc.start ctx;
  let stale = Roots.get cell in
  let st =
    match ctx.Ctx.conc with
    | Some st -> st
    | None -> Alcotest.fail "cycle ratified too early"
  in
  let guard = ref 0 in
  while not (st.Ctx.cg_entered.(0) && st.Ctx.cg_entered.(1)) do
    incr guard;
    if !guard > 10_000 then Alcotest.fail "handshakes never completed";
    ignore (Concurrent_gc.step ctx)
  done;
  Alcotest.(check bool) "stashed value is in from-space" true
    (in_from_space ctx stale);
  ignore (Roots.add m1.Ctx.roots stale);
  (* Keep vproc 1 off the ratify lead, so only the audit can see it. *)
  Ctx.charge_ns m1 1e9;
  let saved = Option.value (Sys.getenv_opt "CONC_GC_AUDIT") ~default:"" in
  Unix.putenv "CONC_GC_AUDIT" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CONC_GC_AUDIT" saved)
    (fun () ->
      match Concurrent_gc.finish ctx with
      | () -> Alcotest.fail "audit let a condemned root through the release"
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "audit names vproc 1's root (%s)" msg)
            true
            (contains msg "v1 root"))

let prop_conc_gc_random_graphs =
  QCheck.Test.make ~name:"concurrent GC preserves random graphs" ~count:30
    QCheck.(pair (int_range 0 6) (int_range 1 1000))
    (fun (depth, seed) ->
      let ctx = Gc_util.mk_ctx ~params:conc_params () in
      let m = Ctx.mutator ctx 0 in
      let v = Gc_util.build_tree ctx m depth seed in
      let g = Promote.value ctx m v in
      let cell = Roots.add m.Ctx.roots g in
      let before = Gc_util.snapshot ctx g in
      Concurrent_gc.run ctx;
      Concurrent_gc.run ctx;
      Gc_util.snapshot ctx (Roots.get cell) = before
      && Result.is_ok (Ctx.check_invariants ctx))

let suite =
  ( "concurrent_gc",
    [
      Alcotest.test_case "preserves reachable data" `Quick
        test_conc_preserves_reachable;
      Alcotest.test_case "reclaims garbage chunks" `Quick
        test_conc_reclaims_garbage_chunks;
      Alcotest.test_case "evacuates in bounded slices" `Quick
        test_conc_bounded_slices;
      Alcotest.test_case "logs stores into claimed chunks mid-cycle" `Quick
        test_conc_store_into_claimed_chunk_mid_cycle;
      Alcotest.test_case "drains the mutation log in address order" `Quick
        test_conc_drain_ordering;
      Alcotest.test_case "terminates under mutation" `Quick
        test_conc_terminates_under_mutation;
      Alcotest.test_case "copied bytes match the STW collector" `Quick
        test_conc_copied_bytes_match_stw;
      Alcotest.test_case "triggered by chunk budget" `Quick
        test_conc_triggered_by_budget;
      Alcotest.test_case "barrier wait is its own pause kind" `Quick
        test_barrier_pause_kind;
      Alcotest.test_case "ratify skips quiescent vprocs" `Quick
        test_ratify_skips_quiescent;
      Alcotest.test_case "ratify stops a vproc after one late store" `Quick
        test_ratify_stops_late_store;
      Alcotest.test_case "log generation flip under concurrent appends" `Quick
        test_generation_flip_under_appends;
      Alcotest.test_case "parallel slices evacuate distinct chunks" `Quick
        test_parallel_slices_distinct_chunks;
      Alcotest.test_case "STW refuses while a cycle is in flight" `Quick
        test_stw_refuses_mid_cycle;
      Alcotest.test_case "audit raises on an untainted stash" `Quick
        test_audit_raises_on_untainted_stash;
      QCheck_alcotest.to_alcotest prop_conc_gc_random_graphs;
    ] )
