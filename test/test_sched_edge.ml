(* Scheduler edge cases: deadlock detection, nested parallelism, many
   fibers, channel stress, future reuse. *)

open Heap
open Manticore_gc
open Runtime

let mk_rt ?(n_vprocs = 4) () = Test_sched.mk_rt ~n_vprocs ()

let test_deadlock_detected () =
  let rt = mk_rt () in
  Alcotest.check_raises "deadlock"
    (Failure "Sched.run: deadlock — fibers blocked with no runnable work")
    (fun () ->
      ignore
        (Sched.run rt ~main:(fun m ->
             (* Receive on a channel nobody ever sends on. *)
             let ch = Sched.new_channel rt m in
             Sched.recv rt m ch)))

let test_await_same_future_twice () =
  let rt = mk_rt () in
  let r =
    Sched.run rt ~main:(fun m ->
        let fut = Sched.spawn rt m ~env:[||] (fun _ _ -> Value.of_int 5) in
        let a = Value.to_int (Sched.await rt m fut) in
        let b = Value.to_int (Sched.await rt m fut) in
        Value.of_int (a + b))
  in
  Alcotest.(check int) "cached result" 10 (Value.to_int r)

let test_two_fibers_await_one_future () =
  let rt = mk_rt () in
  let r =
    Sched.run rt ~main:(fun m ->
        let producer =
          Sched.spawn rt m ~env:[||] (fun m' _ ->
              Ctx.charge_work (Sched.ctx rt) m' ~cycles:2_000_000.;
              Sched.yield rt m';
              Value.of_int 21)
        in
        (* A second consumer blocks on the same future. *)
        let consumer =
          Sched.spawn rt m ~env:[||] (fun m' _ -> Sched.await rt m' producer)
        in
        let a = Value.to_int (Sched.await rt m producer) in
        let b = Value.to_int (Sched.await rt m consumer) in
        Value.of_int (a + b))
  in
  Alcotest.(check int) "both waiters woken" 42 (Value.to_int r)

let test_deep_nesting () =
  let rt = mk_rt () in
  let rec nest m depth =
    if depth = 0 then Value.of_int 1
    else begin
      let fut =
        Sched.spawn rt m ~env:[||] (fun m' _ -> nest m' (depth - 1))
      in
      Value.of_int (2 * Value.to_int (Sched.await rt m fut))
    end
  in
  let r = Sched.run rt ~main:(fun m -> nest m 14) in
  Alcotest.(check int) "2^14" 16384 (Value.to_int r)

let test_many_small_fibers () =
  let rt = mk_rt ~n_vprocs:8 () in
  let r =
    Sched.run rt ~main:(fun m ->
        let futs =
          List.init 500 (fun i ->
              Sched.spawn rt m ~env:[||] (fun _ _ -> Value.of_int i))
        in
        Value.of_int
          (List.fold_left
             (fun acc f -> acc + Value.to_int (Sched.await rt m f))
             0 futs))
  in
  Alcotest.(check int) "sum 0..499" (499 * 500 / 2) (Value.to_int r)

let test_channel_many_to_one () =
  let rt = mk_rt ~n_vprocs:6 () in
  let n_senders = 5 and per = 20 in
  let r =
    Sched.run rt ~main:(fun m ->
        let ch = Sched.new_channel rt m in
        let senders =
          List.init n_senders (fun w ->
              Sched.spawn rt m ~env:[||] (fun m' _ ->
                  for i = 1 to per do
                    Sched.send rt m' ch (Value.of_int ((w * 1000) + i))
                  done;
                  Value.unit))
        in
        let total = ref 0 in
        for _ = 1 to n_senders * per do
          total := !total + Value.to_int (Sched.recv rt m ch)
        done;
        List.iter (fun f -> ignore (Sched.await rt m f)) senders;
        Value.of_int !total)
  in
  let expect =
    List.init n_senders (fun w ->
        List.init per (fun i -> (w * 1000) + i + 1) |> List.fold_left ( + ) 0)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "all messages exactly once" expect (Value.to_int r)

let test_channel_one_to_many () =
  let rt = mk_rt ~n_vprocs:6 () in
  let n_receivers = 4 and per = 10 in
  let r =
    Sched.run rt ~main:(fun m ->
        let ch = Sched.new_channel rt m in
        let receivers =
          List.init n_receivers (fun _ ->
              Sched.spawn rt m ~env:[||] (fun m' _ ->
                  let s = ref 0 in
                  for _ = 1 to per do
                    s := !s + Value.to_int (Sched.recv rt m' ch)
                  done;
                  Value.of_int !s))
        in
        for i = 1 to n_receivers * per do
          Sched.send rt m ch (Value.of_int i)
        done;
        Value.of_int
          (List.fold_left
             (fun acc f -> acc + Value.to_int (Sched.await rt m f))
             0 receivers))
  in
  let n = n_receivers * per in
  Alcotest.(check int) "conserved" (n * (n + 1) / 2) (Value.to_int r)

(* --- Channel root lifetime (regression: new_channel leaked a
       permanent global root per channel) --------------------------- *)

let test_channel_roots_released () =
  let rt = mk_rt ~n_vprocs:2 () in
  let c = Sched.ctx rt in
  let baseline = Roots.count c.Ctx.global_roots in
  let r =
    Sched.run rt ~main:(fun m ->
        let chs = List.init 8 (fun _ -> Sched.new_channel rt m) in
        let ch = List.hd chs in
        let sender =
          Sched.spawn rt m ~env:[||] (fun m' _ ->
              Sched.send rt m' ch (Value.of_int 5);
              Value.unit)
        in
        let v = Sched.recv rt m ch in
        ignore (Sched.await rt m sender);
        (* Close one explicitly; [run] must release the other seven. *)
        Sched.close_channel rt ch;
        v)
  in
  Alcotest.(check int) "message delivered" 5 (Value.to_int r);
  Alcotest.(check int) "no channel root survives the run" baseline
    (Roots.count c.Ctx.global_roots)

let test_closed_channel_ops_raise () =
  let rt = mk_rt ~n_vprocs:2 () in
  let r =
    Sched.run rt ~main:(fun m ->
        let ch = Sched.new_channel rt m in
        Sched.close_channel rt ch;
        Sched.close_channel rt ch (* idempotent *);
        let rejected f =
          match f () with
          | _ -> 0
          | exception Sched.Closed -> 1
        in
        Value.of_int
          (rejected (fun () -> Sched.send rt m ch (Value.of_int 1))
          + rejected (fun () -> Sched.recv rt m ch)
          + rejected (fun () ->
                Sched.sync rt m [ Sched.Send_evt (ch, Value.of_int 2) ])))
  in
  Alcotest.(check int) "send/recv/sync all rejected" 3 (Value.to_int r)

let test_close_wakes_blocked_receiver () =
  let rt = mk_rt ~n_vprocs:2 () in
  let c = Sched.ctx rt in
  let baseline = Roots.count c.Ctx.global_roots in
  let r =
    Sched.run rt ~main:(fun m ->
        let ch = Sched.new_channel rt m in
        let receiver =
          Sched.spawn rt m ~env:[||] (fun m' _ -> Sched.recv rt m' ch)
        in
        (* Let the receiver get stolen and park on the channel. *)
        Ctx.charge_work (Sched.ctx rt) m ~cycles:2_000_000.;
        Sched.yield rt m;
        Sched.close_channel rt ch;
        let woken =
          match Sched.await rt m receiver with
          | _ -> 0
          | exception Sched.Closed -> 1
        in
        let rejected =
          match Sched.recv rt m ch with
          | _ -> 0
          | exception Sched.Closed -> 1
        in
        Value.of_int ((10 * woken) + rejected))
  in
  Alcotest.(check int) "parked receiver woken with Closed, later recv rejected"
    11 (Value.to_int r);
  Alcotest.(check int) "no leaked global roots" baseline
    (Roots.count c.Ctx.global_roots)

let test_close_during_in_flight_session () =
  (* A per-session teardown under fire: one fiber parked mid-[send], one
     parked on a [sync] choice spanning two channels.  Closing the
     channels they are parked on must fail both cleanly — releasing the
     sender's rooted message and the whole choice's proxies — while the
     choice's surviving sibling channel stays usable. *)
  let rt = mk_rt ~n_vprocs:2 () in
  let c = Sched.ctx rt in
  let baseline = Roots.count c.Ctx.global_roots in
  let r =
    Sched.run rt ~main:(fun m ->
        let req = Sched.new_channel rt m in
        let a = Sched.new_channel rt m in
        let b = Sched.new_channel rt m in
        let sender =
          Sched.spawn rt m ~env:[||] (fun m' _ ->
              Sched.send rt m' req (Value.of_int 7);
              Value.unit)
        in
        let chooser =
          Sched.spawn rt m ~env:[||] (fun m' _ ->
              let _, v = Sched.sync rt m' [ Sched.Recv_evt a; Sched.Recv_evt b ] in
              v)
        in
        (* Let both get stolen and park. *)
        Ctx.charge_work (Sched.ctx rt) m ~cycles:4_000_000.;
        Sched.yield rt m;
        Sched.close_channel rt req;
        Sched.close_channel rt a;
        let failed f =
          match f () with _ -> 0 | exception Sched.Closed -> 1
        in
        let n =
          failed (fun () -> Sched.await rt m sender)
          + failed (fun () -> Sched.await rt m chooser)
        in
        (* [b] outlived the choice: it must still rendezvous. *)
        let s2 =
          Sched.spawn rt m ~env:[||] (fun m' _ -> Sched.recv rt m' b)
        in
        Sched.send rt m b (Value.of_int 5);
        let v = Value.to_int (Sched.await rt m s2) in
        Value.of_int ((n * 100) + v))
  in
  Alcotest.(check int) "both parked fibers fail cleanly; sibling channel live"
    205 (Value.to_int r);
  Alcotest.(check int) "no leaked global roots" baseline
    (Roots.count c.Ctx.global_roots)

let test_close_at_safe_point_during_concurrent_cycle () =
  (* Regression (found by the global-heavy fuzz profile): [recv] checks
     [ch_open] on entry, but the fiber can yield at the pending-GC safe
     point inside the call — and the peer can close the channel before
     the fiber reaches its park.  Parking then is fatal: the close's
     fail sweep has already run, so nothing ever wakes the fiber and the
     scheduler reports deadlock.  A pending *concurrent* cycle keeps
     [tick] yielding at every safe point for the cycle's whole duration,
     which is exactly the window: the session below answers its last
     request, loops into [recv] on the request channel, yields, and the
     client closes that channel before the park.  The parked fiber must
     fail with [Closed] exactly as the sweep would have failed it. *)
  let params =
    {
      Params.default with
      Params.capacity_bytes = 8 * 1024 * 1024;
      local_heap_bytes = 8 * 1024;
      chunk_bytes = 4 * 1024;
      nursery_min_bytes = 1024;
      global_budget_per_vproc = 16 * 1024;
      global_gc_mode = Params.Concurrent;
    }
  in
  let ctx =
    Ctx.create ~params ~machine:Numa.Machines.tiny4 ~n_vprocs:3
      ~policy:Sim_mem.Page_policy.Local ()
  in
  Ctx.request_global_gc ctx;
  let rt = Sched.create ~seed:613856027 ctx in
  let r =
    Sched.run rt ~main:(fun m ->
        let req = Sched.new_channel rt m in
        let resp = Sched.new_channel rt m in
        let session =
          Sched.spawn rt m ~env:[||] (fun fm _ ->
              (try
                 while true do
                   let v = Sched.recv rt fm req in
                   let cell = Roots.add fm.Ctx.roots v in
                   let echo =
                     Alloc.alloc_vector ctx fm [| Roots.get cell |]
                   in
                   Roots.remove fm.Ctx.roots cell;
                   Sched.send rt fm resp echo
                 done
               with Sched.Closed -> ());
              Value.unit)
        in
        let msg = Alloc.alloc_vector ctx m [| Value.of_int 7 |] in
        Sched.send rt m req msg;
        let v = Sched.recv rt m resp in
        let cell = Roots.add m.Ctx.roots v in
        Sched.close_channel rt req;
        ignore (Sched.await rt m session);
        Sched.close_channel rt resp;
        let v = Ctx.resolve ctx m (Roots.get cell) in
        Roots.remove m.Ctx.roots cell;
        let inner =
          Ctx.resolve ctx m
            (Value.of_word (Ctx.read_word ctx m (Obj_repr.field_addr (Value.to_ptr v) 0)))
        in
        Value.of_word
          (Ctx.read_word ctx m (Obj_repr.field_addr (Value.to_ptr inner) 0)))
  in
  Alcotest.(check int) "round trip survives close at the yield window" 7
    (Value.to_int r)

let test_sync_roots_messages_while_building_proxies () =
  (* Regression: a choice mixing send and recv arms promoted its
     messages, then built the recv arms' proxies while holding the
     promoted messages unrooted.  Here the promotion takes the global
     heap over budget and the proxy's stub finds the nursery full, so
     the stub's allocation reaches the global-GC safe point and a
     stop-the-world collection runs inside the [sync].  The parked
     reader must receive the moved message, not its released
     from-space copy. *)
  let params =
    {
      Params.default with
      Params.capacity_bytes = 8 * 1024 * 1024;
      local_heap_bytes = 8 * 1024;
      chunk_bytes = 4 * 1024;
      nursery_min_bytes = 1024;
      global_budget_per_vproc = 16 * 1024;
    }
  in
  let ctx =
    Ctx.create ~params ~machine:Numa.Machines.tiny4 ~n_vprocs:2
      ~policy:Sim_mem.Page_policy.Local ()
  in
  let rt = Sched.create ~quantum_ns:1e15 ctx in
  let globals () = (Ctx.gc_totals ctx).Gc_stats.global_count in
  let collected = ref false in
  let r =
    Sched.run rt ~main:(fun m ->
        let a = Sched.new_channel rt m in
        let b = Sched.new_channel rt m in
        let reader =
          Sched.spawn rt m ~env:[||] (fun m' _ ->
              let p = Value.to_ptr (Sched.recv rt m' a) in
              if Global_heap.contains ctx.Ctx.global p then
                Ctx.get_field ctx m' p 119
              else Value.of_int (-1))
        in
        (* Let the reader get stolen and park on [a]. *)
        Ctx.charge_work ctx m ~cycles:2_000_000.;
        Sched.yield rt m;
        (* Fill a fresh global chunk almost to the brim, then set the
           budget to the heap's size: the chunk the message's promotion
           takes requests a global collection. *)
        let big () = Alloc.alloc_vector ctx m (Array.init 120 Value.of_int) in
        let promote () =
          ignore (Roots.add m.Ctx.roots (Promote.value ctx m (big ())))
        in
        let used () = Global_heap.in_use_bytes ctx.Ctx.global in
        let u0 = used () in
        while used () = u0 do
          promote ()
        done;
        for _ = 1 to 3 do
          promote ()
        done;
        Ctx.set_global_budget ctx (used ());
        let msg = Roots.add m.Ctx.roots (big ()) in
        (* Leave no room in the nursery for the proxy's stub. *)
        while Local_heap.nursery_free m.Ctx.lh >= 16 do
          ignore (Alloc.alloc_raw ctx m ~words:1)
        done;
        let before = globals () in
        let i, _ =
          Sched.sync rt m [ Sched.Send_evt (a, Roots.get msg); Sched.Recv_evt b ]
        in
        collected := globals () > before;
        Alcotest.(check int) "send arm committed" 0 i;
        Sched.await rt m reader)
  in
  Alcotest.(check bool) "a collection ran inside the sync" true !collected;
  Alcotest.(check int) "reader got the live message" 119 (Value.to_int r)

(* --- Near_first steal ordering (regression: victims were only
       partitioned by same_package, ignoring the same-node tier) ------ *)

let steal_traffic ~near =
  (* Two-package amd24 with 8 vprocs: two vprocs per node, so every
     Near_first tier (same node / same package / remote) is populated.
     A steal promotes the stolen env on the *victim's* node (the victim
     services the promotion), and the thief then holds the global object
     rooted; the tiny global budget forces global collections, whose
     evacuation copies each rooted object onto the *holder's* node.  So
     a cross-node steal turns into off-diagonal copy bytes at the next
     global GC, while a same-node steal stays on the diagonal — a
     correct three-tier Near_first hunt measurably shifts the traffic
     matrix toward the diagonal versus Random_victim. *)
  let params =
    {
      Params.default with
      Params.capacity_bytes = 64 * 1024 * 1024;
      local_heap_bytes = 512 * 1024;
      chunk_bytes = 4 * 1024;
      global_budget_per_vproc = 4 * 1024;
    }
  in
  let ctx =
    Ctx.create ~params ~machine:Numa.Machines.amd24 ~n_vprocs:8
      ~policy:Sim_mem.Page_policy.Local ()
  in
  let policy = if near then Sched.Near_first else Sched.Random_victim in
  let rt = Sched.create ~steal_policy:policy ~seed:11 ctx in
  let c = Sched.ctx rt in
  (* A fork-join tree whose children each carry a freshly allocated list
     env: every steal promotes the payload across the machine. *)
  ignore
    (Sched.run rt ~main:(fun m ->
         let rec tree m depth =
           if depth = 0 then begin
             Ctx.charge_work c m ~cycles:30_000.;
             Value.of_int 1
           end
           else begin
             let kids =
               List.init 2 (fun _ ->
                   let payload =
                     Gc_util.build_list c m (List.init 96 (fun i -> i))
                   in
                   Sched.spawn rt m ~env:[| payload |] (fun m' env ->
                       (* Hold the (possibly stolen) payload rooted across
                          the subtree: it stays live through any global
                          collection, whose evacuation pulls it onto this
                          vproc's node — that is the traffic under test. *)
                       let cell = Roots.add m'.Ctx.roots env.(0) in
                       Ctx.charge_work c m' ~cycles:30_000.;
                       let sub = tree m' (depth - 1) in
                       Roots.remove m'.Ctx.roots cell;
                       sub))
             in
             Value.of_int
               (List.fold_left
                  (fun acc f -> acc + Value.to_int (Sched.await rt m f))
                  0 kids)
           end
         in
         tree m 9));
  let steals = (Metrics.aggregate ctx.Ctx.metrics).Metrics.steal_successes in
  let r = ctx.Ctx.obs in
  let topo = Numa.Cost_model.topology ctx.Ctx.cost in
  let n = Numa.Topology.n_nodes topo in
  let same_node = ref 0 and cross_pkg = ref 0 in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      let b = Obs.Recorder.matrix_get r ~src_node:s ~dst_node:d in
      if s = d then same_node := !same_node + b
      else if not (Numa.Topology.same_package topo s d) then
        cross_pkg := !cross_pkg + b
    done
  done;
  let total = Obs.Recorder.matrix_total r in
  ( steals,
    float_of_int !same_node /. float_of_int (max 1 total),
    float_of_int !cross_pkg /. float_of_int (max 1 total) )

let test_near_first_shifts_traffic_to_diagonal () =
  let near_steals, near_diag, near_cross = steal_traffic ~near:true in
  let rand_steals, rand_diag, rand_cross = steal_traffic ~near:false in
  Alcotest.(check bool) "both runs actually steal" true
    (near_steals > 20 && rand_steals > 20);
  Alcotest.(check bool)
    (Printf.sprintf
       "same-node share grows under Near_first (%.3f -> %.3f)" rand_diag
       near_diag)
    true (near_diag > rand_diag);
  Alcotest.(check bool)
    (Printf.sprintf
       "cross-package share shrinks under Near_first (%.3f -> %.3f)"
       rand_cross near_cross)
    true (near_cross <= rand_cross)

(* --- Steal-counter exactness (regression: speculative next_move
       probes were recorded per scheduling decision) ----------------- *)

let test_no_thief_no_steal_attempts () =
  (* One vproc: nobody ever hunts, so no scheduling decision — however
     many the driver makes — may record an attempt. *)
  let rt = mk_rt ~n_vprocs:1 () in
  ignore
    (Sched.run rt ~main:(fun m ->
         let fut = Sched.spawn rt m ~env:[||] (fun _ _ -> Value.of_int 2) in
         Sched.await rt m fut));
  let agg = Metrics.aggregate (Sched.ctx rt).Ctx.metrics in
  Alcotest.(check int) "no thief, no attempts" 0 agg.Metrics.steal_attempts;
  Alcotest.(check int) "no successes" 0 agg.Metrics.steal_successes

let test_steals_counted_exactly_once () =
  (* Two vprocs: the hunt has a single candidate victim, so an executed
     steal never probes an empty deque on the way — every recorded
     attempt must be a success, and both must equal an independent
     witness: the number of fibers that ran off their spawner's vproc.
     That includes the main item, which [run] spawns on vproc 0 and
     vproc 1 steals while [spawn] charges vproc 0 for the push.  The
     speculative-probe over-count this guards against produced attempts
     far in excess of successes here. *)
  let rt = mk_rt ~n_vprocs:2 () in
  let moved = ref 0 in
  ignore
    (Sched.run rt ~main:(fun m ->
         if m.Ctx.id <> 0 then incr moved;
         let futs =
           List.init 4 (fun i ->
               Sched.spawn rt m ~env:[||] (fun m' _ ->
                   if m'.Ctx.id <> m.Ctx.id then incr moved;
                   Ctx.charge_work (Sched.ctx rt) m' ~cycles:100_000.;
                   Value.of_int i))
         in
         (* Stay busy so the idle vproc performs the steals. *)
         Ctx.charge_work (Sched.ctx rt) m ~cycles:4_000_000.;
         List.iter (fun f -> ignore (Sched.await rt m f)) futs;
         Value.unit));
  let agg = Metrics.aggregate (Sched.ctx rt).Ctx.metrics in
  Alcotest.(check bool) "steals happened" true (!moved > 0);
  Alcotest.(check int) "attempts = successes (no empty probes possible)"
    agg.Metrics.steal_successes agg.Metrics.steal_attempts;
  Alcotest.(check int) "successes = fibers run off their spawner's vproc"
    !moved agg.Metrics.steal_successes

let test_exception_does_not_poison_scheduler () =
  let rt = mk_rt () in
  let r =
    Sched.run rt ~main:(fun m ->
        let bad = Sched.spawn rt m ~env:[||] (fun _ _ -> failwith "pop") in
        let good = Sched.spawn rt m ~env:[||] (fun _ _ -> Value.of_int 3) in
        let ok =
          match Sched.await rt m bad with
          | _ -> 0
          | exception Failure _ -> 1
        in
        Value.of_int (ok + Value.to_int (Sched.await rt m good)))
  in
  Alcotest.(check int) "failure isolated" 4 (Value.to_int r)

let suite =
  ( "sched-edge",
    [
      Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
      Alcotest.test_case "await twice" `Quick test_await_same_future_twice;
      Alcotest.test_case "two waiters, one future" `Quick
        test_two_fibers_await_one_future;
      Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
      Alcotest.test_case "500 fibers" `Quick test_many_small_fibers;
      Alcotest.test_case "channels: many-to-one" `Quick test_channel_many_to_one;
      Alcotest.test_case "channels: one-to-many" `Quick test_channel_one_to_many;
      Alcotest.test_case "exception isolation" `Quick
        test_exception_does_not_poison_scheduler;
      Alcotest.test_case "channel roots released" `Quick
        test_channel_roots_released;
      Alcotest.test_case "closed-channel ops raise" `Quick
        test_closed_channel_ops_raise;
      Alcotest.test_case "close wakes blocked receiver" `Quick
        test_close_wakes_blocked_receiver;
      Alcotest.test_case "close during in-flight session" `Quick
        test_close_during_in_flight_session;
      Alcotest.test_case "close at safe point during concurrent cycle" `Quick
        test_close_at_safe_point_during_concurrent_cycle;
      Alcotest.test_case "sync roots messages while building proxies" `Quick
        test_sync_roots_messages_while_building_proxies;
      Alcotest.test_case "near-first shifts traffic to diagonal" `Quick
        test_near_first_shifts_traffic_to_diagonal;
      Alcotest.test_case "no thief, no steal attempts" `Quick
        test_no_thief_no_steal_attempts;
      Alcotest.test_case "steals counted exactly once" `Quick
        test_steals_counted_exactly_once;
    ] )
