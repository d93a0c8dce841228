(* The virtual-time scheduler: fibers, futures, stealing, channels. *)

open Heap
open Manticore_gc
open Runtime

let mk_rt ?(n_vprocs = 4) ?(machine = Numa.Machines.amd48) () =
  let params =
    {
      Params.default with
      Params.capacity_bytes = 32 * 1024 * 1024;
      local_heap_bytes = 16 * 1024;
      chunk_bytes = 4 * 1024;
      nursery_min_bytes = 2 * 1024;
      global_budget_per_vproc = 32 * 1024;
    }
  in
  let ctx =
    Ctx.create ~params ~machine ~n_vprocs ~policy:Sim_mem.Page_policy.Local ()
  in
  Sched.create ctx

let test_run_main () =
  let rt = mk_rt () in
  let r = Sched.run rt ~main:(fun _m -> Value.of_int 42) in
  Alcotest.(check int) "result" 42 (Value.to_int r);
  Alcotest.(check bool) "time advanced" true (Sched.elapsed_ns rt >= 0.)

let test_main_allocates () =
  let rt = mk_rt () in
  let c = Sched.ctx rt in
  let r =
    Sched.run rt ~main:(fun m ->
        let v = Gc_util.build_list c m [ 1; 2; 3; 4; 5 ] in
        Value.of_int (List.length (Gc_util.read_list c m v)))
  in
  Alcotest.(check int) "length" 5 (Value.to_int r)

let test_spawn_await_inline () =
  (* With a single vproc there is no idle thief, so the awaiter claims
     the queued item and runs it inline (work-first execution). *)
  let rt = mk_rt ~n_vprocs:1 () in
  let r =
    Sched.run rt ~main:(fun m ->
        let fut =
          Sched.spawn rt m ~env:[||] (fun _m _ -> Value.of_int 10)
        in
        let v = Sched.await rt m fut in
        Value.of_int (Value.to_int v + 1))
  in
  Alcotest.(check int) "result" 11 (Value.to_int r);
  (* The awaiter claimed the still-queued item and ran it inline. *)
  Alcotest.(check int) "inline run" 1 (Sched.stats rt).Sched.inline_runs

let test_fanout_parallel () =
  let rt = mk_rt ~n_vprocs:4 () in
  let r =
    Sched.run rt ~main:(fun m ->
        let futs =
          List.init 16 (fun i ->
              Sched.spawn rt m ~env:[||] (fun m' _ ->
                  (* Make the work visible to the clock so steals pay off. *)
                  Ctx.charge_work (Sched.ctx rt) m' ~cycles:100_000.;
                  Value.of_int (i * i)))
        in
        let total =
          List.fold_left
            (fun acc f -> acc + Value.to_int (Sched.await rt m f))
            0 futs
        in
        Value.of_int total)
  in
  let expect = List.fold_left ( + ) 0 (List.init 16 (fun i -> i * i)) in
  Alcotest.(check int) "sum of squares" expect (Value.to_int r)

let test_stealing_happens () =
  let rt = mk_rt ~n_vprocs:4 () in
  ignore
    (Sched.run rt ~main:(fun m ->
         let futs =
           List.init 32 (fun _ ->
               Sched.spawn rt m ~env:[||] (fun m' _ ->
                   Ctx.charge_work (Sched.ctx rt) m' ~cycles:1_000_000.;
                   Sched.yield rt m';
                   Value.of_int 1))
         in
         List.iter (fun f -> ignore (Sched.await rt m f)) futs;
         Value.unit));
  Alcotest.(check bool) "steals occurred" true
    ((Metrics.aggregate (Sched.ctx rt).Ctx.metrics).Metrics.steal_successes > 0)

let test_stolen_env_promoted () =
  let rt = mk_rt ~n_vprocs:2 () in
  let c = Sched.ctx rt in
  let got_global = ref false in
  let crossed = ref false in
  ignore
    (Sched.run rt ~main:(fun m ->
         let spawner = m.Ctx.id in
         let data = Gc_util.build_list c m [ 1; 2; 3 ] in
         let fut =
           Sched.spawn rt m ~env:[| data |] (fun m' env ->
               (* If this task was stolen, its env must not point into the
                  spawner's local heap. *)
               if m'.Ctx.id <> spawner then begin
                 crossed := true;
                 got_global :=
                   Global_heap.contains c.Ctx.global (Value.to_ptr env.(0))
               end;
               Value.of_int (List.length (Gc_util.read_list c m' env.(0))))
         in
         (* Burn time so vproc 1 steals the item. *)
         Ctx.charge_work c m ~cycles:10_000_000.;
         Sched.yield rt m;
         Sched.await rt m fut));
  if !crossed then
    Alcotest.(check bool) "stolen env was promoted" true !got_global;
  Alcotest.(check bool) "promotion bytes counted" true
    ((Sched.stats rt).Sched.steal_promoted_bytes >= 0)

let test_result_promoted_across_vprocs () =
  let rt = mk_rt ~n_vprocs:2 () in
  let c = Sched.ctx rt in
  let r =
    Sched.run rt ~main:(fun m ->
        let fut =
          Sched.spawn rt m ~env:[||] (fun m' _ ->
              Ctx.charge_work c m' ~cycles:5_000_000.;
              Sched.yield rt m';
              Gc_util.build_list c m' [ 4; 5 ])
        in
        Ctx.charge_work c m ~cycles:20_000_000.;
        Sched.yield rt m;
        let v = Sched.await rt m fut in
        Value.of_int (List.fold_left ( + ) 0 (Gc_util.read_list c m v)))
  in
  Alcotest.(check int) "sum" 9 (Value.to_int r)

let test_exception_propagates () =
  let rt = mk_rt () in
  Alcotest.check_raises "exn from fiber" (Failure "boom") (fun () ->
      ignore
        (Sched.run rt ~main:(fun m ->
             let fut =
               Sched.spawn rt m ~env:[||] (fun _ _ -> failwith "boom")
             in
             Sched.await rt m fut)))

let test_main_exception () =
  let rt = mk_rt () in
  Alcotest.check_raises "exn from main" (Failure "kaput") (fun () ->
      ignore (Sched.run rt ~main:(fun _ -> failwith "kaput")))

let test_virtual_time_speedup () =
  (* The same total work split over more vprocs must take less virtual
     time — the core property behind every speedup figure. *)
  let elapsed n_vprocs =
    let rt = mk_rt ~n_vprocs () in
    ignore
      (Sched.run rt ~main:(fun m ->
           let futs =
             List.init 64 (fun _ ->
                 Sched.spawn rt m ~env:[||] (fun m' _ ->
                     Ctx.charge_work (Sched.ctx rt) m' ~cycles:1_000_000.;
                     Sched.yield rt m';
                     Value.unit))
           in
           List.iter (fun f -> ignore (Sched.await rt m f)) futs;
           Value.unit));
    Sched.elapsed_ns rt
  in
  let t1 = elapsed 1 and t4 = elapsed 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 vprocs faster (t1=%.0f t4=%.0f)" t1 t4)
    true
    (t4 < t1 /. 2.)

let test_channels_rendezvous () =
  let rt = mk_rt ~n_vprocs:2 () in
  let c = Sched.ctx rt in
  let r =
    Sched.run rt ~main:(fun m ->
        let ch = Sched.new_channel rt m in
        let producer =
          Sched.spawn rt m ~env:[||] (fun m' _ ->
              for i = 1 to 5 do
                let msg = Gc_util.build_list c m' [ i; 10 * i ] in
                Sched.send rt m' ch msg
              done;
              Value.unit)
        in
        (* Force the producer to run elsewhere or interleave. *)
        let total = ref 0 in
        for _ = 1 to 5 do
          let msg = Sched.recv rt m ch in
          total := !total + List.fold_left ( + ) 0 (Gc_util.read_list c m msg)
        done;
        ignore (Sched.await rt m producer);
        Value.of_int !total)
  in
  (* sum over i of (i + 10i) = 11 * 15 *)
  Alcotest.(check int) "messages received" 165 (Value.to_int r);
  Alcotest.(check int) "sends counted" 5 (Sched.stats rt).Sched.sends

(* [sends] counts messages delivered, whichever side arrived second and
   whether it was a plain op or a [sync] arm. *)
let test_sends_count_parked_sync_arm () =
  let rt = mk_rt ~n_vprocs:2 () in
  let r =
    Sched.run rt ~main:(fun m ->
        let ch = Sched.new_channel rt m in
        let sender =
          Sched.spawn rt m ~env:[||] (fun m' _ ->
              ignore (Sched.sync rt m' [ Sched.Send_evt (ch, Value.of_int 3) ]);
              Value.unit)
        in
        (* Let the sender get stolen and park before the recv takes it. *)
        Ctx.charge_work (Sched.ctx rt) m ~cycles:2_000_000.;
        Sched.yield rt m;
        let v = Sched.recv rt m ch in
        ignore (Sched.await rt m sender);
        v)
  in
  Alcotest.(check int) "message received" 3 (Value.to_int r);
  Alcotest.(check int) "one delivery" 1 (Sched.stats rt).Sched.sends

let test_sends_skip_failed_send () =
  let rt = mk_rt ~n_vprocs:2 () in
  let r =
    Sched.run rt ~main:(fun m ->
        let ch = Sched.new_channel rt m in
        let sender =
          Sched.spawn rt m ~env:[||] (fun m' _ ->
              Sched.send rt m' ch (Value.of_int 3);
              Value.unit)
        in
        (* Let the sender get stolen and park, then fail it. *)
        Ctx.charge_work (Sched.ctx rt) m ~cycles:2_000_000.;
        Sched.yield rt m;
        Sched.close_channel rt ch;
        match Sched.await rt m sender with
        | _ -> Value.of_int 0
        | exception Sched.Closed -> Value.of_int 1)
  in
  Alcotest.(check int) "parked send failed with Closed" 1 (Value.to_int r);
  Alcotest.(check int) "no delivery" 0 (Sched.stats rt).Sched.sends

let test_channel_messages_are_global () =
  let rt = mk_rt ~n_vprocs:2 () in
  let c = Sched.ctx rt in
  ignore
    (Sched.run rt ~main:(fun m ->
         let ch = Sched.new_channel rt m in
         let _ =
           Sched.spawn rt m ~env:[||] (fun m' _ ->
               Sched.send rt m' ch (Gc_util.build_list c m' [ 3 ]);
               Value.unit)
         in
         let msg = Sched.recv rt m ch in
         Alcotest.(check bool) "message promoted to global heap" true
           (Global_heap.contains c.Ctx.global (Value.to_ptr msg));
         Value.unit))

let test_gc_during_parallel_run () =
  (* Enough allocation across fibers to force minors, majors and global
     collections while fibers are suspended and stealing. *)
  let rt = mk_rt ~n_vprocs:4 () in
  let c = Sched.ctx rt in
  let r =
    Sched.run rt ~main:(fun m ->
        let futs =
          List.init 8 (fun k ->
              Sched.spawn rt m ~env:[||] (fun m' _ ->
                  let acc = Roots.add m'.Ctx.roots Value.unit in
                  let n = ref 0 in
                  for i = 1 to 400 do
                    Sched.tick rt m';
                    let v =
                      Alloc.alloc_vector c m'
                        [| Value.of_int (k + i); Value.of_int i |]
                    in
                    Roots.set acc v;
                    n := !n + Value.to_int (Ctx.get_field c m' (Value.to_ptr v) 1)
                  done;
                  Roots.remove m'.Ctx.roots acc;
                  Value.of_int !n))
        in
        let total =
          List.fold_left
            (fun t f -> t + Value.to_int (Sched.await rt m f))
            0 futs
        in
        Value.of_int total)
  in
  Alcotest.(check int) "all work done" (8 * (400 * 401 / 2)) (Value.to_int r);
  let stats = Gc_stats.total (Array.map (fun i -> (Ctx.mutator c i).Ctx.stats)
                                [| 0; 1; 2; 3 |]) in
  Alcotest.(check bool) "minors ran" true (stats.Gc_stats.minor_count > 0);
  Gc_util.assert_invariants c

let suite =
  ( "scheduler",
    [
      Alcotest.test_case "run main" `Quick test_run_main;
      Alcotest.test_case "main allocates" `Quick test_main_allocates;
      Alcotest.test_case "spawn/await inline" `Quick test_spawn_await_inline;
      Alcotest.test_case "fan-out sum" `Quick test_fanout_parallel;
      Alcotest.test_case "stealing happens" `Quick test_stealing_happens;
      Alcotest.test_case "stolen env promoted" `Quick test_stolen_env_promoted;
      Alcotest.test_case "results cross vprocs" `Quick
        test_result_promoted_across_vprocs;
      Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
      Alcotest.test_case "main exception" `Quick test_main_exception;
      Alcotest.test_case "virtual-time speedup" `Quick test_virtual_time_speedup;
      Alcotest.test_case "channel rendezvous" `Quick test_channels_rendezvous;
      Alcotest.test_case "sends: parked sync arm delivered" `Quick
        test_sends_count_parked_sync_arm;
      Alcotest.test_case "sends: failed send not counted" `Quick
        test_sends_skip_failed_send;
      Alcotest.test_case "messages are global" `Quick test_channel_messages_are_global;
      Alcotest.test_case "gc during parallel run" `Quick test_gc_during_parallel_run;
    ] )
