(* Bechamel benchmarks: host-side (wall-clock) cost of the simulator.

   One Test.make per paper table/figure — each runs a scaled-down but
   structurally identical version of the experiment that regenerates it
   — plus microbenchmarks of the collector operations themselves.  The
   virtual-time *results* of the experiments are produced by
   `bin/experiments.exe`; this harness tells you what the simulation
   costs to run.

   Run:  dune exec bench/main.exe  *)

open Bechamel
open Toolkit
open Heap
open Manticore_gc
open Runtime

let small_params =
  {
    Params.default with
    Params.capacity_bytes = 64 * 1024 * 1024;
    local_heap_bytes = 32 * 1024;
    chunk_bytes = 8 * 1024;
    nursery_min_bytes = 4 * 1024;
    global_budget_per_vproc = 128 * 1024;
  }

let mk_ctx ?(n_vprocs = 8) () =
  let ctx =
    Ctx.create ~params:small_params ~machine:Numa.Machines.amd48 ~n_vprocs
      ~policy:Sim_mem.Page_policy.Local ()
  in
  Global_gc.install_sync_hook ctx;
  ctx

(* --- Collector-operation microbenchmarks ------------------------- *)

let bench_alloc =
  Test.make ~name:"gc/alloc-vector"
    (Staged.stage (fun () ->
         let ctx = mk_ctx ~n_vprocs:1 () in
         let m = Ctx.mutator ctx 0 in
         for i = 1 to 2_000 do
           ignore (Alloc.alloc_vector ctx m [| Value.of_int i; Value.of_int i |])
         done))

let bench_minor =
  Test.make ~name:"gc/minor-collection"
    (Staged.stage (fun () ->
         let ctx = mk_ctx ~n_vprocs:1 () in
         let m = Ctx.mutator ctx 0 in
         let keep = Roots.add m.Ctx.roots (Value.of_int 0) in
         for i = 1 to 200 do
           Roots.set keep (Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get keep |])
         done;
         Minor_gc.run ctx m))

let bench_promote =
  Test.make ~name:"gc/promotion"
    (Staged.stage (fun () ->
         let ctx = mk_ctx ~n_vprocs:1 () in
         let m = Ctx.mutator ctx 0 in
         let keep = Roots.add m.Ctx.roots (Value.of_int 0) in
         for i = 1 to 100 do
           Roots.set keep (Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get keep |])
         done;
         ignore (Promote.value ctx m (Roots.get keep))))

let bench_global_gc =
  Test.make ~name:"gc/global-collection"
    (Staged.stage (fun () ->
         let ctx = mk_ctx ~n_vprocs:4 () in
         let m = Ctx.mutator ctx 0 in
         for i = 1 to 300 do
           ignore (Promote.value ctx m (Alloc.alloc_vector ctx m [| Value.of_int i |]))
         done;
         Global_gc.run ctx))

let bench_sched =
  Test.make ~name:"runtime/spawn-steal-await"
    (Staged.stage (fun () ->
         let ctx = mk_ctx ~n_vprocs:4 () in
         let rt = Sched.create ctx in
         ignore
           (Sched.run rt ~main:(fun m ->
                let futs =
                  List.init 64 (fun i ->
                      Sched.spawn rt m ~env:[||] (fun m' _ ->
                          Ctx.charge_work ctx m' ~cycles:10_000.;
                          Value.of_int i))
                in
                List.iter (fun f -> ignore (Sched.await rt m f)) futs;
                Value.unit))))

let bench_channels =
  Test.make ~name:"runtime/channel-rendezvous"
    (Staged.stage (fun () ->
         let ctx = mk_ctx ~n_vprocs:2 () in
         let rt = Sched.create ctx in
         ignore
           (Sched.run rt ~main:(fun m ->
                let ch = Sched.new_channel rt m in
                let _ =
                  Sched.spawn rt m ~env:[||] (fun m' _ ->
                      for i = 1 to 50 do
                        Sched.send rt m' ch (Value.of_int i)
                      done;
                      Value.unit)
                in
                let s = ref 0 in
                for _ = 1 to 50 do
                  s := !s + Value.to_int (Sched.recv rt m ch)
                done;
                Value.of_int !s))))

let bench_events =
  Test.make ~name:"runtime/sync-choice"
    (Staged.stage (fun () ->
         let ctx = mk_ctx ~n_vprocs:2 () in
         let rt = Sched.create ctx in
         ignore
           (Sched.run rt ~main:(fun m ->
                let a = Sched.new_channel rt m in
                let b = Sched.new_channel rt m in
                let _ =
                  Sched.spawn rt m ~env:[||] (fun m' _ ->
                      for i = 1 to 25 do
                        Sched.send rt m' (if i mod 2 = 0 then a else b)
                          (Value.of_int i)
                      done;
                      Value.unit)
                in
                let s = ref 0 in
                for _ = 1 to 25 do
                  let _, v = Sched.select rt m [ a; b ] in
                  s := !s + Value.to_int v
                done;
                Value.of_int !s))))

let bench_mutation =
  Test.make ~name:"gc/write-barrier"
    (Staged.stage (fun () ->
         let ctx = mk_ctx ~n_vprocs:1 () in
         let m = Ctx.mutator ctx 0 in
         let r = Roots.add m.Ctx.roots (Mut.alloc_ref ctx m (Value.of_int 0)) in
         Minor_gc.run ctx m;
         Minor_gc.run ctx m;
         for i = 1 to 500 do
           let v = Alloc.alloc_vector ctx m [| Value.of_int i; Value.of_int i |] in
           Mut.set ctx m (Roots.get r) v
         done;
         Minor_gc.run ctx m;
         Roots.remove m.Ctx.roots r))

(* --- Heap-classification microbenchmark (--classify) --------------- *)

(* A chunk-heavy global heap — the regime barnes-hut reaches at high
   vproc counts: many vprocs, hundreds of in-use chunks, a few large
   regions.  "What region owns this address?" sits on the evacuation,
   proxy-referent and invariant-checking paths; the page-granularity
   Heap_index answers it with one array read, where the seed walked the
   in-use chunk list (and the vproc array for local ownership). *)
let classify_setup () =
  let params =
    {
      Params.default with
      Params.capacity_bytes = 128 * 1024 * 1024;
      local_heap_bytes = 64 * 1024;
      chunk_bytes = 8 * 1024;
      nursery_min_bytes = 4 * 1024;
      global_budget_per_vproc = 8 * 1024 * 1024;
    }
  in
  let n_vprocs = 16 in
  let ctx =
    Ctx.create ~params ~machine:Numa.Machines.amd48 ~n_vprocs
      ~policy:Sim_mem.Page_policy.Local ()
  in
  Global_gc.install_sync_hook ctx;
  (* Fill until 256 chunks are in use (~2 MB of promoted cons cells). *)
  let pool = Global_heap.pool ctx.Ctx.global in
  let turn = ref 0 in
  while Sim_mem.Chunk.in_use_count pool < 256 do
    let m = Ctx.mutator ctx (!turn mod n_vprocs) in
    incr turn;
    let keep = Roots.add m.Ctx.roots (Value.of_int 0) in
    for i = 1 to 100 do
      Roots.set keep (Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get keep |])
    done;
    ignore (Promote.value ctx m (Roots.get keep));
    Roots.remove m.Ctx.roots keep
  done;
  (* A few live large regions so the large path is exercised too. *)
  for v = 0 to 7 do
    let m = Ctx.mutator ctx v in
    ignore (Roots.add m.Ctx.roots (Alloc.alloc_raw ctx m ~words:2000))
  done;
  (* Sample addresses striding across the chunks in scrambled order. *)
  let chunks = Array.of_list (Global_heap.in_use ctx.Ctx.global) in
  let n = Array.length chunks in
  let addrs =
    Array.init 4096 (fun i ->
        let c = chunks.(i * 97 mod n) in
        c.Sim_mem.Chunk.base + (i * 104729 mod c.Sim_mem.Chunk.bytes / 8 * 8))
  in
  (ctx, addrs)

(* The seed's classifiers, inlined as the "before" reference. *)
let linear_contains g addr =
  List.exists (fun c -> Sim_mem.Chunk.contains c addr) (Global_heap.in_use g)
  || List.exists
       (fun (a, b) -> addr >= a && addr < a + b)
       (Global_heap.large_list g)

let linear_local_owner (ctx : Ctx.t) addr =
  let n = Array.length ctx.Ctx.muts in
  let rec go i =
    if i >= n then None
    else if Local_heap.in_heap ctx.Ctx.muts.(i).Ctx.lh addr then Some i
    else go (i + 1)
  in
  go 0

let classify_main () =
  let ctx, addrs = classify_setup () in
  let g = ctx.Ctx.global in
  Printf.printf
    "Address classification, %d in-use chunks + %d large regions (amd48 x16):\n"
    (List.length (Global_heap.in_use g))
    (List.length (Global_heap.large_list g));
  let measure f =
    let n = Array.length addrs in
    for i = 0 to n - 1 do ignore (f (Array.unsafe_get addrs i)) done;
    let count = ref 0 and t0 = Sys.time () in
    while Sys.time () -. t0 < 0.5 do
      for i = 0 to n - 1 do
        ignore (f (Array.unsafe_get addrs i))
      done;
      count := !count + n
    done;
    (Sys.time () -. t0) /. float_of_int !count *. 1e9
  in
  let row name ns_linear ns_index =
    Printf.printf "  %-28s %10.1f ns %10.1f ns %9.0fx\n" name ns_linear
      ns_index (ns_linear /. ns_index)
  in
  Printf.printf "  %-28s %13s %13s %9s\n" "" "linear scan" "page index" "speedup";
  let l1 = measure (fun a -> linear_contains g a) in
  let i1 = measure (fun a -> Global_heap.contains g a) in
  row "global membership" l1 i1;
  let l2 = measure (fun a -> linear_local_owner ctx a <> None) in
  let i2 =
    measure (fun a ->
        Heap_index.local_owner ctx.Ctx.store.Store.index a <> None)
  in
  row "local-owner lookup" l2 i2;
  let l3 =
    measure (fun a ->
        List.exists
          (fun (base, bytes) -> a >= base && a < base + bytes)
          (Global_heap.large_list g))
  in
  let i3 = measure (fun a -> Global_heap.is_large g a) in
  row "large-object test" l3 i3

(* --- One benchmark per paper table / figure ----------------------- *)

let run_workload ~machine ~policy ~n_vprocs ~name ~scale () =
  let spec = Option.get (Workloads.Registry.find name) in
  let cfg =
    {
      (Harness.Run_config.default ~machine ~n_vprocs) with
      Harness.Run_config.policy;
      scale;
    }
  in
  ignore (Harness.Run_config.execute spec cfg)

let bench_table1 =
  Test.make ~name:"table1/bandwidth-probe"
    (Staged.stage (fun () ->
         ignore
           (Harness.Membw.measure Numa.Machines.amd48 ~streamers:6 ~src_node:0
              ~dst_node:2 ~mb_per_streamer:2)))

let bench_fig4 =
  Test.make ~name:"fig4/intel-raytracer-x8"
    (Staged.stage
       (run_workload ~machine:Numa.Machines.intel32
          ~policy:Sim_mem.Page_policy.Local ~n_vprocs:8 ~name:"raytracer"
          ~scale:0.5))

let bench_fig5 =
  Test.make ~name:"fig5/amd-local-quicksort-x8"
    (Staged.stage
       (run_workload ~machine:Numa.Machines.amd48
          ~policy:Sim_mem.Page_policy.Local ~n_vprocs:8 ~name:"quicksort"
          ~scale:0.1))

let bench_fig6 =
  Test.make ~name:"fig6/amd-interleaved-smvm-x8"
    (Staged.stage
       (run_workload ~machine:Numa.Machines.amd48
          ~policy:Sim_mem.Page_policy.Interleaved ~n_vprocs:8 ~name:"smvm"
          ~scale:0.5))

let bench_fig7 =
  Test.make ~name:"fig7/amd-socket0-smvm-x8"
    (Staged.stage
       (run_workload ~machine:Numa.Machines.amd48
          ~policy:(Sim_mem.Page_policy.Single_node 0) ~n_vprocs:8 ~name:"smvm"
          ~scale:0.5))

let bench_figs_bh =
  Test.make ~name:"fig5/amd-local-barnes-hut-x8"
    (Staged.stage
       (run_workload ~machine:Numa.Machines.amd48
          ~policy:Sim_mem.Page_policy.Local ~n_vprocs:8 ~name:"barnes-hut"
          ~scale:0.1))

let tests =
  Test.make_grouped ~name:"manticore-numa-gc"
    [
      bench_alloc;
      bench_minor;
      bench_promote;
      bench_global_gc;
      bench_sched;
      bench_channels;
      bench_events;
      bench_mutation;
      bench_table1;
      bench_fig4;
      bench_fig5;
      bench_fig6;
      bench_fig7;
      bench_figs_bh;
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

(* --- --metrics-json: instrumented runs + telemetry export --------- *)

let metrics_main path =
  print_endline "Collector telemetry (instrumented runs, amd48 x16):";
  let runs =
    Harness.Figures.metrics_runs ~fast:true
      ~progress:(fun s -> Printf.printf "  [run] %s\n%!" s) ()
  in
  let merged = Metrics.create ~n_vprocs:0 () in
  List.iter
    (fun (_, (o : Harness.Run_config.outcome)) ->
      Metrics.merge ~into:merged o.Harness.Run_config.metrics)
    runs;
  let snap = Metrics.snapshot merged in
  let oc = open_out path in
  output_string oc (Metrics.snapshot_to_json snap);
  output_char oc '\n';
  close_out oc;
  print_newline ();
  Format.printf "%a@." Metrics.pp_summary snap;
  Printf.printf "wrote %s\n" path

(* --- --promote: promotion write-buffer micro-benchmark ------------- *)

(* Virtual-time cost of the scheduler's sharing points with the
   promotion write buffer on vs off (Sched.create ~batch_promotions).
   Three scenarios hit the three batching boundaries: env cells of one
   steal, runs of consecutive sends within a turn, and the send arms of
   one sync choice.  The simulator is deterministic given the seed, so
   the reported ratios are stable; BENCH_6.json checks in the metrics
   snapshot for CI to validate. *)

type prom_stats = {
  pr_cycles : int;  (* promotion cycles (each = one spin-up + publish) *)
  pr_values : int;  (* values that went through a batch *)
  pr_pause_ns : float;
  pr_bytes : int;
}

let prom_stats_of (ctx : Ctx.t) =
  let cycles = ref 0 and values = ref 0 and bytes = ref 0 in
  Array.iter
    (fun (mu : Ctx.mutator) ->
      let st = mu.Ctx.stats in
      cycles := !cycles + st.Gc_stats.promote_count;
      values := !values + st.Gc_stats.promote_batched_values;
      bytes := !bytes + st.Gc_stats.promoted_bytes)
    ctx.Ctx.muts;
  let agg = Metrics.aggregate ctx.Ctx.metrics in
  { pr_cycles = !cycles; pr_values = !values;
    pr_pause_ns = agg.Metrics.promotion.Metrics.pause_ns.Metrics.sum;
    pr_bytes = !bytes }

(* Steal-heavy fan-out: every work item carries a 4-cell environment, so
   each steal's claim batches four object graphs into one publish. *)
let promote_steal_fanout ~batch () =
  let ctx = mk_ctx ~n_vprocs:8 () in
  let rt = Sched.create ~batch_promotions:batch ~seed:11 ctx in
  ignore
    (Sched.run rt ~main:(fun m ->
         let futs =
           List.init 48 (fun i ->
               let cells =
                 Array.init 4 (fun j ->
                     Roots.add m.Ctx.roots
                       (Alloc.alloc_vector ctx m
                          [| Value.of_int i; Value.of_int j |]))
               in
               let fut =
                 Sched.spawn rt m
                   ~env:(Array.map Roots.get cells)
                   (fun m' _ ->
                     Ctx.charge_work ctx m' ~cycles:40_000.;
                     Value.of_int i)
               in
               Array.iter (fun c -> Roots.remove m.Ctx.roots c) cells;
               fut)
         in
         (* Stay busy while the seven thieves drain the deque: every
            item is then stolen (and its env promoted) in both modes,
            so the promoted bytes are schedule-independent. *)
         Ctx.charge_work ctx m ~cycles:4_000_000.;
         List.iter (fun f -> ignore (Sched.await rt m f)) futs;
         Value.unit));
  ctx

(* Message run: four consumers park on recv, so the producer delivers
   runs of sends inside one quantum — the per-turn write buffer batches
   them into one publish per run. *)
let promote_message_run ~batch () =
  let ctx = mk_ctx ~n_vprocs:4 () in
  let rt = Sched.create ~batch_promotions:batch ~seed:22 ctx in
  ignore
    (Sched.run rt ~main:(fun m ->
         let ch = Sched.new_channel rt m in
         let consumers =
           List.init 4 (fun _ ->
               Sched.spawn rt m ~env:[||] (fun m' _ ->
                   let s = ref 0 in
                   for _ = 1 to 16 do
                     ignore (Sched.recv rt m' ch);
                     incr s
                   done;
                   Value.of_int !s))
         in
         (* Let the consumers get stolen and park on [recv] first. *)
         Sched.yield rt m;
         for i = 1 to 64 do
           let msg =
             Alloc.alloc_vector ctx m
               [| Value.of_int i; Value.of_int (i * i) |]
           in
           Sched.send rt m ch msg
         done;
         List.iter (fun f -> ignore (Sched.await rt m f)) consumers;
         Value.unit));
  ctx

(* Sync choice: each round offers a fresh message on each of three
   channels; the three send arms publish as one batch per sync. *)
let promote_sync_choice ~batch () =
  let ctx = mk_ctx ~n_vprocs:4 () in
  let rt = Sched.create ~batch_promotions:batch ~seed:33 ctx in
  ignore
    (Sched.run rt ~main:(fun m ->
         let cha = Sched.new_channel rt m in
         let chb = Sched.new_channel rt m in
         let chc = Sched.new_channel rt m in
         let producer =
           Sched.spawn rt m ~env:[||] (fun m' _ ->
               for i = 1 to 32 do
                 let mk k =
                   Roots.add m'.Ctx.roots
                     (Alloc.alloc_vector ctx m'
                        [| Value.of_int i; Value.of_int k |])
                 in
                 let c1 = mk 1 in
                 let c2 = mk 2 in
                 let c3 = mk 3 in
                 ignore
                   (Sched.sync rt m'
                      [ Sched.Send_evt (cha, Roots.get c1);
                        Sched.Send_evt (chb, Roots.get c2);
                        Sched.Send_evt (chc, Roots.get c3) ]);
                 List.iter
                   (fun c -> Roots.remove m'.Ctx.roots c)
                   [ c1; c2; c3 ]
               done;
               Value.unit)
         in
         for _ = 1 to 32 do
           ignore (Sched.select rt m [ cha; chb; chc ])
         done;
         ignore (Sched.await rt m producer);
         Value.unit));
  ctx

let promote_main json_path =
  print_endline
    "Promotion write buffer: batched vs singleton publish (virtual time):";
  let scenarios =
    [ ("steal-fanout/4-cell-env", promote_steal_fanout);
      ("send-run/4-consumers", promote_message_run);
      ("sync-choice/3-channels", promote_sync_choice) ]
  in
  let merged = Metrics.create ~n_vprocs:0 () in
  Printf.printf "  %-24s %10s %10s %14s %12s\n" "" "cycles" "batched"
    "pause" "bytes";
  let meta = ref [] in
  let ok = ref true in
  List.iter
    (fun (name, run) ->
      let single_ctx = run ~batch:false () in
      let batched_ctx = run ~batch:true () in
      let s = prom_stats_of single_ctx in
      let b = prom_stats_of batched_ctx in
      Metrics.merge ~into:merged single_ctx.Ctx.metrics;
      Metrics.merge ~into:merged batched_ctx.Ctx.metrics;
      let row mode (st : prom_stats) =
        Printf.printf "  %-24s %10d %10d %11.0f ns %12d\n" mode st.pr_cycles
          st.pr_values st.pr_pause_ns st.pr_bytes
      in
      Printf.printf "  %s\n" name;
      row "    singleton" s;
      row "    batched" b;
      let cyc_ratio = float_of_int s.pr_cycles /. float_of_int b.pr_cycles in
      let pause_ratio = s.pr_pause_ns /. b.pr_pause_ns in
      Printf.printf "    %-22s %9.2fx %10s %12.2fx %12s\n" "reduction"
        cyc_ratio "" pause_ratio
        (if s.pr_bytes = b.pr_bytes then "(bytes =)"
         else Printf.sprintf "(bytes %+d)" (b.pr_bytes - s.pr_bytes));
      if cyc_ratio < 2.0 || pause_ratio < 2.0 then ok := false;
      meta :=
        ( name,
          Metrics.Json.Obj
            [ ("singleton_cycles", Metrics.Json.Num (float_of_int s.pr_cycles));
              ("batched_cycles", Metrics.Json.Num (float_of_int b.pr_cycles));
              ("singleton_pause_ns", Metrics.Json.Num s.pr_pause_ns);
              ("batched_pause_ns", Metrics.Json.Num b.pr_pause_ns);
              ("singleton_bytes", Metrics.Json.Num (float_of_int s.pr_bytes));
              ("batched_bytes", Metrics.Json.Num (float_of_int b.pr_bytes));
              ("cycle_reduction", Metrics.Json.Num cyc_ratio);
              ("pause_reduction", Metrics.Json.Num pause_ratio) ])
        :: !meta)
    scenarios;
  Printf.printf "  overall: %s (>= 2x cycle and pause reduction per scenario)\n"
    (if !ok then "PASS" else "FAIL");
  (match json_path with
  | None -> ()
  | Some path ->
      let snap = Metrics.snapshot merged in
      let json =
        match Metrics.Json.parse (Metrics.snapshot_to_json snap) with
        | Ok (Metrics.Json.Obj fields) ->
            Metrics.Json.Obj
              (fields
              @ [ ("bench", Metrics.Json.Str "promote");
                  ("scenarios", Metrics.Json.Obj (List.rev !meta)) ])
        | _ -> assert false
      in
      let oc = open_out path in
      output_string oc (Metrics.Json.to_string json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path);
  if not !ok then exit 1

(* --- --server: latency-SLO rate sweep (BENCH_7.json) --------------- *)

(* Open-loop arrival-rate sweep of the server workload: per-request
   latency percentiles next to GC pause percentiles at each swept rate,
   plus the share of slow-request (>= p99) in-flight time that overlaps
   a collection — reconstructed from the flight recorder exactly the
   way gcprof does it.  Self-check: the sweep must reach a GC-bound
   rate (slow requests mostly inside collections) while the lightest
   rate stays comfortable; otherwise exit 1, so CI catches a collector
   regression that either melts the SLO everywhere or never stresses
   the collector at all. *)

let server_load rate =
  { Workloads.Server.rate_rps = rate;
    n_requests = 768;
    n_sessions = 8;
    seed = 0xC0FFEE }

let server_rates = [ 50_000.; 200_000.; 500_000.; 1_000_000. ]

(* Collection windows per vproc from the event rings (begin/end pairs;
   orphans from ring overwrite are skipped). *)
let coll_windows (ctx : Ctx.t) =
  let r = ctx.Ctx.obs in
  let out = ref [] in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    let pending = Array.make 5 [] in
    let kindex = function
      | Obs.Event.Minor -> 0 | Obs.Event.Major -> 1
      | Obs.Event.Promotion -> 2 | Obs.Event.Global -> 3
      | Obs.Event.Barrier -> 4
    in
    List.iter
      (fun (_, t_ns, ev) ->
        match ev with
        | Obs.Event.Coll_begin { kind; _ } ->
            let k = kindex kind in
            pending.(k) <- t_ns :: pending.(k)
        | Obs.Event.Coll_end { kind; _ } -> (
            let k = kindex kind in
            match pending.(k) with
            | t0 :: rest ->
                pending.(k) <- rest;
                out := (t0, t_ns) :: !out
            | [] -> ())
        | _ -> ())
      (Obs.Recorder.events r ~vproc:v)
  done;
  !out

(* Completed-request windows [t_done - latency, t_done]. *)
let request_windows (ctx : Ctx.t) =
  let r = ctx.Ctx.obs in
  let out = ref [] in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    List.iter
      (fun (_, t_ns, ev) ->
        match ev with
        | Obs.Event.Req_done { latency_ns } ->
            out := (t_ns -. float_of_int latency_ns, t_ns) :: !out
        | _ -> ())
      (Obs.Recorder.events r ~vproc:v)
  done;
  !out

(* Share of the slow (>= p99 latency) requests' in-flight time covered
   by the union of collection windows on any vproc. *)
let slow_gc_share ctx reqs =
  let lats = Array.of_list (List.map (fun (lo, hi) -> hi -. lo) reqs) in
  Array.sort compare lats;
  let n = Array.length lats in
  if n = 0 then 0.
  else begin
    let p99 = lats.(max 0 (min (n - 1) ((99 * n / 100) + 1 - 1))) in
    let slow = List.filter (fun (lo, hi) -> hi -. lo >= p99) reqs in
    let colls = List.sort compare (coll_windows ctx) in
    let overlap (lo, hi) =
      let covered, _ =
        List.fold_left
          (fun (acc, cursor) (s, e) ->
            let s = Float.max (Float.max s cursor) lo
            and e = Float.min e hi in
            if e > s then (acc +. (e -. s), e) else (acc, cursor))
          (0., lo) colls
      in
      covered
    in
    let total = List.fold_left (fun a (lo, hi) -> a +. (hi -. lo)) 0. slow in
    let inside = List.fold_left (fun a w -> a +. overlap w) 0. slow in
    if total > 0. then inside /. total else 0.
  end

(* The declared objective the sweep is judged against: p99 of request
   latency over the last [slo_epochs] window epochs stays under 30 us.
   The threshold sits between the lightest rate's whole-run tail
   (p99.9 ~ 21 us at 50 krps) and the saturated rate's median
   (p50 ~ 101 us at 1 Mrps), so a healthy collector passes the light
   end and visibly burns at the heavy end. *)
let server_slo =
  {
    Metrics.slo_percentile = 0.99;
    slo_threshold_ns = 30_000.;
    slo_epochs = 8;
  }

let server_main json_path =
  print_endline
    "Latency-SLO server: open-loop arrival-rate sweep (virtual time):";
  Printf.printf "  %-12s %10s %10s %10s %10s %10s %8s %8s\n" "rate_rps" "p50"
    "p90" "p99" "p99.9" "pause_p99" "gc_share" "slo_burn";
  let merged = Metrics.create ~n_vprocs:0 () in
  let rows = ref [] in
  let gc_bound = ref None in
  let light_p99 = ref nan in
  let light_burn = ref nan and heavy_burn = ref nan in
  List.iter
    (fun rate ->
      let load = server_load rate in
      let ctx = mk_ctx ~n_vprocs:8 () in
      Metrics.set_slo ctx.Ctx.metrics (Some server_slo);
      let rt = Sched.create ~seed:5 ctx in
      let sum = ref 0. in
      ignore
        (Sched.run rt ~main:(fun m ->
             sum := Workloads.Server.run_load rt m load;
             Value.unit));
      if Float.abs (!sum -. Workloads.Server.expected_load load) > 1e-6 then begin
        Printf.eprintf "  checksum mismatch at rate %.0f\n" rate;
        exit 1
      end;
      let agg = Metrics.aggregate ctx.Ctx.metrics in
      let req = agg.Metrics.requests in
      if req.Metrics.count <> load.Workloads.Server.n_requests then begin
        Printf.eprintf "  dropped requests at rate %.0f: %d of %d\n" rate
          req.Metrics.count load.Workloads.Server.n_requests;
        exit 1
      end;
      (* Whole-machine pause distribution: merge the four kinds. *)
      let pause_p99 =
        List.fold_left
          (fun acc (ks : Metrics.kind_stats) ->
            Float.max acc ks.Metrics.pause_ns.Metrics.p99)
          0.
          [ agg.Metrics.minor; agg.Metrics.major; agg.Metrics.promotion;
            agg.Metrics.global ]
      in
      let share = slow_gc_share ctx (request_windows ctx) in
      let st =
        match Metrics.slo_status ctx.Ctx.metrics with
        | Some st -> st
        | None -> assert false (* the SLO was declared above *)
      in
      Metrics.merge ~into:merged ctx.Ctx.metrics;
      if Float.is_nan !light_p99 then light_p99 := req.Metrics.p99;
      if Float.is_nan !light_burn then light_burn := st.Metrics.st_burn_rate;
      heavy_burn := st.Metrics.st_burn_rate;
      if share >= 0.5 && !gc_bound = None then gc_bound := Some rate;
      Printf.printf
        "  %-12.0f %8.1fus %8.1fus %8.1fus %8.1fus %8.1fus %7.0f%% %8.2f\n"
        rate (req.Metrics.p50 /. 1e3) (req.Metrics.p90 /. 1e3)
        (req.Metrics.p99 /. 1e3) (req.Metrics.p999 /. 1e3)
        (pause_p99 /. 1e3) (100. *. share) st.Metrics.st_burn_rate;
      rows :=
        ( Printf.sprintf "%.0f" rate,
          Metrics.Json.Obj
            [ ("rate_rps", Metrics.Json.Num rate);
              ("n_requests", Metrics.Json.Num (float_of_int req.Metrics.count));
              ("p50_ns", Metrics.Json.Num req.Metrics.p50);
              ("p90_ns", Metrics.Json.Num req.Metrics.p90);
              ("p99_ns", Metrics.Json.Num req.Metrics.p99);
              ("p999_ns", Metrics.Json.Num req.Metrics.p999);
              ("pause_p99_ns", Metrics.Json.Num pause_p99);
              ("gc_overlap_share_slow", Metrics.Json.Num share);
              ("slo_burn_rate", Metrics.Json.Num st.Metrics.st_burn_rate);
              ( "slo_window_requests",
                Metrics.Json.Num (float_of_int st.Metrics.st_requests) );
              ( "slo_over_threshold",
                Metrics.Json.Num (float_of_int st.Metrics.st_over) );
              ("slo_attained_ns", Metrics.Json.Num st.Metrics.st_attained_ns)
            ] )
        :: !rows)
    server_rates;
  (* SLO gate: the objective must hold at the lightest rate and must be
     visibly burning at the saturated one — a sweep where either end
     fails cannot discriminate collector regressions. *)
  let slo_ok = !light_burn <= 1. && !heavy_burn > 1. in
  Printf.printf
    "  slo (p%g <= %.0fus over %d epochs): burn %.2f at %.0f rps, %.2f at \
     %.0f rps -> %s\n"
    (100. *. server_slo.Metrics.slo_percentile)
    (server_slo.Metrics.slo_threshold_ns /. 1e3)
    server_slo.Metrics.slo_epochs !light_burn (List.hd server_rates)
    !heavy_burn
    (List.nth server_rates (List.length server_rates - 1))
    (if slo_ok then "PASS" else "FAIL");
  let ok =
    match !gc_bound with
    | Some r ->
        Printf.printf
          "  overall: PASS (GC-bound from %.0f rps: slow requests spend >= \
           50%% of their in-flight time inside collections)\n"
          r;
        true
    | None ->
        Printf.printf
          "  overall: FAIL (no swept rate is GC-bound — collector never \
           dominates the latency tail)\n";
        false
  in
  (match json_path with
  | None -> ()
  | Some path ->
      let snap = Metrics.snapshot merged in
      let json =
        match Metrics.Json.parse (Metrics.snapshot_to_json snap) with
        | Ok (Metrics.Json.Obj fields) ->
            Metrics.Json.Obj
              (fields
              @ [ ("bench", Metrics.Json.Str "server");
                  ( "gc_bound_rate",
                    match !gc_bound with
                    | Some r -> Metrics.Json.Num r
                    | None -> Metrics.Json.Null );
                  ( "slo",
                    Metrics.Json.Obj
                      [ ( "percentile",
                          Metrics.Json.Num server_slo.Metrics.slo_percentile );
                        ( "threshold_ns",
                          Metrics.Json.Num server_slo.Metrics.slo_threshold_ns
                        );
                        ( "epochs",
                          Metrics.Json.Num
                            (float_of_int server_slo.Metrics.slo_epochs) )
                      ] );
                  ("rates", Metrics.Json.Obj (List.rev !rows)) ])
        | _ -> assert false
      in
      let oc = open_out path in
      output_string oc (Metrics.Json.to_string json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path);
  if not (ok && slo_ok) then exit 1

(* --- --global: stop-the-world vs concurrent global collection ----- *)

(* The headline bounded-pause comparison (BENCH_8.json): the same work
   under both global-collection modes.  Each mode gets one machine that
   first retains a multi-megabyte global linked structure — built
   round-robin across the vprocs so every clock advances together and
   the budget-triggered global cycles have real data to move — and then
   serves a saturating request load with the budget tightened so at
   least one full cycle lands mid-load.  The collector choice must not
   change program results: the ballast traversal sum and the server
   checksum are asserted identical across modes.  The gate is the
   whole-machine p99.9 pause (max over all pause kinds, barrier waits
   included): concurrent must cut it by at least 5x while both modes
   run real cycles over the same heap. *)

(* ~10 MB of retained cons cells: 8 chains, 100 cells per rotation. *)
let global_ballast_rotations = 4_380
let global_server_rate = 1_000_000.

(* Parallel evacuation slices for the headline concurrent config; the
   ablation (concurrent_serial) pins 1.  Overridable with
   --conc-parallel-slices. *)
let default_conc_slices = 2

let global_run_mode ?(dirty_only = true) ?(slices = 1) mode =
  let n_vprocs = 8 in
  let params =
    {
      small_params with
      Params.global_gc_mode = mode;
      conc_ratify_dirty_only = dirty_only;
      conc_parallel_slices = slices;
      (* Start tight so cycles fire early; each ratify re-arms the
         budget at 2x the live bytes, spreading cycles across the
         build. *)
      global_budget_per_vproc = 8 * 1024;
    }
  in
  let ctx =
    Ctx.create ~params ~machine:Numa.Machines.amd48 ~n_vprocs
      ~policy:Sim_mem.Page_policy.Local ()
  in
  Global_gc.install_sync_hook ctx;
  (* Phase 1: build the ballast.  Direct mutator turns, round-robin, so
     all eight clocks stay within one turn of each other — a barrier
     sync then measures collector work, not simulated idleness. *)
  let keeps =
    Array.init n_vprocs (fun v ->
        let m = Ctx.mutator ctx v in
        Roots.add m.Ctx.roots (Value.of_int 0))
  in
  let build_sum = ref 0. in
  for turn = 0 to global_ballast_rotations - 1 do
    let v = turn mod n_vprocs in
    let m = Ctx.mutator ctx v in
    for i = 1 to 100 do
      build_sum := !build_sum +. float_of_int i;
      Roots.set keeps.(v)
        (Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get keeps.(v) |])
    done;
    Roots.set keeps.(v) (Promote.value ctx m (Roots.get keeps.(v)))
  done;
  (* Complete any in-flight cycle so both modes traverse a quiesced
     heap. *)
  if Concurrent_gc.active ctx then Concurrent_gc.finish ctx;
  (* Phase 2: traverse every chain through whatever the cycles left
     behind — the sum must match what was built, or evacuation lost
     data. *)
  let traverse_sum = ref 0. in
  Array.iteri
    (fun v keep ->
      let m = Ctx.mutator ctx v in
      let cursor = ref (Roots.get keep) in
      while Value.is_ptr !cursor do
        let p = Value.to_ptr (Ctx.resolve ctx m !cursor) in
        let f0 = Value.of_word (Ctx.read_word ctx m (Obj_repr.field_addr p 0)) in
        traverse_sum := !traverse_sum +. float_of_int (Value.to_int f0);
        cursor := Value.of_word (Ctx.read_word ctx m (Obj_repr.field_addr p 1))
      done)
    keeps;
  if Float.abs (!traverse_sum -. !build_sum) > 1e-6 then begin
    Printf.eprintf "  ballast traversal mismatch: built %.0f, found %.0f\n"
      !build_sum !traverse_sum;
    exit 1
  end;
  (* Phase 3: tighten the budget back down so the request load triggers
     full cycles over the live ballast — the headline scenario: a
     multi-megabyte collection landing mid-service. *)
  Ctx.set_global_budget ctx
    (Global_heap.in_use_bytes ctx.Ctx.global + (64 * 1024));
  let load = server_load global_server_rate in
  let rt = Sched.create ~seed:5 ctx in
  let sum = ref 0. in
  ignore
    (Sched.run rt ~main:(fun m ->
         sum := Workloads.Server.run_load rt m load;
         Value.unit));
  if Float.abs (!sum -. Workloads.Server.expected_load load) > 1e-6 then begin
    Printf.eprintf "  server checksum mismatch\n";
    exit 1
  end;
  let agg = Metrics.aggregate ctx.Ctx.metrics in
  let req = agg.Metrics.requests in
  if req.Metrics.count <> load.Workloads.Server.n_requests then begin
    Printf.eprintf "  dropped requests: %d of %d\n" req.Metrics.count
      load.Workloads.Server.n_requests;
    exit 1
  end;
  let pause_p999 =
    List.fold_left
      (fun acc (ks : Metrics.kind_stats) ->
        Float.max acc ks.Metrics.pause_ns.Metrics.p999)
      0.
      [ agg.Metrics.minor; agg.Metrics.major; agg.Metrics.promotion;
        agg.Metrics.global; agg.Metrics.barrier ]
  in
  if Sys.getenv_opt "GLOBAL_BENCH_DEBUG" <> None then
    Printf.printf
      "    minor %.1f major %.1f promo %.1f global %.1f barrier %.1f (us, \
       p999)\n"
      (agg.Metrics.minor.Metrics.pause_ns.Metrics.p999 /. 1e3)
      (agg.Metrics.major.Metrics.pause_ns.Metrics.p999 /. 1e3)
      (agg.Metrics.promotion.Metrics.pause_ns.Metrics.p999 /. 1e3)
      (agg.Metrics.global.Metrics.pause_ns.Metrics.p999 /. 1e3)
      (agg.Metrics.barrier.Metrics.pause_ns.Metrics.p999 /. 1e3);
  let makespan =
    Array.fold_left
      (fun acc (m : Ctx.mutator) -> Float.max acc m.Ctx.now_ns)
      0. ctx.Ctx.muts
  in
  ( [ !traverse_sum; !sum ],
    ctx.Ctx.stats.Gc_stats.global_count,
    pause_p999,
    agg.Metrics.global.Metrics.pause_ns.Metrics.max,
    agg.Metrics.barrier.Metrics.pause_ns.Metrics.p999,
    req.Metrics.p999,
    makespan,
    ctx.Ctx.metrics )

let global_main ?(slices = default_conc_slices) json_path =
  print_endline
    "Global collection: stop-the-world vs concurrent (virtual time):";
  Printf.printf "  %-12s %8s %14s %14s %14s %14s %12s\n" "mode" "cycles"
    "pause_p99.9" "global_max" "barrier_p99.9" "req_p99.9" "makespan";
  let report name (_, cycles, p999, gmax, b999, req999, mk, _) =
    Printf.printf "  %-12s %8d %12.1fus %12.1fus %12.1fus %12.1fus %10.1fms\n"
      name cycles (p999 /. 1e3) (gmax /. 1e3) (b999 /. 1e3) (req999 /. 1e3)
      (mk /. 1e6)
  in
  let stw = global_run_mode Params.Stw in
  report "stw" stw;
  let conc = global_run_mode ~slices Params.Concurrent in
  report "concurrent" conc;
  (* Ablation: the fully serial concurrent collector (every vproc
     stopped at every ratify, one slice per turn) — what the barrier
     gate below measures the dirty-only ratify against. *)
  let serial = global_run_mode ~dirty_only:false ~slices:1 Params.Concurrent in
  report "conc-serial" serial;
  let sums_s, cyc_s, p999_s, gmax_s, b999_s, req_s, mk_s, metrics_s = stw in
  let sums_c, cyc_c, p999_c, gmax_c, b999_c, req_c, mk_c, metrics_c = conc in
  let sums_l, cyc_l, p999_l, gmax_l, b999_l, req_l, mk_l, metrics_l = serial in
  let sums_equal =
    List.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-6) sums_s sums_c
    && List.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-6) sums_s sums_l
  in
  let ratio = if p999_c > 0. then p999_s /. p999_c else infinity in
  (* Dirty-only ratify can drive the barrier-wait p99.9 to literally
     zero (single-vproc ratifies wait on nobody); floor the denominator
     at 1 ns so the ratio stays finite and JSON-representable. *)
  let barrier_ratio = b999_l /. Float.max b999_c 1. in
  Printf.printf "  pause p99.9 ratio (stw/concurrent): %.1fx\n" ratio;
  Printf.printf "  barrier p99.9 ratio (conc-serial/concurrent): %.1fx\n"
    barrier_ratio;
  let ok =
    if not sums_equal then begin
      print_endline "  overall: FAIL (modes computed different checksums)";
      false
    end
    else if cyc_s = 0 || cyc_c = 0 || cyc_l = 0 then begin
      Printf.printf
        "  overall: FAIL (a mode ran no global cycles: stw=%d concurrent=%d \
         conc-serial=%d)\n"
        cyc_s cyc_c cyc_l;
      false
    end
    else if ratio < 5. then begin
      Printf.printf
        "  overall: FAIL (concurrent p99.9 pause only %.1fx below STW, \
         need >= 5x)\n"
        ratio;
      false
    end
    else if barrier_ratio < 5. then begin
      Printf.printf
        "  overall: FAIL (dirty-only ratify cut barrier p99.9 only %.1fx \
         below the serial concurrent collector, need >= 5x)\n"
        barrier_ratio;
      false
    end
    else begin
      print_endline
        "  overall: PASS (same results, all modes collected, concurrent \
         p99.9 pause >= 5x below STW, barrier p99.9 >= 5x below serial)";
      true
    end
  in
  (match json_path with
  | None -> ()
  | Some path ->
      let mode_obj cycles p999 gmax b999 req999 mk metrics =
        let snap =
          match
            Metrics.Json.parse
              (Metrics.snapshot_to_json (Metrics.snapshot metrics))
          with
          | Ok j -> j
          | Error _ -> assert false
        in
        Metrics.Json.Obj
          [ ("global_cycles", Metrics.Json.Num (float_of_int cycles));
            ("pause_p999_ns", Metrics.Json.Num p999);
            ("global_pause_max_ns", Metrics.Json.Num gmax);
            ("barrier_p999_ns", Metrics.Json.Num b999);
            ("request_p999_ns", Metrics.Json.Num req999);
            ("makespan_ns", Metrics.Json.Num mk);
            ("metrics", snap) ]
      in
      let json =
        Metrics.Json.Obj
          [ ("bench", Metrics.Json.Str "global");
            ("rate_rps", Metrics.Json.Num global_server_rate);
            ("conc_parallel_slices", Metrics.Json.Num (float_of_int slices));
            ("checksums_equal", Metrics.Json.Bool sums_equal);
            ("pause_p999_ratio", Metrics.Json.Num ratio);
            ("barrier_p999_ratio", Metrics.Json.Num barrier_ratio);
            ("stw", mode_obj cyc_s p999_s gmax_s b999_s req_s mk_s metrics_s);
            ( "concurrent",
              mode_obj cyc_c p999_c gmax_c b999_c req_c mk_c metrics_c );
            ( "concurrent_serial",
              mode_obj cyc_l p999_l gmax_l b999_l req_l mk_l metrics_l ) ]
      in
      let oc = open_out path in
      output_string oc (Metrics.Json.to_string json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path);
  if not ok then exit 1

(* --- --obs-overhead: flight-recorder cost ------------------------- *)

(* Host CPU time with the recorder off, on, and on with the OpenMetrics
   telemetry stream armed (one exposition per 1 ms of virtual time),
   over the same workloads.  Each repetition runs the three legs back to
   back on every workload, each after a full host major collection, so
   the legs of one repetition see the same host state; a leg's overhead
   is the median, over the repetitions, of its paired ratio to the
   recorder-off leg.  The acceptance budget for keeping the recorder
   always-on is < 5% (EXPERIMENTS.md records the measured number), and
   the streaming leg is gated against it here — exit 1 when telemetry
   costs >= 5% over the recorder-off baseline. *)
let obs_overhead_main () =
  let reps = 31 in
  Printf.printf
    "Flight-recorder overhead (host CPU time, median of %d paired \
     repetitions):\n"
    reps;
  let workloads =
    [| ("quicksort", 0.2); ("barnes-hut", 0.1); ("raytracer", 0.5) |]
  in
  let stream_path = Filename.temp_file "gcsim-telemetry" ".txt" in
  let legs = [| (false, false); (true, false); (true, true) |] in
  let time_run (obs_enabled, streaming) (name, scale) =
    let spec = Option.get (Workloads.Registry.find name) in
    let cfg =
      {
        (Harness.Run_config.default ~machine:Numa.Machines.amd48 ~n_vprocs:8) with
        Harness.Run_config.scale;
        obs_enabled;
        telemetry = (if streaming then Some (stream_path, 1e6) else None);
      }
    in
    Gc.full_major ();
    let t0 = Sys.time () in
    ignore (Harness.Run_config.execute spec cfg);
    Sys.time () -. t0
  in
  (* times.(w).(leg).(rep) *)
  let times =
    Array.map (fun _ -> Array.make_matrix (Array.length legs) reps 0.) workloads
  in
  for r = 0 to reps - 1 do
    Array.iteri
      (fun w wl ->
        Array.iteri (fun l leg -> times.(w).(l).(r) <- time_run leg wl) legs)
      workloads
  done;
  Sys.remove stream_path;
  (* The median over repetitions of [f rep]. *)
  let median f =
    let a = Array.init reps f in
    Array.sort compare a;
    a.(reps / 2)
  in
  (* Leg [l]'s time in repetition [r], summed over workloads [ws]. *)
  let total ws l r = List.fold_left (fun a w -> a +. times.(w).(l).(r)) 0. ws in
  (* Leg [l]'s overhead over [ws], in percent: the median of its
     per-repetition paired ratio to the recorder-off leg. *)
  let overhead ws l =
    (median (fun r -> total ws l r /. total ws 0 r) -. 1.) *. 100.
  in
  let row name ws =
    let ms l = median (total ws l) *. 1e3 in
    Printf.printf "  %-14s %10.1f ms %10.1f ms %10.1f ms %8.2f%% %8.2f%%\n" name
      (ms 0) (ms 1) (ms 2) (overhead ws 1) (overhead ws 2)
  in
  Printf.printf "  %-14s %12s %12s %12s %9s %9s\n" "" "recorder off"
    "recorder on" "+streaming" "overhead" "stream%";
  Array.iteri (fun w (name, _) -> row name [ w ]) workloads;
  let all = List.init (Array.length workloads) Fun.id in
  row "total" all;
  let stream_overhead = overhead all 2 in
  if stream_overhead >= 5. then begin
    Printf.printf
      "  FAIL: telemetry streaming costs %.2f%% over the recorder-off \
       baseline (budget: < 5%%)\n"
      stream_overhead;
    exit 1
  end
  else
    Printf.printf
      "  PASS: always-on recorder + telemetry stream within the 5%% budget \
       (%.2f%%)\n"
      stream_overhead

let bechamel_main () =
  print_endline "Host-side cost of the simulator (bechamel, monotonic clock):";
  let results = benchmark () in
  let table = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-45s %14.1f ns/run\n" name est
      | _ -> Printf.printf "  %-45s (no estimate)\n" name)
    (List.sort compare rows);
  print_newline ();
  (* The actual paper artifacts, at CI scale: every table and figure. *)
  print_endline "Regenerating the paper's evaluation (fast scales) — see";
  print_endline "EXPERIMENTS.md and `experiments all` for the full versions:";
  print_newline ();
  print_endline (Harness.Figures.table1 ~fast:true ());
  print_endline (Harness.Figures.fig4 ~fast:true ());
  print_endline (Harness.Figures.fig5 ~fast:true ());
  print_endline (Harness.Figures.fig6 ~fast:true ());
  print_endline (Harness.Figures.fig7 ~fast:true ());
  print_endline (Harness.Figures.gc_report ~fast:true ())

let main mode json slices =
  match (mode, json, slices) with
  | `Global, _, Some n when n < 1 ->
      `Error (false, "--conc-parallel-slices must be at least 1")
  | `Global, json, slices -> `Ok (global_main ?slices json)
  | _, _, Some _ ->
      `Error (true, "--conc-parallel-slices applies to --global only")
  | `Default, None, None -> `Ok (bechamel_main ())
  | `Default, Some path, None -> `Ok (metrics_main path)
  | `Promote, json, None -> `Ok (promote_main json)
  | `Server, json, None -> `Ok (server_main json)
  | `Classify, None, None -> `Ok (classify_main ())
  | `Obs_overhead, None, None -> `Ok (obs_overhead_main ())
  | (`Classify | `Obs_overhead), Some _, None ->
      `Error (true, "--metrics-json does not apply to this mode")

let () =
  let open Cmdliner in
  let mode =
    Arg.(
      value
      & vflag `Default
          [
            ( `Classify,
              info [ "classify" ] ~doc:"Page-classification microbenchmark." );
            ( `Obs_overhead,
              info [ "obs-overhead" ]
                ~doc:"Flight-recorder and streaming overhead; fails at 5%." );
            ( `Promote,
              info [ "promote" ] ~doc:"Promotion write-buffer bench (BENCH_6)." );
            ( `Server,
              info [ "server" ] ~doc:"Latency-SLO server sweep (BENCH_7)." );
            ( `Global,
              info [ "global" ]
                ~doc:"STW vs concurrent global collection (BENCH_8)." );
          ])
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the mode's metrics JSON; without a mode, run the \
             instrumented collector-telemetry runs instead of bechamel.")
  in
  let slices =
    Arg.(
      value
      & opt (some int) None
      & info [ "conc-parallel-slices" ] ~docv:"N"
          ~doc:"Evacuation slices per collector turn under $(b,--global).")
  in
  let info =
    Cmd.info "main"
      ~doc:"Host-cost benchmarks and the BENCH_6/7/8 virtual-time artifacts"
  in
  exit (Cmd.eval (Cmd.v info Term.(ret (const main $ mode $ json $ slices))))
