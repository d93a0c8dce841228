(* The checked-in virtual-time artifacts of the collector's extensions,
   one mode each:

     --promote   promotion write buffer, batched vs singleton (BENCH_6)
     --server    latency-SLO arrival-rate sweep (BENCH_7)
     --global    stop-the-world vs concurrent global collection (BENCH_8)

   With --metrics-json FILE a mode writes its artifact; every run prints
   its table.  The artifacts' gates are judged once, over the file, by
   `validate_metrics --promote | --server | --global`.  A mode exits 1
   only when the run itself went wrong: a wrong checksum or a lost
   request.  --obs-overhead is the host-time budget of the flight
   recorder and telemetry stream; it writes no artifact and fails at
   5%.

   Run:  dune exec bench/main.exe -- --server --metrics-json bench7.json *)

open Heap
open Manticore_gc
open Runtime
module J = Metrics.Json

let small_params =
  {
    Params.default with
    Params.capacity_bytes = 64 * 1024 * 1024;
    local_heap_bytes = 32 * 1024;
    chunk_bytes = 8 * 1024;
    nursery_min_bytes = 4 * 1024;
    global_budget_per_vproc = 128 * 1024;
  }

let mk_ctx ~n_vprocs =
  let ctx =
    Ctx.create ~params:small_params ~machine:Numa.Machines.amd48 ~n_vprocs
      ~policy:Sim_mem.Page_policy.Local ()
  in
  Global_gc.install_sync_hook ctx;
  ctx

let snapshot_json metrics =
  match J.parse (Metrics.snapshot_to_json (Metrics.snapshot metrics)) with
  | Ok j -> j
  | Error _ -> assert false

(* An artifact that extends [metrics]' snapshot with [fields]. *)
let with_snapshot metrics fields =
  match snapshot_json metrics with
  | J.Obj snap -> J.Obj (snap @ fields)
  | _ -> assert false

let write_artifact json_path json =
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (J.to_string json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path)
    json_path

(* --- --promote: promotion write-buffer micro-benchmark ------------- *)

(* Virtual-time cost of the scheduler's sharing points with the
   promotion write buffer on vs off (Sched.create ~batch_promotions).
   Three scenarios hit the three batching boundaries: env cells of one
   steal, runs of consecutive sends within a turn, and the send arms of
   one sync choice.  The simulator is deterministic given the seed, so
   the reported ratios are stable. *)

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
  let ctx = mk_ctx ~n_vprocs:8 in
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
  let ctx = mk_ctx ~n_vprocs:4 in
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
  let ctx = mk_ctx ~n_vprocs:4 in
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
  let meta =
    List.map
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
        ( name,
          J.Obj
            [ ("singleton_cycles", J.Num (float_of_int s.pr_cycles));
              ("batched_cycles", J.Num (float_of_int b.pr_cycles));
              ("singleton_pause_ns", J.Num s.pr_pause_ns);
              ("batched_pause_ns", J.Num b.pr_pause_ns);
              ("singleton_bytes", J.Num (float_of_int s.pr_bytes));
              ("batched_bytes", J.Num (float_of_int b.pr_bytes));
              ("cycle_reduction", J.Num cyc_ratio);
              ("pause_reduction", J.Num pause_ratio) ] ))
      scenarios
  in
  write_artifact json_path
    (with_snapshot merged
       [ ("bench", J.Str "promote"); ("scenarios", J.Obj meta) ])

(* --- --server: latency-SLO rate sweep (BENCH_7.json) --------------- *)

(* Open-loop arrival-rate sweep of the server workload: per-request
   latency percentiles next to GC pause percentiles at each swept rate,
   plus the share of slow-request (>= p99) in-flight time that overlaps
   a collection, read from the flight recorder as gcprof reads a dump.
   The first rate where that share reaches one half is the GC-bound
   rate. *)

let server_load rate =
  { Workloads.Server.rate_rps = rate;
    n_requests = 768;
    n_sessions = 8;
    seed = 0xC0FFEE }

let server_rates = [ 50_000.; 200_000.; 500_000.; 1_000_000. ]

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

(* Serve [load] on [ctx] under a fresh scheduler and return its
   checksum and aggregate metrics; exit 1 when the run computed the
   wrong checksum or lost a request. *)
let serve ctx load =
  let rt = Sched.create ~seed:5 ctx in
  let sum = ref 0. in
  ignore
    (Sched.run rt ~main:(fun m ->
         sum := Workloads.Server.run_load rt m load;
         Value.unit));
  let rate = load.Workloads.Server.rate_rps in
  if Float.abs (!sum -. Workloads.Server.expected_load load) > 1e-6 then begin
    Printf.eprintf "  server checksum mismatch at rate %.0f\n" rate;
    exit 1
  end;
  let agg = Metrics.aggregate ctx.Ctx.metrics in
  let served = agg.Metrics.requests.Metrics.count in
  if served <> load.Workloads.Server.n_requests then begin
    Printf.eprintf "  dropped requests at rate %.0f: %d of %d\n" rate served
      load.Workloads.Server.n_requests;
    exit 1
  end;
  (!sum, agg)

(* The worst of [field] over the pause kinds [kinds]. *)
let worst_pause field kinds =
  List.fold_left
    (fun acc (ks : Metrics.kind_stats) ->
      Float.max acc (field ks.Metrics.pause_ns))
    0. kinds

let server_main json_path =
  print_endline
    "Latency-SLO server: open-loop arrival-rate sweep (virtual time):";
  Printf.printf "  %-12s %10s %10s %10s %10s %10s %8s %8s\n" "rate_rps" "p50"
    "p90" "p99" "p99.9" "pause_p99" "gc_share" "slo_burn";
  let merged = Metrics.create ~n_vprocs:0 () in
  let rows =
    List.map
      (fun rate ->
        let ctx = mk_ctx ~n_vprocs:8 in
        Metrics.set_slo ctx.Ctx.metrics (Some server_slo);
        let _, agg = serve ctx (server_load rate) in
        let req = agg.Metrics.requests in
        (* Whole-machine pause distribution: merge the four kinds. *)
        let pause_p99 =
          worst_pause
            (fun d -> d.Metrics.p99)
            [ agg.Metrics.minor; agg.Metrics.major; agg.Metrics.promotion;
              agg.Metrics.global ]
        in
        let colls, _ = Gc_trace.of_recorder ctx.Ctx.obs in
        let share =
          Gc_trace.gc_overlap_share colls
            (Gc_trace.slow_requests (Gc_trace.request_windows ctx.Ctx.obs))
        in
        let st = Option.get (Metrics.slo_status ctx.Ctx.metrics) in
        Metrics.merge ~into:merged ctx.Ctx.metrics;
        Printf.printf
          "  %-12.0f %8.1fus %8.1fus %8.1fus %8.1fus %8.1fus %7.0f%% %8.2f\n"
          rate (req.Metrics.p50 /. 1e3) (req.Metrics.p90 /. 1e3)
          (req.Metrics.p99 /. 1e3) (req.Metrics.p999 /. 1e3)
          (pause_p99 /. 1e3) (100. *. share) st.Metrics.st_burn_rate;
        ( rate,
          share,
          J.Obj
            [ ("rate_rps", J.Num rate);
              ("n_requests", J.Num (float_of_int req.Metrics.count));
              ("p50_ns", J.Num req.Metrics.p50);
              ("p90_ns", J.Num req.Metrics.p90);
              ("p99_ns", J.Num req.Metrics.p99);
              ("p999_ns", J.Num req.Metrics.p999);
              ("pause_p99_ns", J.Num pause_p99);
              ("gc_overlap_share_slow", J.Num share);
              ("slo_burn_rate", J.Num st.Metrics.st_burn_rate);
              ( "slo_window_requests",
                J.Num (float_of_int st.Metrics.st_requests) );
              ("slo_over_threshold", J.Num (float_of_int st.Metrics.st_over));
              ("slo_attained_ns", J.Num st.Metrics.st_attained_ns) ] ))
      server_rates
  in
  let gc_bound_rate =
    match List.find_opt (fun (_, share, _) -> share >= 0.5) rows with
    | Some (rate, _, _) -> J.Num rate
    | None -> J.Null
  in
  write_artifact json_path
    (with_snapshot merged
       [ ("bench", J.Str "server");
         ("gc_bound_rate", gc_bound_rate);
         ( "slo",
           J.Obj
             [ ("percentile", J.Num server_slo.Metrics.slo_percentile);
               ("threshold_ns", J.Num server_slo.Metrics.slo_threshold_ns);
               ("epochs", J.Num (float_of_int server_slo.Metrics.slo_epochs))
             ] );
         ( "rates",
           J.Obj
             (List.map
                (fun (rate, _, row) -> (Printf.sprintf "%.0f" rate, row))
                rows) ) ])

(* --- --global: stop-the-world vs concurrent global collection ----- *)

(* The headline bounded-pause comparison (BENCH_8.json): the same work
   under both global-collection modes.  Each mode gets one machine that
   first retains a multi-megabyte global linked structure — built
   round-robin across the vprocs so every clock advances together and
   the budget-triggered global cycles have real data to move — and then
   serves a saturating request load with the budget tightened so at
   least one full cycle lands mid-load.  The collector choice must not
   change program results, so the artifact records whether the ballast
   traversal sums and server checksums agree across modes.  Its pause
   ratio compares the whole-machine p99.9 pause (max over all pause
   kinds, barrier waits included) of STW and concurrent collection. *)

(* ~10 MB of retained cons cells: 8 chains, 100 cells per rotation. *)
let global_ballast_rotations = 4_380
let global_server_rate = 1_000_000.

(* Parallel evacuation slices for the headline concurrent config; the
   ablation (concurrent_serial) pins 1.  Overridable with
   --conc-parallel-slices. *)
let default_conc_slices = 2

type mode_run = {
  traverse_sum : float;  (* the ballast, summed by walking it *)
  server_sum : float;
  cycles : int;
  pause_p999 : float;  (* whole machine, every pause kind *)
  global_max : float;
  barrier_p999 : float;
  request_p999 : float;
  makespan : float;
  metrics : Metrics.t;
}

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
  let server_sum, agg = serve ctx (server_load global_server_rate) in
  {
    traverse_sum = !traverse_sum;
    server_sum;
    cycles = ctx.Ctx.stats.Gc_stats.global_count;
    pause_p999 =
      worst_pause
        (fun d -> d.Metrics.p999)
        [ agg.Metrics.minor; agg.Metrics.major; agg.Metrics.promotion;
          agg.Metrics.global; agg.Metrics.barrier ];
    global_max = agg.Metrics.global.Metrics.pause_ns.Metrics.max;
    barrier_p999 = agg.Metrics.barrier.Metrics.pause_ns.Metrics.p999;
    request_p999 = agg.Metrics.requests.Metrics.p999;
    makespan =
      Array.fold_left
        (fun acc (m : Ctx.mutator) -> Float.max acc m.Ctx.now_ns)
        0. ctx.Ctx.muts;
    metrics = ctx.Ctx.metrics;
  }

let global_main ?(slices = default_conc_slices) json_path =
  print_endline
    "Global collection: stop-the-world vs concurrent (virtual time):";
  Printf.printf "  %-12s %8s %14s %14s %14s %14s %12s\n" "mode" "cycles"
    "pause_p99.9" "global_max" "barrier_p99.9" "req_p99.9" "makespan";
  let run name ?dirty_only ?slices mode =
    let r = global_run_mode ?dirty_only ?slices mode in
    Printf.printf "  %-12s %8d %12.1fus %12.1fus %12.1fus %12.1fus %10.1fms\n"
      name r.cycles (r.pause_p999 /. 1e3) (r.global_max /. 1e3)
      (r.barrier_p999 /. 1e3) (r.request_p999 /. 1e3) (r.makespan /. 1e6);
    r
  in
  let stw = run "stw" Params.Stw in
  let conc = run "concurrent" ~slices Params.Concurrent in
  (* Ablation: the fully serial concurrent collector (every vproc
     stopped at every ratify, one slice per turn) — what the barrier
     ratio measures the dirty-only ratify against. *)
  let serial =
    run "conc-serial" ~dirty_only:false ~slices:1 Params.Concurrent
  in
  let same a b =
    Float.abs (a.traverse_sum -. b.traverse_sum) <= 1e-6
    && Float.abs (a.server_sum -. b.server_sum) <= 1e-6
  in
  let ratio =
    if conc.pause_p999 > 0. then stw.pause_p999 /. conc.pause_p999
    else infinity
  in
  (* Dirty-only ratify can drive the barrier-wait p99.9 to literally
     zero (single-vproc ratifies wait on nobody); floor the denominator
     at 1 ns so the ratio stays finite and JSON-representable. *)
  let barrier_ratio = serial.barrier_p999 /. Float.max conc.barrier_p999 1. in
  Printf.printf "  pause p99.9 ratio (stw/concurrent): %.1fx\n" ratio;
  Printf.printf "  barrier p99.9 ratio (conc-serial/concurrent): %.1fx\n"
    barrier_ratio;
  let mode_obj r =
    J.Obj
      [ ("global_cycles", J.Num (float_of_int r.cycles));
        ("pause_p999_ns", J.Num r.pause_p999);
        ("global_pause_max_ns", J.Num r.global_max);
        ("barrier_p999_ns", J.Num r.barrier_p999);
        ("request_p999_ns", J.Num r.request_p999);
        ("makespan_ns", J.Num r.makespan);
        ("metrics", snapshot_json r.metrics) ]
  in
  write_artifact json_path
    (J.Obj
       [ ("bench", J.Str "global");
         ("rate_rps", J.Num global_server_rate);
         ("conc_parallel_slices", J.Num (float_of_int slices));
         ("checksums_equal", J.Bool (same stw conc && same stw serial));
         ("pause_p999_ratio", J.Num ratio);
         ("barrier_p999_ratio", J.Num barrier_ratio);
         ("stw", mode_obj stw);
         ("concurrent", mode_obj conc);
         ("concurrent_serial", mode_obj serial) ])

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
let main mode json slices =
  match (mode, json, slices) with
  | None, _, _ ->
      `Error
        (true, "choose a mode: --promote, --server, --global or --obs-overhead")
  | Some `Global, _, Some n when n < 1 ->
      `Error (false, "--conc-parallel-slices must be at least 1")
  | Some `Global, json, slices -> `Ok (global_main ?slices json)
  | Some _, _, Some _ ->
      `Error (true, "--conc-parallel-slices applies to --global only")
  | Some `Promote, json, None -> `Ok (promote_main json)
  | Some `Server, json, None -> `Ok (server_main json)
  | Some `Obs_overhead, None, None -> `Ok (obs_overhead_main ())
  | Some `Obs_overhead, Some _, None ->
      `Error (true, "--metrics-json does not apply to --obs-overhead")

let () =
  let open Cmdliner in
  let mode =
    Arg.(
      value
      & vflag None
          [
            ( Some `Promote,
              info [ "promote" ] ~doc:"Promotion write-buffer bench (BENCH_6)." );
            ( Some `Server,
              info [ "server" ] ~doc:"Latency-SLO server sweep (BENCH_7)." );
            ( Some `Global,
              info [ "global" ]
                ~doc:"STW vs concurrent global collection (BENCH_8)." );
            ( Some `Obs_overhead,
              info [ "obs-overhead" ]
                ~doc:"Flight-recorder and streaming overhead; fails at 5%." );
          ])
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write the mode's artifact (not with $(b,--obs-overhead)).")
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
      ~doc:"The BENCH_6/7/8 artifacts and the flight recorder's host budget"
  in
  exit (Cmd.eval (Cmd.v info Term.(ret (const main $ mode $ json $ slices))))
