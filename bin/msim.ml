(* Run one benchmark on one simulated machine configuration and report
   timing, scheduler and collector statistics. *)

open Cmdliner

let machine_names =
  String.concat " | " (List.map (fun m -> m.Numa.Topology.name) Numa.Machines.all)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  if s = "" || s.[String.length s - 1] <> '\n' then output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s\n" path

let run name machine_name threads policy_str global_mode_str global_budget
    scale cache_scale bw_scale trace trace_json metrics_json events telemetry
    telemetry_ms census seed verbose =
  let spec =
    match Workloads.Registry.find name with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %S; available: %s\n" name
          (String.concat ", " Workloads.Registry.names);
        exit 1
  in
  let machine =
    match Numa.Machines.by_name machine_name with
    | Some m -> m
    | None ->
        Printf.eprintf "unknown machine %S (%s)\n" machine_name machine_names;
        exit 1
  in
  let policy =
    match Sim_mem.Page_policy.of_string policy_str with
    | Ok p -> p
    | Error e ->
        prerr_endline e;
        exit 1
  in
  let global_gc_mode =
    match global_mode_str with
    | "stw" -> Manticore_gc.Params.Stw
    | "concurrent" -> Manticore_gc.Params.Concurrent
    | s ->
        Printf.eprintf "unknown global-mode %S (stw | concurrent)\n" s;
        exit 1
  in
  let cores = Numa.Topology.n_cores machine in
  if threads < 1 || threads > cores then begin
    Printf.eprintf "thread count %d out of range for %s (1..%d)\n" threads
      machine_name cores;
    exit 1
  end;
  List.iter
    (fun (flag, k) ->
      if k < 1 then begin
        Printf.eprintf "%s %d out of range (must be at least 1)\n" flag k;
        exit 1
      end)
    [ ("--cache-scale", cache_scale); ("--bw-scale", bw_scale) ];
  let base = Harness.Run_config.default ~machine ~n_vprocs:threads in
  let cfg =
    {
      base with
      Harness.Run_config.policy;
      scale;
      cache_scale;
      bw_scale;
      trace = trace || trace_json <> None;
      census;
      seed;
      telemetry =
        Option.map (fun path -> (path, telemetry_ms *. 1e6)) telemetry;
      params =
        {
          base.Harness.Run_config.params with
          Manticore_gc.Params.global_gc_mode;
          global_budget_per_vproc =
            (match global_budget with
            | None ->
                base.Harness.Run_config.params
                  .Manticore_gc.Params.global_budget_per_vproc
            | Some kib -> kib * 1024);
        };
    }
  in
  (match Manticore_gc.Params.validate cfg.Harness.Run_config.params with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "invalid parameters: %s\n" e;
      exit 1);
  let o = Harness.Run_config.execute spec cfg in
  Printf.printf "%s on %s, %d threads, %s placement, scale %g\n" spec.name
    machine_name threads
    (Sim_mem.Page_policy.to_string policy)
    scale;
  Printf.printf "  checksum      %.9g (validated)\n" o.Harness.Run_config.checksum;
  Printf.printf "  simulated time %.3f ms\n"
    (o.Harness.Run_config.elapsed_ns /. 1e6);
  let s = o.Harness.Run_config.sched in
  Printf.printf "  scheduler     %d spawns, %d steals, %d inline runs, %d yields\n"
    s.Runtime.Sched.spawns
    (Manticore_gc.Metrics.aggregate o.Harness.Run_config.metrics)
      .Manticore_gc.Metrics.steal_successes
    s.Runtime.Sched.inline_runs s.Runtime.Sched.yields;
  if verbose then
    Format.printf "  @[<v2>collector:@,%a@]@." Manticore_gc.Gc_stats.pp
      o.Harness.Run_config.gc;
  if verbose then print_string (Harness.Run_config.metrics_block o);
  (if trace then Option.iter print_string o.Harness.Run_config.timeline);
  Option.iter print_string o.Harness.Run_config.census_report;
  Option.iter
    (fun path ->
      write_file path (Option.get o.Harness.Run_config.chrome_trace))
    trace_json;
  Option.iter
    (fun path ->
      write_file path
        (Manticore_gc.Metrics.snapshot_to_json
           (Manticore_gc.Metrics.snapshot o.Harness.Run_config.metrics)))
    metrics_json;
  Option.iter
    (fun path ->
      write_file path (Obs.Recorder.to_string o.Harness.Run_config.obs))
    events;
  Option.iter
    (fun path ->
      Printf.eprintf "streamed %d OpenMetrics exposition(s) to %s\n"
        (Manticore_gc.Metrics.stream_emitted o.Harness.Run_config.metrics)
        path)
    telemetry

let name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCHMARK"
        ~doc:("One of " ^ String.concat ", " Workloads.Registry.names ^ "."))

let machine_arg =
  Arg.(
    value & opt string "amd48"
    & info [ "m"; "machine" ] ~doc:(machine_names ^ "."))

let threads_arg =
  Arg.(value & opt int 8 & info [ "t"; "threads" ] ~doc:"Number of vprocs.")

let policy_arg =
  Arg.(
    value & opt string "local"
    & info [ "p"; "policy" ] ~doc:"local | interleaved | single-node[:N].")

let global_mode_arg =
  Arg.(
    value & opt string "stw"
    & info [ "global-mode" ]
        ~doc:
          "Global-collection mode: $(b,stw) (the paper's parallel \
           stop-the-world collection) or $(b,concurrent) (incremental chunk \
           evacuation with bounded slices and a short ratify barrier).")

let global_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "global-budget" ] ~docv:"KIB"
        ~doc:
          "Global-collection trigger budget per vproc, in KiB (default \
           768).  Tighten (e.g. 64) to force global cycles on workloads \
           that would otherwise stay within the local heaps — useful with \
           $(b,--global-mode concurrent) and $(b,gcprof --cycles).")

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~doc:"Workload scale factor.")

let cache_scale_arg =
  Arg.(value & opt int 32 & info [ "cache-scale" ] ~doc:"Cache size divisor.")

let bw_scale_arg =
  Arg.(
    value & opt int 32
    & info [ "bw-scale" ]
        ~doc:"Bank/link capacity divisor (traffic-to-capacity scaling).")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Render the collector event timeline.")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Write the collector trace as Chrome trace-event JSON (implies \
           recording); load it in about:tracing or Perfetto.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write the run's collector telemetry snapshot (per-vproc pause/byte \
           distributions, steal and chunk counters) as JSON.")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Write the flight recorder's event dump (per-vproc rings, NUMA \
           traffic matrix); analyze it with gcprof.")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Stream OpenMetrics exposition blocks to $(docv) while the run is \
           in flight (one block every $(b,--telemetry-interval) of virtual \
           time, plus a final one); validate with validate_metrics \
           --openmetrics.")

let telemetry_interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "telemetry-interval" ] ~docv:"MS"
        ~doc:"Virtual-time interval between telemetry emissions, in ms.")

let census_arg =
  Arg.(
    value & flag & info [ "census" ] ~doc:"Render a post-run heap census.")

let seed_arg = Arg.(value & opt int 0x5eed & info [ "seed" ] ~doc:"Scheduler RNG seed.")
let verbose_arg = Arg.(value & flag & info [ "v" ] ~doc:"Print collector statistics.")

let () =
  let info =
    Cmd.info "msim"
      ~doc:"Run a Manticore-GC benchmark on a simulated NUMA machine."
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ name_arg $ machine_arg $ threads_arg $ policy_arg
            $ global_mode_arg $ global_budget_arg $ scale_arg $ cache_scale_arg
            $ bw_scale_arg
            $ trace_arg $ trace_json_arg $ metrics_json_arg $ events_arg
            $ telemetry_arg $ telemetry_interval_arg $ census_arg $ seed_arg
            $ verbose_arg)))
