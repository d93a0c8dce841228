open Sim_mem

type sweep_result = {
  workload : string;
  scale : float;
  points : (int * Run_config.outcome) list;
}

let intel_threads = [ 1; 4; 8; 12; 16; 24; 32 ]
let amd_threads = [ 1; 4; 8; 12; 24; 36; 48 ]

let figure_workloads ~fast =
  if fast then
    [
      ("dmm", 1.0); ("raytracer", 1.0); ("quicksort", 0.2); ("smvm", 1.0);
      ("barnes-hut", 0.25);
    ]
  else
    [
      ("dmm", 2.0); ("raytracer", 2.0); ("quicksort", 0.5); ("smvm", 4.0);
      ("barnes-hut", 0.5);
    ]

let sweep ?(progress = fun _ -> ()) ~machine ~policy ~threads ~workloads () =
  List.map
    (fun (name, scale) ->
      let spec =
        match Workloads.Registry.find name with
        | Some s -> s
        | None -> invalid_arg ("Figures.sweep: unknown workload " ^ name)
      in
      let points =
        List.map
          (fun n ->
            progress
              (Printf.sprintf "%s %s x%d %s" machine.Numa.Topology.name name n
                 (Page_policy.to_string policy));
            let cfg =
              { (Run_config.default ~machine ~n_vprocs:n) with
                Run_config.policy; scale }
            in
            (n, Run_config.execute spec cfg))
          threads
      in
      { workload = name; scale; points })
    workloads

let speedup_series ~baseline results =
  List.map
    (fun r ->
      let base = baseline r.workload in
      {
        Ascii_plot.label = r.workload;
        points =
          List.map
            (fun (n, (o : Run_config.outcome)) ->
              (n, base /. o.Run_config.elapsed_ns))
            r.points;
      })
    results

let self_baseline results w =
  let r = List.find (fun r -> r.workload = w) results in
  match r.points with
  | (1, o) :: _ -> o.Run_config.elapsed_ns
  | _ -> invalid_arg "Figures: sweep must include a 1-thread run"

let result_table results =
  let header = [ "benchmark"; "threads"; "time (sim ms)"; "speedup" ] in
  let rows =
    List.concat_map
      (fun r ->
        let base = self_baseline results r.workload in
        List.map
          (fun (n, (o : Run_config.outcome)) ->
            [
              r.workload;
              string_of_int n;
              Printf.sprintf "%.3f" (o.Run_config.elapsed_ns /. 1e6);
              Printf.sprintf "%.2f" (base /. o.Run_config.elapsed_ns);
            ])
          r.points)
      results
  in
  Table.render ~header ~rows

let render_fig ~title ~results ~baseline =
  Ascii_plot.render ~title ~xlabel:"Threads" ~ylabel:"Speedup" ~ideal:true
    (speedup_series ~baseline results)
  ^ "\n" ^ result_table results

let amd_sweep ?progress ~fast ~policy () =
  sweep ?progress ~machine:Numa.Machines.amd48 ~policy ~threads:amd_threads
    ~workloads:(figure_workloads ~fast) ()

type fig = [ `Fig4 | `Fig5 | `Fig6 | `Fig7 ]

let fig_results (fig : fig) ?(fast = false) ?progress () =
  match fig with
  | `Fig4 ->
      sweep ?progress ~machine:Numa.Machines.intel32 ~policy:Page_policy.Local
        ~threads:intel_threads ~workloads:(figure_workloads ~fast) ()
  | `Fig5 -> amd_sweep ?progress ~fast ~policy:Page_policy.Local ()
  | `Fig6 -> amd_sweep ?progress ~fast ~policy:Page_policy.Interleaved ()
  | `Fig7 -> amd_sweep ?progress ~fast ~policy:(Page_policy.Single_node 0) ()

let fig_series (fig : fig) ?(fast = false) ?progress () =
  let results = fig_results fig ~fast ?progress () in
  let baseline =
    match fig with
    | `Fig4 | `Fig5 -> self_baseline results
    | `Fig6 | `Fig7 ->
        let local_1 =
          sweep ?progress ~machine:Numa.Machines.amd48
            ~policy:Page_policy.Local ~threads:[ 1 ]
            ~workloads:(figure_workloads ~fast) ()
        in
        self_baseline local_1
  in
  speedup_series ~baseline results

let fig4 ?(fast = false) ?progress () =
  let results = fig_results `Fig4 ~fast ?progress () in
  render_fig
    ~title:
      "Figure 4: Comparative speedups for five benchmarks on Intel hardware"
    ~results ~baseline:(self_baseline results)

let fig5 ?(fast = false) ?progress () =
  let results = fig_results `Fig5 ~fast ?progress () in
  render_fig
    ~title:
      "Figure 5: Speedups on AMD hardware using local memory allocation"
    ~results ~baseline:(self_baseline results)

(* Figures 6 and 7 are plotted relative to Figure 5's single-processor
   baseline (paper §4.3). *)
let fig_relative ?progress ~fast ~fig ~title () =
  let local_1 =
    sweep ?progress ~machine:Numa.Machines.amd48 ~policy:Page_policy.Local
      ~threads:[ 1 ] ~workloads:(figure_workloads ~fast) ()
  in
  let results = fig_results fig ~fast ?progress () in
  render_fig ~results ~title ~baseline:(self_baseline local_1)

let fig6 ?(fast = false) ?progress () =
  fig_relative ?progress ~fast ~fig:`Fig6
    ~title:
      "Figure 6: Speedups on AMD hardware with interleaved memory allocation"
    ()

let fig7 ?(fast = false) ?progress () =
  fig_relative ?progress ~fast ~fig:`Fig7
    ~title:
      "Figure 7: Speedups on AMD hardware with socket-zero memory allocation"
    ()

let table1 ?(fast = false) () =
  let mb = if fast then 4 else 16 in
  let probe machine ~dst ~label =
    let streamers = machine.Numa.Topology.cores_per_node in
    let measured =
      Membw.measure machine ~streamers ~src_node:0 ~dst_node:dst
        ~mb_per_streamer:mb
    in
    let theory = Membw.theoretical machine ~src_node:0 ~dst_node:dst in
    [
      machine.Numa.Topology.name;
      label;
      Printf.sprintf "%.1f" theory;
      Printf.sprintf "%.1f" measured;
      Printf.sprintf "%.0f%%" (100. *. measured /. theory);
    ]
  in
  let amd = Numa.Machines.amd48 and intel = Numa.Machines.intel32 in
  let rows =
    [
      probe amd ~dst:0 ~label:"local memory";
      probe amd ~dst:1 ~label:"node in same package";
      probe amd ~dst:2 ~label:"node on another package";
      probe intel ~dst:0 ~label:"local memory";
      probe intel ~dst:3 ~label:"node on another package";
    ]
  in
  "Table 1: bandwidth between a single node and the rest of the system\n"
  ^ Table.render
      ~header:
        [ "machine"; "path"; "theoretical GB/s"; "measured GB/s"; "delivered" ]
      ~rows
  ^ "(measured = saturating stream from all cores of node 0; the contention\n\
    \ model's queueing headroom keeps delivery below the rated figure)\n"

let gc_report ?(fast = false) () =
  let workloads = figure_workloads ~fast in
  let header =
    [
      "benchmark"; "minors"; "majors"; "promotions"; "globals";
      "minor MB"; "major MB"; "promoted MB"; "gc time %";
    ]
  in
  let rows =
    List.map
      (fun (name, scale) ->
        let spec = Option.get (Workloads.Registry.find name) in
        let cfg =
          { (Run_config.default ~machine:Numa.Machines.amd48 ~n_vprocs:16) with
            Run_config.scale }
        in
        let o = Run_config.execute spec cfg in
        let mb b = Printf.sprintf "%.2f" (float_of_int b /. 1e6) in
        let g = o.Run_config.gc in
        [
          name;
          string_of_int g.Manticore_gc.Gc_stats.minor_count;
          string_of_int g.Manticore_gc.Gc_stats.major_count;
          string_of_int g.Manticore_gc.Gc_stats.promote_count;
          string_of_int g.Manticore_gc.Gc_stats.global_count;
          mb g.Manticore_gc.Gc_stats.minor_copied_bytes;
          mb g.Manticore_gc.Gc_stats.major_copied_bytes;
          mb g.Manticore_gc.Gc_stats.promoted_bytes;
          Printf.sprintf "%.1f"
            (100. *. g.Manticore_gc.Gc_stats.gc_ns
            /. (o.Run_config.elapsed_ns *. 16.));
        ])
      workloads
  in
  "Collector statistics (AMD machine, 16 vprocs, local placement)\n"
  ^ Table.render ~header ~rows

(* --- Pause-distribution telemetry ------------------------------------ *)

let sweep_metrics results =
  let acc = Manticore_gc.Metrics.create ~n_vprocs:0 () in
  List.iter
    (fun r ->
      List.iter
        (fun (_, (o : Run_config.outcome)) ->
          Manticore_gc.Metrics.merge ~into:acc o.Run_config.metrics)
        r.points)
    results;
  acc

let metrics_runs ?(fast = false) ?(progress = fun _ -> ()) () =
  (* Even tighter heap sizing than the ablation study's, so every
     collector phase — majors and globals included — fires repeatedly
     even at the fast scales and the percentiles mean something.  The
     global budget sits just above the floor Params.check allows (one
     chunk per vproc). *)
  let base_cfg = Run_config.default ~machine:Numa.Machines.amd48 ~n_vprocs:16 in
  let base_cfg =
    { base_cfg with
      Run_config.params =
        { base_cfg.Run_config.params with
          Manticore_gc.Params.local_heap_bytes = 32 * 1024;
          nursery_min_bytes = 8 * 1024;
          global_budget_per_vproc = 20 * 1024 } }
  in
  let benches =
    if fast then [ ("quicksort", 0.15); ("smvm", 0.5); ("barnes-hut", 0.15) ]
    else [ ("quicksort", 0.5); ("smvm", 1.5); ("barnes-hut", 0.5) ]
  in
  List.map
    (fun (bench, scale) ->
      progress (Printf.sprintf "amd48 %s x16 (metrics)" bench);
      let spec = Option.get (Workloads.Registry.find bench) in
      (bench, Run_config.execute spec { base_cfg with Run_config.scale }))
    benches

let pause_report ?(fast = false) ?progress () =
  let module M = Manticore_gc.Metrics in
  let runs = metrics_runs ~fast ?progress () in
  let header =
    [ "benchmark"; "kind"; "count"; "p50"; "p90"; "p99"; "max"; "copied" ]
  in
  let rows =
    List.concat_map
      (fun (bench, (o : Run_config.outcome)) ->
        let all = M.aggregate o.Run_config.metrics in
        List.filter_map
          (fun (kind, name) ->
            let ks = M.kind_stats all kind in
            let p = ks.M.pause_ns in
            if p.M.count = 0 then None
            else
              Some
                [
                  bench;
                  name;
                  string_of_int p.M.count;
                  Manticore_gc.Units.ns_to_string p.M.p50;
                  Manticore_gc.Units.ns_to_string p.M.p90;
                  Manticore_gc.Units.ns_to_string p.M.p99;
                  Manticore_gc.Units.ns_to_string p.M.max;
                  Manticore_gc.Units.bytes_to_string
                    (int_of_float ks.M.copied_bytes.M.sum);
                ])
          (List.filter (fun (k, _) -> k <> Obs.Event.Barrier)
             (Array.to_list Obs.Event.kinds)))
      runs
  in
  let merged = M.create ~n_vprocs:0 () in
  List.iter
    (fun (_, (o : Run_config.outcome)) ->
      M.merge ~into:merged o.Run_config.metrics)
    runs;
  "Pause-time distributions (AMD machine, 16 vprocs, tight heaps):\n"
  ^ Table.render ~header ~rows
  ^ "\n"
  ^ Format.asprintf "%a" M.pp_summary
      { M.vprocs = [ M.aggregate merged ] }

(* --- Ablation study of DESIGN.md's design decisions ----------------- *)

let ablations ?(fast = false) () =
  let base_cfg = Run_config.default ~machine:Numa.Machines.amd48 ~n_vprocs:16 in
  (* Tighter heap parameters than the figure runs, so major and global
     collections — the phases the ablated mechanisms serve — happen many
     times per run. *)
  let base_cfg =
    { base_cfg with
      Run_config.params =
        { base_cfg.Run_config.params with
          Manticore_gc.Params.local_heap_bytes = 32 * 1024;
          nursery_min_bytes = 8 * 1024;
          global_budget_per_vproc = 48 * 1024 } }
  in
  let variants =
    [
      ("baseline (paper design)", base_cfg);
      ( "no chunk node-affinity",
        { base_cfg with
          Run_config.params =
            { base_cfg.Run_config.params with
              Manticore_gc.Params.chunk_affinity = false } } );
      ( "no young-data exclusion",
        { base_cfg with
          Run_config.params =
            { base_cfg.Run_config.params with
              Manticore_gc.Params.young_exclusion = false } } );
      ("eager (non-lazy) promotion",
       { base_cfg with Run_config.eager_promotion = true });
      ("near-first steal victims",
       { base_cfg with Run_config.near_steal = true });
    ]
  in
  (* Per-benchmark scales chosen so that major and global collections —
     the phases the ablated mechanisms serve — happen many times. *)
  let benches =
    if fast then [ ("quicksort", 0.15); ("smvm", 0.5); ("barnes-hut", 0.15) ]
    else [ ("quicksort", 0.5); ("smvm", 1.5); ("barnes-hut", 0.5) ]
  in
  let header =
    [ "variant"; "benchmark"; "time (sim ms)"; "vs baseline";
      "promoted MB"; "major MB"; "chunk acquires" ]
  in
  let baseline = Hashtbl.create 8 in
  let rows =
    List.concat_map
      (fun (vname, cfg) ->
        List.map
          (fun (bench, scale) ->
            let spec = Option.get (Workloads.Registry.find bench) in
            let o = Run_config.execute spec { cfg with Run_config.scale } in
            let t = o.Run_config.elapsed_ns in
            if vname = "baseline (paper design)" then
              Hashtbl.replace baseline bench t;
            let base = Hashtbl.find baseline bench in
            let g = o.Run_config.gc in
            [
              vname;
              bench;
              Printf.sprintf "%.3f" (t /. 1e6);
              Printf.sprintf "%+.1f%%" (100. *. ((t /. base) -. 1.));
              Printf.sprintf "%.3f"
                (float_of_int g.Manticore_gc.Gc_stats.promoted_bytes /. 1e6);
              Printf.sprintf "%.3f"
                (float_of_int g.Manticore_gc.Gc_stats.major_copied_bytes /. 1e6);
              string_of_int g.Manticore_gc.Gc_stats.chunk_acquires;
            ])
          benches)
      variants
  in
  "Ablations (AMD machine, 16 vprocs, local placement): the design\n\
   decisions of DESIGN.md section 5, each disabled in isolation\n"
  ^ Table.render ~header ~rows

(* --- Split-heap vs unified-heap (stop-the-world) baseline ----------- *)

let baseline ?(fast = false) () =
  let threads = [ 1; 12; 48 ] in
  let benches =
    if fast then [ ("quicksort", 0.15); ("raytracer", 0.5); ("barnes-hut", 0.15) ]
    else [ ("quicksort", 0.5); ("raytracer", 2.0); ("barnes-hut", 0.5) ]
  in
  let header =
    [ "collector"; "benchmark"; "threads"; "time (sim ms)"; "speedup";
      "global GCs"; "gc time %" ]
  in
  let rows =
    List.concat_map
      (fun (label, (unified, policy)) ->
        List.concat_map
          (fun (bench, scale) ->
            let spec = Option.get (Workloads.Registry.find bench) in
            let base_t = ref 0. in
            List.map
              (fun n ->
                let cfg =
                  { (Run_config.default ~machine:Numa.Machines.amd48
                       ~n_vprocs:n)
                    with Run_config.scale; policy }
                in
                let cfg =
                  { cfg with
                    Run_config.params =
                      { cfg.Run_config.params with
                        Manticore_gc.Params.unified_heap = unified;
                        (* Fair comparison: both collectors run against the
                           same fixed total global-heap budget, independent
                           of thread count. *)
                        global_budget_per_vproc =
                          max (32 * 1024) (2 * 1024 * 1024 / n) } }
                in
                let o = Run_config.execute spec cfg in
                let t = o.Run_config.elapsed_ns in
                if n = 1 then base_t := t;
                let g = o.Run_config.gc in
                [
                  label;
                  bench;
                  string_of_int n;
                  Printf.sprintf "%.3f" (t /. 1e6);
                  Printf.sprintf "%.2f" (!base_t /. t);
                  string_of_int g.Manticore_gc.Gc_stats.global_count;
                  Printf.sprintf "%.1f"
                    (100. *. g.Manticore_gc.Gc_stats.gc_ns
                    /. (t *. float_of_int n));
                ])
              threads)
          benches)
      [
        ("split (paper)", (false, Page_policy.Local));
        ("unified STW", (true, Page_policy.Local));
        ("unified STW, socket-0", (true, Page_policy.Single_node 0));
      ]
  in
  "Baseline comparison: the paper's split-heap design vs a traditional\n\
   shared-heap collector (per-vproc allocation buffers, parallel\n\
   stop-the-world collection, no generations, no locality design)\n"
  ^ Table.render ~header ~rows

(* --- Footnote 3: the two-socket GHC story --------------------------- *)

let footnote3 ?(fast = false) () =
  let workloads =
    if fast then [ ("quicksort", 0.15); ("raytracer", 0.5) ]
    else [ ("quicksort", 0.5); ("raytracer", 2.0) ]
  in
  let threads = [ 1; 4; 6; 8; 12; 18; 24 ] in
  let run policy =
    sweep ~machine:Numa.Machines.amd24 ~policy ~threads ~workloads ()
  in
  let local = run Page_policy.Local in
  let single = run (Page_policy.Single_node 0) in
  let header = [ "benchmark"; "threads"; "local speedup"; "single-node speedup" ] in
  let rows =
    List.concat_map
      (fun (l, s) ->
        let base_l = self_baseline local l.workload in
        let base_s = self_baseline single s.workload in
        List.map2
          (fun (n, (ol : Run_config.outcome)) (_, (os : Run_config.outcome)) ->
            [
              l.workload;
              string_of_int n;
              Printf.sprintf "%.2f" (base_l /. ol.Run_config.elapsed_ns);
              Printf.sprintf "%.2f" (base_s /. os.Run_config.elapsed_ns);
            ])
          l.points s.points)
      (List.combine local single)
  in
  "Footnote 3: on a two-socket machine (amd24), a collector that\n\
   allocates all pages on one socket stops scaling around 6-8 cores —\n\
   the exact change GHC needed — while NUMA-aware local allocation\n\
   continues to the full 24.\n"
  ^ Table.render ~header ~rows

let server_report ?(fast = false) ?(progress = fun _ -> ()) () =
  let module M = Manticore_gc.Metrics in
  (* Tight heaps (as in the metrics runs) so the latency tail has a GC
     component to expose; the sweep drives the same open-loop load the
     bench's BENCH_7.json gate uses, at figure-friendly sizes. *)
  let base_cfg = Run_config.default ~machine:Numa.Machines.amd48 ~n_vprocs:8 in
  let base_cfg =
    { base_cfg with
      Run_config.params =
        { base_cfg.Run_config.params with
          Manticore_gc.Params.local_heap_bytes = 32 * 1024;
          chunk_bytes = 8 * 1024;
          nursery_min_bytes = 4 * 1024;
          global_budget_per_vproc = 128 * 1024 } }
  in
  let rates =
    if fast then [ 50_000.; 200_000.; 1_000_000. ]
    else [ 50_000.; 100_000.; 200_000.; 500_000.; 1_000_000. ]
  in
  let n_requests = if fast then 384 else 1536 in
  let runs =
    List.map
      (fun rate ->
        progress (Printf.sprintf "server %.0f rps x8 (latency)" rate);
        (rate, Run_config.execute_server base_cfg ~rate_rps:rate ~n_requests))
      rates
  in
  let header =
    [ "rate (rps)"; "p50"; "p90"; "p99"; "p99.9"; "max"; "pause p99" ]
  in
  let rows =
    List.map
      (fun (rate, (o : Run_config.outcome)) ->
        let agg = M.aggregate o.Run_config.metrics in
        let req = agg.M.requests in
        let pause_p99 =
          List.fold_left
            (fun acc (ks : M.kind_stats) ->
              Float.max acc ks.M.pause_ns.M.p99)
            0.
            [ agg.M.minor; agg.M.major; agg.M.promotion; agg.M.global ]
        in
        [
          Printf.sprintf "%.0f" rate;
          Manticore_gc.Units.ns_to_string req.M.p50;
          Manticore_gc.Units.ns_to_string req.M.p90;
          Manticore_gc.Units.ns_to_string req.M.p99;
          Manticore_gc.Units.ns_to_string req.M.p999;
          Manticore_gc.Units.ns_to_string req.M.max;
          Manticore_gc.Units.ns_to_string pause_p99;
        ])
      runs
  in
  let series =
    List.map
      (fun (pname, pick) ->
        {
          Ascii_plot.label = pname;
          points =
            List.map
              (fun (rate, (o : Run_config.outcome)) ->
                let agg = M.aggregate o.Run_config.metrics in
                ( int_of_float (rate /. 1000.),
                  pick agg.M.requests /. 1000. ))
              runs;
        })
      [ ("p50", fun (d : M.dist) -> d.M.p50);
        ("p99", fun d -> d.M.p99);
        ("p99.9", fun d -> d.M.p999) ]
  in
  "Latency-SLO server under open-loop load (amd48 x8, tight heaps):\n\
   request-latency percentiles vs arrival rate — the tail saturates\n\
   first as collections stack up under the heavier rates.\n"
  ^ Table.render ~header ~rows
  ^ "\n"
  ^ Ascii_plot.render ~title:"request latency vs arrival rate"
      ~xlabel:"arrival rate (krps)" ~ylabel:"latency (us)" ~ideal:false
      series
