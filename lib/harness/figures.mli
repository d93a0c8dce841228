(** Drivers that regenerate every table and figure of the paper's
    evaluation (§4 and Appendix A).  Each returns a report string; the
    [experiments] binary prints them and EXPERIMENTS.md records the
    outcomes.

    [fast] shrinks workload scales and thread lists for CI-speed runs;
    the shapes survive, the curves are just coarser. *)

type sweep_result = {
  workload : string;
  scale : float;
  points : (int * Run_config.outcome) list;  (** per thread count *)
}

val sweep :
  ?progress:(string -> unit) ->
  machine:Numa.Topology.t ->
  policy:Sim_mem.Page_policy.t ->
  threads:int list ->
  workloads:(string * float) list ->
  unit ->
  sweep_result list

type fig = [ `Fig4 | `Fig5 | `Fig6 | `Fig7 ]

val fig_results :
  fig -> ?fast:bool -> ?progress:(string -> unit) -> unit -> sweep_result list
(** The raw sweep behind a figure (for CSV export and tests). *)

val fig_series :
  fig -> ?fast:bool -> ?progress:(string -> unit) -> unit ->
  Ascii_plot.series list
(** Speedup series with the figure's proper baseline (Figures 6-7 use
    Figure 5's), for the SVG renderer. *)

val fig4 : ?fast:bool -> ?progress:(string -> unit) -> unit -> string
(** Speedups on the Intel 32-core machine. *)

val fig5 : ?fast:bool -> ?progress:(string -> unit) -> unit -> string
(** Speedups on the AMD 48-core machine, local allocation. *)

val fig6 : ?fast:bool -> ?progress:(string -> unit) -> unit -> string
(** AMD, interleaved (GHC-style) allocation, relative to Fig 5's baseline. *)

val fig7 : ?fast:bool -> ?progress:(string -> unit) -> unit -> string
(** AMD, socket-zero allocation, relative to Fig 5's baseline. *)

val table1 : ?fast:bool -> unit -> string
(** Theoretical vs measured node-to-node bandwidth on both machines. *)

val gc_report : ?fast:bool -> unit -> string
(** Collector statistics per benchmark on the AMD machine — not a paper
    figure, but the §3 behaviours made visible. *)

val baseline : ?fast:bool -> unit -> string
(** Split-heap (the paper) vs a traditional shared-heap stop-the-world
    collector on the same machine model — the comparison motivating the
    paper's architecture. *)

val footnote3 : ?fast:bool -> unit -> string
(** The paper's footnote 3 reconstructed: single-node vs local page
    placement on a two-socket machine. *)

val sweep_metrics : sweep_result list -> Manticore_gc.Metrics.t
(** Every run's telemetry of a sweep merged into one recorder, suitable
    for {!Manticore_gc.Metrics.snapshot} / JSON export. *)

val metrics_runs :
  ?fast:bool -> ?progress:(string -> unit) -> unit ->
  (string * Run_config.outcome) list
(** Instrumented runs on the AMD machine (16 vprocs, ablation-tight heap
    sizing so majors and globals fire repeatedly) used by the pause
    report and the [--metrics-json] exporters. *)

val pause_report : ?fast:bool -> ?progress:(string -> unit) -> unit -> string
(** Per-benchmark pause-time percentiles for all four collection kinds,
    plus the merged per-vproc summary — the telemetry counterpart of
    {!gc_report}. *)

val ablations : ?fast:bool -> unit -> string
(** The ablation study of DESIGN.md §5: chunk node-affinity, young-data
    exclusion, and lazy promotion each disabled in isolation, measured
    by simulated time and collector traffic. *)

val server_report : ?fast:bool -> ?progress:(string -> unit) -> unit -> string
(** The latency-SLO rate sweep: open-loop server load at increasing
    arrival rates on tight heaps, reporting request-latency percentiles
    (p50/p90/p99/p99.9) against the worst collection-kind pause p99,
    with an ASCII latency-vs-rate chart — the experiments counterpart
    of [bench --server]. *)
