(** One benchmark execution on one configured simulated machine. *)

open Manticore_gc
open Sim_mem

type t = {
  machine : Numa.Topology.t;  (** full-size machine; see [cache_scale] *)
  cache_scale : int;
      (** divide cache sizes by this to match the scaled-down workloads
          (DESIGN.md §6); the harness default is 32 *)
  bw_scale : int;
      (** divide bank/link *capacities* (not per-access costs) by this so
          the scaled workloads' traffic keeps the real machines'
          traffic-to-capacity ratio; the harness default is 32 *)
  n_vprocs : int;
  policy : Page_policy.t;
  scale : float;  (** workload scale factor *)
  params : Params.t;
  eager_promotion : bool;  (** ablation: promote at spawn, not at steal *)
  near_steal : bool;  (** extension: prefer same-package steal victims *)
  trace : bool;  (** record and render the collector event timeline *)
  census : bool;  (** render a post-run heap census *)
  obs_enabled : bool;
      (** keep the flight recorder on (the default); turned off only by
          the recorder-overhead benchmark *)
  seed : int;
  telemetry : (string * float) option;
      (** when [Some (path, interval_ns)], stream OpenMetrics exposition
          blocks to [path] every [interval_ns] of virtual time (plus one
          final block when the run ends) *)
  slo : Metrics.slo option;
      (** declared request-latency objective, installed on the run's
          metrics before the workload starts so the burn rate is
          tracked from the first request *)
}

val default : machine:Numa.Topology.t -> n_vprocs:int -> t
(** Local placement, scale 1.0, cache scale 32, and heap parameters sized
    for the scaled workloads (64 KB local heaps, 16 KB chunks, 256 KB
    global budget per vproc). *)

type outcome = {
  checksum : float;
  elapsed_ns : float;  (** virtual makespan *)
  gc : Gc_stats.t;  (** the run's totals ({!Manticore_gc.Ctx.gc_totals}) *)
  sched : Runtime.Sched.stats;
  metrics : Metrics.t;
      (** the run's per-vproc pause/byte distributions and steal/chunk
          counters; snapshot with {!Manticore_gc.Metrics.snapshot} or
          merge across runs with {!Manticore_gc.Metrics.merge} *)
  obs : Obs.Recorder.t;
      (** the run's flight recorder: per-vproc event rings and the NUMA
          traffic matrix; serialize with {!Obs.Recorder.to_string} *)
  timeline : string option;  (** rendered when [trace] was set *)
  chrome_trace : string option;
      (** Chrome trace-event JSON ({!Manticore_gc.Gc_trace.to_chrome_json})
          when [trace] was set; load it in [about:tracing] or Perfetto *)
  census_report : string option;  (** rendered when [census] was set *)
}

val execute : Workloads.Registry.spec -> t -> outcome
(** Build the context and scheduler, run the benchmark, validate its
    checksum, and collect statistics. *)

val execute_server : t -> rate_rps:float -> n_requests:int -> outcome
(** Run the server workload at an explicit open-loop arrival rate
    ([t.scale] is ignored; sessions scale with [t.n_vprocs]).  Raises
    [Failure] if the checksum fails or any request did not complete —
    the request-latency percentiles then live in [outcome.metrics]. *)

val metrics_block : outcome -> string
(** The run's per-vproc pause-percentile table, rendered, followed by
    the sliding-window percentiles and SLO status (when any sample was
    windowed) and the per-vproc obs ring drop counters (when any ring
    wrapped). *)

val pp : Format.formatter -> t -> unit
