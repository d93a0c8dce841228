(** Latency-SLO server workload (ISSUE 7): long-lived sessions with
    mixed-lifetime object graphs serve requests that arrive open-loop
    from a deterministic Poisson generator.  Request handling is
    CML-style — the request fiber [send]s/[recv]s, the session [sync]s
    over request and control channels — and every completion is recorded
    ({!Manticore_gc.Ctx.request_done}) as a request-latency sample plus a
    flight-recorder [Req_done] event, so SLO percentiles sit next to GC
    pause percentiles in every report. *)

open Heap
open Manticore_gc
open Runtime

type load = {
  rate_rps : float;  (** mean arrival rate, requests per simulated second *)
  n_requests : int;
  n_sessions : int;
  seed : int;  (** arrival-plan seed — independent of the scheduler seed *)
}

val default_load : scale:float -> load

val arrival_plan : load -> float array
(** Virtual arrival times (ns), strictly increasing, exponential
    inter-arrivals at [rate_rps].  Depends only on the load. *)

val run_load : Sched.t -> Ctx.mutator -> load -> float
(** Run the server inside an existing fiber (call from a [Sched.run]
    main); returns the checksum.  The request count equals
    [load.n_requests] and the checksum equals [expected_load load] on
    any scheduler policy or promotion ablation. *)

val expected_load : load -> float

val main :
  Sched.t -> Pml.Pval.descs -> Ctx.mutator -> scale:float -> Value.t
(** Registry entry point: [run_load] of [default_load ~scale]. *)

val expected : scale:float -> float
