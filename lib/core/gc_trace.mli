(** A lightweight event trace of collector activity, in virtual time.

    Disabled by default (recording is a single branch per collection);
    when enabled it captures one event per collection phase, which the
    renderer lays out as per-vproc timeline lanes — a poor man's
    heap-profile view of Figures 2–3 happening at runtime. *)

type kind = Obs.Event.coll_kind =
  | Minor
  | Major
  | Promotion
  | Global  (** global collection span, recorded once per vproc *)
  | Barrier
      (** time spent *waiting* at a global-collection synchronization
          point (entry/exit barrier or concurrent ratify), recorded in
          addition to the enclosing [Global] span *)

type event = {
  vproc : int;
  kind : kind;
  cause : Obs.Gc_cause.t;  (** why this collection ran *)
  node : int;  (** NUMA node of the vproc that collected *)
  t_start_ns : float;
  t_end_ns : float;
  bytes : int;  (** bytes copied/promoted by this event *)
}

type t

val create : unit -> t
(** Created disabled. *)

val enable : t -> unit

val record : t -> event -> unit
(** No-op when disabled. *)

val events : t -> event list
(** In recording order. *)

val clear : t -> unit

val render_timeline : ?width:int -> t -> n_vprocs:int -> string
(** ASCII lanes, one per vproc: ['.'] minor, ['M'] major, ['p'] promotion,
    ['G'] global collection and ['b'] barrier wait, bucketed over the
    trace's time span.  Global events are recorded per vproc, so an STW
    collection (every vproc records the full span) still fills all lanes
    while a concurrent one shows only each lane's own slices.  The axis
    is anchored at the earliest recorded start — a trace enabled mid-run
    begins at its first event, with the real start/end labelled in the
    header. *)

val to_chrome_json : t -> string
(** The trace as Chrome trace-event JSON: one complete ("X") event per
    collection with microsecond timestamps and one thread lane per
    vproc.  Each event's args carry its byte count, cause, and NUMA
    node.  Load the output in [about:tracing] or
    {{:https://ui.perfetto.dev}Perfetto} for a zoomable profile view of
    any run. *)

val summary : t -> string
(** Event counts and bytes by kind, followed by a per-vproc breakdown
    (counts + bytes per kind for each vproc that recorded events). *)

(** {2 Offline analysis of a flight recorder}

    [gcprof] and the BENCH_7 server sweep read the slow request tail
    from the recorder's rings with these. *)

val of_recorder : Obs.Recorder.t -> t * int
(** The collections in the recorder's rings, as an enabled trace in
    start-time order.  Each vproc's [Coll_begin]/[Coll_end] events pair
    up per kind (an end closes its kind's latest open begin), so a
    major's nested minor and a global's entry collections pair
    correctly.  The [int] counts the orphans skipped: an end whose
    begin was overwritten, or a begin whose end is past the dump
    point. *)

val request_windows : Obs.Recorder.t -> (float * float) list
(** Every recorded request's in-flight window [(t_done - latency,
    t_done)], from its [Req_done] event. *)

val percentile : float array -> float -> float
(** [percentile sorted p] is the smallest sample with at least [p] of
    the mass at or below it.  [sorted] is ascending and non-empty. *)

val slow_requests : (float * float) list -> (float * float) list
(** The windows whose latency is at or above the p99 (at least one
    when the list is non-empty), in input order. *)

val gc_overlap_share : t -> (float * float) list -> float
(** The share of the windows' summed length that the union of the
    trace's collections covers.  Collections on any vproc count, since
    a parked request can be held up by whichever vproc its partner runs
    on. *)
