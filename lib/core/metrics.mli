(** Per-vproc collector telemetry: pause-time and copied-byte
    distributions for each collection kind, plus chunk-acquire,
    work-stealing and ratify counters and request latency.

    One of the four stores {!Ctx}'s recording calls feed, alongside
    {!Gc_stats}' flat totals, {!Gc_trace}'s optional timeline and the
    flight recorder's ring; the collectors and the scheduler never
    write here directly.  This store keeps the *distributions* the
    paper's evaluation is built on — per-vproc minor/major/promotion/
    global pause percentiles and copied-byte rates — cheaply enough to
    stay on for every run (a recording is a handful of float operations
    into log-scaled histogram buckets).

    A finished run is summarized into a {!snapshot}, a plain value that
    serializes to JSON (round-trippable via {!snapshot_of_json}) for
    offline analysis. *)

(** {2 Minimal JSON}

    The repository deliberately has no JSON dependency; this submodule
    is the small value type + printer + parser the telemetry (and its
    tests, and the Chrome-trace validator) need. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact (single-line) rendering.  Numbers print with enough digits
      to round-trip any finite double. *)

  val parse : string -> (t, string) result
  (** Recursive-descent parser for the full value grammar (objects,
      arrays, strings with escapes, numbers, booleans, null).  Rejects
      trailing garbage. *)

  val member : string -> t -> t option
  (** [member k (Obj _)] looks up key [k]; [None] otherwise. *)
end

(** {2 Recording} *)

type t

val create : ?window_epoch_ns:float -> ?window_epochs:int -> n_vprocs:int -> unit -> t
(** [window_epoch_ns] (default 1 ms) and [window_epochs] (default 8)
    size the sliding windows behind {!window_stats} and {!slo_status}:
    rings of per-epoch sub-histograms over virtual time, where a sample
    lands in the epoch [floor (t_ns / epoch_ns)], advancing time reuses
    the oldest slot, and a sample older than the ring is dropped.
    Raises [Invalid_argument] when either is non-positive. *)

val record_pause :
  ?cause:Obs.Gc_cause.t ->
  ?t_ns:float ->
  t ->
  vproc:int ->
  kind:Gc_trace.kind ->
  ns:float ->
  bytes:int ->
  unit
(** One finished collection phase on [vproc]: its duration and the bytes
    it copied/promoted, attributed to [cause] when given.  [t_ns], when
    given, is the virtual time the pause ended and additionally routes
    the sample into the sliding window (barrier waits and other pauses
    keep separate windows).  Out-of-range vprocs are ignored. *)

val record_request : ?t_ns:float -> t -> vproc:int -> ns:float -> unit
(** One completed request on [vproc] (the vproc that finished it):
    end-to-end latency from arrival to response, in the same log-bucket
    histogram family as pauses so SLO percentiles sit next to GC
    percentiles.  [t_ns] (completion time) additionally routes the
    sample into the request window.  Out-of-range vprocs are ignored. *)

val record_chunk_acquire : t -> vproc:int -> unit
val record_steal : t -> vproc:int -> success:bool -> unit
(** A steal attempt by thief [vproc]; [success] if it yielded an item. *)

val record_ratify : t -> vproc:int -> skipped:bool -> unit
(** One concurrent-cycle ratify outcome for [vproc]: [skipped] when the
    dirty-only barrier left it running, [false] when it was stopped.
    Splits the barrier-wait telemetry into ratified-vs-skipped counts. *)

val merge : into:t -> t -> unit
(** Accumulate another recorder (e.g. a different run of the same
    experiment) bucket-by-bucket.  [into] grows if the source has more
    vprocs. *)

(** {2 Snapshots} *)

type dist = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
}
(** Summary of one distribution.  Percentiles are bucket-resolved (log
    buckets, ~19% relative width) and clamped to the observed
    [min]/[max]; all fields are [0] when [count = 0]. *)

type kind_stats = { pause_ns : dist; copied_bytes : dist }

type vproc_stats = {
  vproc : int;
  minor : kind_stats;
  major : kind_stats;
  promotion : kind_stats;
  global : kind_stats;
  barrier : kind_stats;
      (** time spent waiting at global-collection synchronization points
          (STW entry/exit barriers, concurrent ratify), recorded in
          addition to the enclosing [global] span — subtract to get pure
          copy work.  Snapshots written before this kind existed parse
          with an empty distribution here. *)
  requests : dist;
      (** per-request latency recorded via {!record_request} (ns) *)
  causes : (string * int) list;
      (** collection counts by cause name ({!Obs.Gc_cause.to_string}),
          nonzero entries only, in cause-code order *)
  chunk_acquires : int;
  steal_attempts : int;
  steal_successes : int;
  ratified : int;
      (** concurrent cycles whose ratify barrier stopped this vproc *)
  ratify_skipped : int;
      (** concurrent cycles that left this vproc running (quiescent
          since its handshake).  Snapshots written before the split
          existed parse with zeros here. *)
}

type snapshot = { vprocs : vproc_stats list }

val snapshot : t -> snapshot

val aggregate : t -> vproc_stats
(** All vprocs' histograms merged into one row (reported as vproc [-1]):
    whole-machine percentiles, not an average of per-vproc ones. *)

val kind_stats : vproc_stats -> Gc_trace.kind -> kind_stats

(** {2 Windowed views and SLO} *)

type window_stats = {
  win_pause : dist;  (** non-barrier collection pauses in the window *)
  win_barrier : dist;  (** barrier waits in the window *)
  win_request : dist;  (** request latency in the window *)
  win_epoch_ns : float;
  win_epochs : int;  (** ring size, i.e. the maximum lookback *)
  win_newest_epoch : int;  (** [-1] while no sample has been windowed *)
}

val window_stats : t -> window_stats
(** Current sliding-window percentiles — only samples recorded with
    [?t_ns] appear here. *)

type slo = {
  slo_percentile : float;  (** e.g. [0.99] *)
  slo_threshold_ns : float;
  slo_epochs : int;  (** window length, in window epochs *)
}
(** A declared latency objective: the [slo_percentile] of request
    latency over the last [slo_epochs] epochs stays below
    [slo_threshold_ns]. *)

val set_slo : t -> slo option -> unit
(** Declare (or clear) the objective.  Over-threshold requests are
    counted exactly from declaration on, not bucket-approximated. *)

val slo : t -> slo option

type slo_status = {
  st_slo : slo;
  st_requests : int;  (** requests observed in the SLO window *)
  st_over : int;  (** of which above the threshold *)
  st_attained_ns : float;  (** latency attained at the target percentile *)
  st_burn_rate : float;
      (** [(st_over / st_requests) / (1 - slo_percentile)]: 1.0 means
          exactly on budget, above 1 means burning it down, [0.] when
          the window holds no requests *)
}

val slo_status : t -> slo_status option
(** [None] when no SLO is declared. *)

val window_report : t -> string
(** Human-readable sliding-window percentiles and SLO status — the live
    side of the report, which the (shape-pinned) JSON snapshot omits.
    Empty when no sample was ever windowed and no SLO is declared. *)

(** {2 Serialization} *)

val snapshot_to_json : snapshot -> string
val snapshot_of_json : string -> (snapshot, string) result
(** Inverse of {!snapshot_to_json}: [snapshot_of_json (snapshot_to_json s)
    = Ok s] for any snapshot (floats are printed round-trippably). *)

val pp_summary : Format.formatter -> snapshot -> unit
(** Human-readable per-vproc percentile table (uses {!Units}). *)

(** {2 OpenMetrics exposition and streaming}

    One exposition is a self-contained OpenMetrics text block ending in
    [# EOF]: cumulative summaries per vproc x kind, the sliding-window
    summaries, counters, and (when declared) the SLO burn rate.  The
    stream appends one block per emission so a telemetry file holds a
    time series of expositions that can be tailed while a run is live
    and checked offline with [validate_metrics --openmetrics]. *)

val to_openmetrics : ?now_ns:float -> t -> string
(** [now_ns] stamps the [gcsim_virtual_time_ns] gauge (default: the
    newest event time recorded). *)

val stream_to : t -> path:string -> interval_ns:float -> unit
(** Start streaming: (re)creates [path] and arms periodic emission every
    [interval_ns] of virtual time.  The first {!stream_tick} emits
    immediately. *)

val stream_tick : t -> now_ns:float -> unit
(** Emit an exposition if the interval has elapsed; a cheap comparison
    otherwise (safe to call every scheduler turn). *)

val stream_close : t -> now_ns:float -> unit
(** Emit one final exposition and close the file.  No-op when no stream
    is armed. *)

val stream_emitted : t -> int
(** Expositions written so far on the armed stream (0 when none). *)
