(** The always-on GC flight recorder.

    One fixed-capacity {!Ring} per vproc holding packed {!Event}s, plus
    a NUMA traffic matrix (source node x destination node bytes copied)
    and a 1-in-N allocation sampler.  Recording an event is a handful of
    int stores; the recorder is created enabled and is intended to stay
    on for every run, including fuzzing. *)

type t

val create :
  ?capacity:int ->
  n_vprocs:int ->
  n_nodes:int ->
  node_of_vproc:(int -> int) ->
  unit ->
  t
(** [capacity] (default 4096) is events kept per vproc before overwrite. *)

val sample_every : int
(** The allocation sampling period: one allocation in 64 is recorded. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val n_vprocs : t -> int
val n_nodes : t -> int
val node_of_vproc : t -> int -> int

val record : t -> vproc:int -> t_ns:float -> Event.t -> unit
(** No-op when disabled or [vproc] is out of range. *)

val record_copy : t -> src_node:int -> dst_node:int -> bytes:int -> unit
(** Add copied bytes to the NUMA traffic matrix. *)

val sample_alloc : t -> vproc:int -> t_ns:float -> bytes:int -> unit
(** Count an allocation; every [sample_every]-th one is recorded as an
    [Alloc_sample] event. *)

val matrix_get : t -> src_node:int -> dst_node:int -> int
val matrix_total : t -> int

val events : t -> vproc:int -> (int * float * Event.t) list
(** Surviving events for [vproc], oldest first, as
    [(sequence number, virtual time ns, event)]. *)

val dropped : t -> vproc:int -> int
val total_events : t -> vproc:int -> int

val merge : into:t -> t -> unit
(** Replay [src]'s surviving events into [into]'s rings and add the
    traffic matrices elementwise (when node counts agree). *)

val to_string : t -> string
(** Serialize to the [obs-dump v1] text format. *)

val of_string : ?partial:bool -> string -> (t, string) result
(** Parse a dump produced by {!to_string}.  Strict by default: a
    malformed line, a missing ["end"] terminator (truncation), or
    content after it is an [Error].  [~partial:true] salvages what it
    can instead — unparsable lines are skipped and a missing terminator
    is tolerated.  The dump's ["dropped"] lines are restored into the
    rings' drop counters either way. *)

val dump_tail : t -> string
(** Human-readable tail (the last 32 events) of each vproc's ring, for
    post-mortem printing alongside a failing trace. *)
