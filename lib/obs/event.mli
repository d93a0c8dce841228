(** One flight-recorder event.

    Events are stored packed as [(tag, a, b, c)] int quadruples in the
    ring buffer; [encode]/[decode] are that codec, and
    [to_strings]/[of_strings] the text form used by dump files. *)

type coll_kind =
  | Minor
  | Major
  | Promotion
  | Global
  | Barrier
      (** Time a vproc spent *waiting* at a global-collection
          synchronization point (STW entry/exit barrier, or the
          concurrent collector's ratify pause), as opposed to doing copy
          work.  Recorded in addition to the enclosing [Global] span so
          wait vs copy attribution is visible. *)

type global_phase =
  | Entry | Roots | Cheney | Retarget | Sweep | Exit  (** STW phases *)
  | Mark | Claim | Evacuate | Handshake  (** concurrent-collector phases *)

type t =
  | Coll_begin of { kind : coll_kind; cause : Gc_cause.t }
  | Coll_end of { kind : coll_kind; cause : Gc_cause.t; bytes : int }
      (** [bytes] = bytes copied (or promoted) by this collection. *)
  | Chunk_acquire of { node : int; fresh : bool }
      (** A global-heap chunk was claimed; [fresh] when newly mapped
          rather than reused from the pool's free list. *)
  | Chunk_release of { node : int }
  | Steal_attempt of { victim : int }
  | Steal_success of { victim : int }
  | Global_phase of { phase : global_phase }
  | Alloc_sample of { bytes : int }
      (** Sampled allocation (1-in-[sample_every] objects). *)
  | Req_done of { latency_ns : int }
      (** A server-workload request completed on this vproc;
          [latency_ns] is its end-to-end latency from (virtual) arrival
          to response.  Lets gcprof correlate slow requests with the
          collections that ran during them. *)
  | Conc_phase of { cycle : int; phase : global_phase; dur_ns : int }
      (** One concurrent-collector slice finished on this vproc:
          [phase] says what it did (mark roots, claim a chunk, evacuate
          a slice, handshake a mutator, or retarget/keep local
          forwarding words) and [dur_ns] how much virtual time it
          charged — the input to gcprof's per-phase attribution for
          concurrent collections.  [cycle] names the concurrent cycle
          the slice belonged to (0-based). *)
  | Conc_slices of { cycle : int; count : int }
      (** One scheduler turn dispatched [count] (> 1) concurrent
          evacuation slices on distinct vprocs — the lead slice plus
          its assists (see [Params.conc_parallel_slices]). *)
  | Conc_ratify of { cycle : int; ratified : int; skipped : int }
      (** The ratify barrier finished a concurrent cycle stopping
          [ratified] vprocs and leaving [skipped] quiescent ones
          running (see [Params.conc_ratify_dirty_only]). *)
  | Conc_round of { cycle : int; exit : bool; straggler : int; wait_ns : int }
      (** One synchronization round of [cycle]'s ratify barrier, emitted
          on the lead vproc: the entry round ([exit = false]) collects
          the taint-dirty vprocs and the exit round releases them.
          [straggler] is the vproc that bounded the round (last to
          arrive, or longest ratify work) and [wait_ns] the spread it
          imposed — the inputs to [gcprof --cycles] straggler naming. *)
  | Conc_cycle of { cycle : int; dur_ns : int; slices : int }
      (** A concurrent cycle completed: emitted on the lead vproc at
          ratify exit, [dur_ns] back to the cycle's start and [slices]
          the evacuation/mark/keep slices it ran.  Bounds the window
          [gcprof --cycles] attributes phase time within. *)

val kinds : (coll_kind * string) array
(** Every collection kind with its name, indexed by {!kind_code}. *)

val phases : (global_phase * string) array
(** Every global phase with its name, indexed by its packed code. *)

val kind_code : coll_kind -> int
val kind_to_string : coll_kind -> string
val phase_to_string : global_phase -> string

val encode : t -> int * int * int * int
(** [(tag, a, b, c)] packed form. *)

val decode : tag:int -> a:int -> b:int -> c:int -> t option

val to_strings : t -> string list
(** Space-separable words: event name followed by operands. *)

val of_strings : string list -> (t, string) result
