(** The shared heap context and per-vproc mutator state.

    One [Ctx.t] represents a running memory system: the simulated store,
    the cost model for the machine it runs on, the global heap, and one
    {!mutator} per vproc.  All simulated-time charging funnels through
    {!charge} and the charged accessors here, so collectors and the
    mutator API account every word they touch. *)

open Heap

(* The record fields below are exposed (not private) because the
   collectors and the scheduler legitimately mutate clocks and flags;
   application code should treat them as read-only and use the charged
   accessors. *)

type accum
(** A vproc's unboxed time accumulators, written only by {!charge_ns}. *)

type mutator = {
  id : int;
  node : int;  (** NUMA node of the hosting core *)
  lh : Local_heap.t;
  roots : Roots.t;  (** the vproc's root cells *)
  proxies : Roots.t;
      (** cells holding pointers to this vproc's live proxy objects; the
          local collectors treat each proxy's referent as a root *)
  remembered : Remember.t;
      (** mutated old-area slots holding nursery pointers (the write
          barrier of {!Mut}); scanned and cleared by minor collections *)
  mutable now_ns : float;  (** the vproc's virtual clock *)
  mutable in_gc : bool;
      (** in collector context: {!charge_ns} also counts the time as
          collector time.  Written only through {!set_in_gc}. *)
  accum : accum;
  stats : Gc_stats.t;
      (** the vproc's counters; see {!span}.  [stats.gc_ns] is current
          whenever the vproc is outside collector context, including
          while the {!set_on_collection} observer runs; inside, it lags
          by the time charged since the vproc entered. *)
}

type evac = {
  ev_cause : Obs.Gc_cause.t;  (** why this collection was requested *)
  mutable ev_from : Sim_mem.Chunk.t list;
      (** condemned (from-space) chunks; their [Chunk.from_space] flags
          are set until the collection releases them *)
  ev_large : int Queue.t;
      (** marked large objects whose fields still need scanning *)
  ev_copied_by : int array;  (** bytes evacuated, per vproc *)
  ev_claims : (int, int) Hashtbl.t;
      (** [Chunk.id -> vproc] evacuation claims for parallel slices;
          empty under the STW collector *)
}
(** One global collection's evacuation state, shared by both collectors
    (see {!Global_cycle}). *)

type conc_state = {
  cg_evac : evac;  (** the cycle's evacuation state *)
  cg_log : Remember.t;
      (** mutation log, active generation: global slots the write
          barrier saw stores to while evacuation was in progress.
          Flipped into [cg_drain] so draining overlaps with mutators
          appending to the next generation *)
  mutable cg_drain : int array;
      (** mutation log, draining generation: an address-sorted snapshot
          the collector works through concurrently *)
  mutable cg_drain_pos : int;  (** next unprocessed slot in [cg_drain] *)
  cg_entered : bool array;  (** per-vproc root handshake done *)
  cg_keep_done : bool array;
      (** per-vproc overlapped conservative-keep pass done *)
  cg_taints : int array;
      (** per-vproc from-space re-acquisition counter: mutator-context
          reads that touch a condemned address or return a from-space
          pointer (and channel commits handing one over) bump it; the
          ratify compares it against the handshake snapshot to decide
          which vprocs must stop *)
  cg_hs_taints : int array;  (** [cg_taints.(v)] at (re-)handshake *)
  cg_reclean : int array;
      (** per-vproc count of barrier-free re-clean slices this cycle
          (re-handshakes of tainted vprocs while the cycle is quiescent,
          so the ratify stops only vprocs dirtied since) *)
  cg_t_start : float;  (** virtual time the collection started *)
  mutable cg_slices : int;  (** collector slices run so far *)
  cg_cycle : int;
      (** 0-based id of this concurrent cycle (the global-collection
          count when it started), threaded through every [Conc_*] obs
          event so gcprof can reconstruct per-cycle phase timelines *)
}
(** In-flight concurrent global collection (see {!Concurrent_gc}).  Kept
    here so the {!Mut} write barrier, the scheduler, and the checkers can
    consult it without a dependency cycle. *)

type t = {
  store : Store.t;
  cost : Numa.Cost_model.t;
  l2_filter : Numa.Cost_model.filter;
      (** [cost]'s MRU-line filter, which the charged accessors test
          inline before any cross-module call *)
  pages : Sim_mem.Memory.pages;
      (** the store's page table, for the same inline test *)
  global : Global_heap.t;
  params : Params.t;
  muts : mutator array;
  global_roots : Roots.t;
      (** runtime-held references to global objects (channels, interned
          data); forwarded by the global collector only *)
  mutable global_gc_pending : bool;
  mutable global_budget_bytes : int;
      (** trigger threshold for global collection; starts at
          [n_vprocs * params.global_budget_per_vproc] and grows if a
          collection cannot get usage back under it *)
  mutable safe_point_hook : t -> mutator -> unit;
      (** called at an allocation safe point when a global collection is
          pending; the runtime installs a scheduler barrier here.  The
          default hook runs the global collection synchronously, which is
          correct when no other mutator is running concurrently. *)
  mutable gc_depth : int;
      (** nesting depth of in-flight collections (a major runs a minor; a
          global runs both per vproc); maintained by the collectors via
          {!enter_collection}/{!exit_collection} *)
  mutable on_collection : (t -> Gc_trace.kind -> unit) option;
      (** observer fired each time the {e outermost} collection finishes
          — a deterministic trigger point at which the whole heap is
          consistent (used by the model-differential fuzzer) *)
  mutable conc : conc_state option;
      (** the in-flight concurrent global collection, if any; owned by
          {!Concurrent_gc} *)
  stats : Gc_stats.t;
      (** the global-collection tally ({!global_cycle_done}); the other
          counters are per vproc.  This and the three stores below are
          written only by the recording calls *)
  trace : Gc_trace.t;  (** collector event trace (disabled by default) *)
  metrics : Metrics.t;
      (** per-vproc pause/copied-byte distributions and steal/chunk
          counters (always on; see {!Metrics}) *)
  obs : Obs.Recorder.t;
      (** the flight recorder: per-vproc event rings and the NUMA
          traffic matrix (always on; see {!Obs.Recorder}) *)
}

val create :
  ?params:Params.t ->
  ?cap_scale:float ->
  machine:Numa.Topology.t ->
  n_vprocs:int ->
  policy:Sim_mem.Page_policy.t ->
  unit ->
  t
(** Build the store, cost model (vprocs assigned sparsely across nodes),
    global heap, and [n_vprocs] mutators with their local heaps placed
    under [policy].  Raises [Invalid_argument] on bad parameters. *)

val mutator : t -> int -> mutator
val n_vprocs : t -> int

val conc_active : t -> bool
(** Is a concurrent global collection in flight? *)

val conc_from_chunks : t -> Sim_mem.Chunk.t list
(** Condemned chunks of the in-flight concurrent collection ([[]] when
    none is active).  Checkers use this to account for pages that are
    still tagged global but no longer in the heap's in-use set. *)

val set_safe_point_hook : t -> (t -> mutator -> unit) -> unit
val request_global_gc : t -> unit
val set_global_budget : t -> int -> unit

(** {2 Collection observation (checker hooks)} *)

val set_on_collection : t -> (t -> Gc_trace.kind -> unit) option -> unit
(** Install (or clear) the post-collection observer.  It fires after
    every top-level minor, major, promotion, and global collection —
    including the ones allocation triggers implicitly — never from
    inside an enclosing collection. *)

val enter_collection : t -> unit
(** Collector-side bracket; see {!type:t.gc_depth}. *)

val exit_collection : t -> Gc_trace.kind -> unit
(** Close the bracket opened by {!enter_collection}; fires the observer
    when the outermost collection of the given kind completes. *)

val iter_all_roots :
  t -> (vproc:int option -> proxy:bool -> Roots.cell -> unit) -> unit
(** Enumerate every root cell the runtime holds: per-vproc root and
    proxy cells ([vproc = Some id]) and the context-wide global roots
    ([vproc = None]).  Uncharged; intended for checkers. *)

(** {2 Recording}

    The only writers of the four telemetry stores (apart from
    {!Alloc}'s allocation counters and sampler).  Each call records one
    fact, in this order: the vproc's {!Gc_stats} counters, the
    {!Gc_trace} timeline (when enabled), {!Metrics}, and the flight
    recorder's ring last.  Recording never charges virtual time. *)

val emit : ?t_ns:float -> t -> mutator -> Obs.Event.t -> unit
(** A fact only the ring keeps (a span's [Coll_begin], phase markers,
    chunk releases, [Conc_*] summaries), on [m]'s ring, stamped [t_ns]
    (default: [m]'s clock). *)

val span :
  ?slice:bool ->
  ?batched:int ->
  t ->
  mutator ->
  Gc_trace.kind ->
  cause:Obs.Gc_cause.t ->
  t_start:float ->
  bytes:int ->
  unit
(** [m]'s collection span of this kind ended at its clock, after
    starting at [t_start] and copying [bytes]: its pause is the clock
    minus [t_start].  Counts it in [m.stats] (a [Global] span adds only
    its bytes; a [Barrier] wait counts nothing there), then records it
    in the timeline, the metrics and as the ring's [Coll_end].
    [batched] (default 0) is the values a promotion batch copied.
    [slice] (default [false]) marks a concurrent-collector slice, which
    the metrics do not count toward its cause: that is counted once per
    collection, on the ratify spans. *)

val chunk_acquired : t -> mutator -> node:int -> fresh:bool -> unit
(** [m] acquired a global chunk homed on [node]; [fresh] when newly
    mapped. *)

val ratify_outcome : t -> mutator -> skipped:bool -> unit
(** One concurrent cycle's ratify stopped [m], or left it running. *)

val global_cycle_done : t -> copied:int -> unit
(** A global collection finished, having copied [copied] bytes in all;
    counted in the context's {!Gc_stats}. *)

val steal_probe : t -> mutator -> victim:int -> success:bool -> unit
(** [m] probed [victim]'s deque, and took an item when [success]. *)

val request_done : t -> mutator -> latency_ns:float -> unit
(** A request finished on [m], [latency_ns] after it arrived. *)

val gc_totals : t -> Gc_stats.t
(** The run's collector totals: every vproc's counters summed, with
    [global_count] from the context, the only place it is counted. *)

(** {2 Charging} *)

val set_in_gc : mutator -> bool -> unit
(** Enter ([true]) or leave ([false]) collector context.  Leaving
    publishes the vproc's collector time to [stats.gc_ns].  A collector
    leaves before its {!exit_collection}, so the observer sees every
    vproc's [gc_ns] exact. *)

val charge_ns : mutator -> float -> unit
(** Advance [m]'s clock by [ns]; in collector context, count them as
    collector time too. *)

val charge_work : t -> mutator -> cycles:float -> unit
val read_word : t -> mutator -> int -> int
(** Charged single-word load of a tagged word (header, forwarding word
    or value; see {!Sim_mem.Memory.get}).  While a concurrent global
    cycle is in flight, mutator-context loads that touch a condemned
    address or return a from-space pointer bump the vproc's
    re-acquisition taint (see {!conc_state}). *)

val in_condemned : t -> int -> bool
(** Does the address lie in a condemned (from-space) global chunk? *)

val conc_taint : t -> mutator -> Value.t -> unit
(** Explicit taint for values that reach [m] without a heap read — a
    channel commit handing over a message, for example.  No-op unless a
    concurrent cycle is active, [m] is outside collector context, and
    the value is a from-space pointer. *)

val write_word : t -> mutator -> int -> int -> unit
val touch : t -> mutator -> addr:int -> bytes:int -> unit
(** Charge an access without transferring data through the API (e.g. the
    mutator "using" a raw payload). *)

val bulk_touch : t -> mutator -> addr:int -> bytes:int -> unit
(** Streaming variant of {!touch} for sequential scans and copies. *)

(** {2 Charged object access (mutator API)} *)

val get_field : t -> mutator -> int -> int -> Value.t
(** Charged field read.  If the field holds a pointer to an object that
    was promoted away (its header replaced by a forwarding word), the
    forwarding is followed and the global address returned — aliases of
    promoted objects stay usable until the next local collection repairs
    them. *)

val get_raw : t -> mutator -> int -> int -> int64
(** [get_raw t m addr i] — charged load of raw body word [i], all 64
    bits.  It taints like {!read_word}, on the word's low 63 bits. *)

val get_float : t -> mutator -> int -> int -> float
(** {!get_raw} read as a double, without an intermediate [int64]. *)

val set_raw : t -> mutator -> int -> int -> int64 -> unit
(** Charged store into raw body word [i]. *)

val set_float : t -> mutator -> int -> int -> float -> unit

val header_of : t -> mutator -> int -> int
(** Charged header read (follows no forwarding).  Like {!read_word},
    but the word is read with {!Sim_mem.Memory.get_unchecked}. *)

val resolve : t -> mutator -> Value.t -> Value.t
(** Follow a forwarding word if the referenced object was promoted out
    from under a held reference. *)

val census : t -> Census.t
(** Uncharged heap census (see {!Heap.Census}). *)

val check_invariants : t -> (Invariants.summary, string list) result
(** Uncharged whole-heap validation (test/debug). *)
