(** Object promotion (paper §3.1, §3.3).

    When a vproc must share an object with another vproc — a stolen work
    item's captured environment, a CML message — the object graph is
    copied into the global heap first, preserving the invariant that no
    pointers lead into a local heap.  Mechanically this is a major
    collection whose root set is the single promoted value: the local
    copies are left behind with forwarding words, to be skipped by later
    local collections. *)

val value :
  ?reason:Obs.Gc_cause.reason -> Ctx.t -> Ctx.mutator -> Heap.Value.t ->
  Heap.Value.t
(** [value ctx m v] — returns the global version of [v].  Immediates and
    already-global pointers return unchanged.  The synchronization cost
    of any chunk acquisition is charged, and a global collection is
    requested if the chunk budget is exceeded.  [reason] (default
    [Explicit]) says which runtime event forced the promotion; it is
    surfaced as the collection's {!Obs.Gc_cause.t}. *)

val is_local : Ctx.t -> Ctx.mutator -> Heap.Value.t -> bool
(** Does [v] point into [m]'s local heap? *)

(** {1 Batched promotion — the promotion write buffer}

    The scheduler's sharing points rarely promote one value: a steal
    claims every env cell of the stolen item, a [sync] publishes every
    send arm's message, and a busy quantum performs runs of consecutive
    [send]s.  A [batch] lets those share one promotion cycle: the
    machinery spin-up ({!Params.promote_spinup_cycles}) is charged
    once, the destination (and its chunk cursor) is reused so the
    copies pack together, and the batch is published with one
    fence-equivalent at {!batch_end}, recorded as a single
    [promote_count] cycle and a single pause with cause
    [Promotion_batched].

    Every {!batch_add} leaves the heap fully consistent (scan queue
    drained, forwarding words written), so mutator work — including
    allocation, local collections, and global-GC safe points — may
    happen freely between adds of an open batch. *)

type batch

val batch_begin :
  ?reason:Obs.Gc_cause.reason -> Ctx.t -> Ctx.mutator -> batch
(** Open a write buffer for [m]'s promotions.  Costs nothing until the
    first local root is added.  [reason] (default [Explicit]) applies
    to the whole batch. *)

val batch_add : batch -> Heap.Value.t -> Heap.Value.t
(** Promote one root through the buffer, returning its global version
    (immediates and already-global values unchanged, as {!value}).
    Raises [Invalid_argument] after {!batch_end}. *)

val batch_end : batch -> unit
(** Publish: record the batch as one promotion cycle (stats, trace,
    pause telemetry).  A batch that copied nothing records nothing.
    Idempotent. *)

val batch_values : batch -> int
(** Local roots actually copied through the buffer so far. *)

val batch :
  ?reason:Obs.Gc_cause.reason -> Ctx.t -> Ctx.mutator ->
  Heap.Value.t array -> Heap.Value.t array
(** [batch ctx m vs] — promote all of [vs] in one cycle; equivalent to
    {!batch_begin}, {!batch_add} over [vs] in order, {!batch_end}.
    Aliasing among the [vs] (shared tails, cycles) is preserved exactly
    as with repeated {!value} calls, via forwarding words. *)
