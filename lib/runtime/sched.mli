(** The vproc scheduler: cooperative fibers over effect handlers, driven
    in *virtual time*.

    Each vproc owns a work deque and a runnable queue.  The scheduler
    always advances the vproc with the smallest virtual clock, so "48
    cores" are simulated faithfully on one host thread: parallel work
    costs are charged to per-vproc clocks, and the program's makespan is
    the clock of the vproc that finishes last.

    Scheduling points are explicit, as in Manticore: spawning, awaiting,
    channel operations, quantum expiry ({!tick}), and the global-GC safe
    point (the allocation-limit-zeroing trick of §3.4 becomes a fiber
    yield followed by a scheduler-run collection).  Fiber code must obey
    the rooting discipline: any heap reference held across a call that
    can allocate or suspend must live in a {!Manticore_gc.Roots} cell.

    Work stealing (§2.3): an idle vproc takes the *oldest* item from a
    victim's deque.  The item's captured environment is then promoted to
    the global heap — lazy promotion, paid only when work actually moves
    (§3.1); the promotion is charged to the victim, which services the
    steal. *)

open Heap
open Manticore_gc

type t
type future
type chan

(** Scheduler counters.  Steals are not counted here: every executed
    steal is a successful {!Manticore_gc.Ctx.steal_probe}, so
    [(Metrics.aggregate (ctx t).metrics).steal_successes] is the count. *)
type stats = {
  mutable spawns : int;
  mutable inline_runs : int;  (** futures claimed and run by the awaiter *)
  mutable sends : int;
      (** messages delivered: one per rendezvous, whether the sender or
          the receiver arrived second and whether either side was a
          plain {!send}/{!recv} or a {!sync} arm.  A send that fails
          with {!Closed} delivers nothing and is not counted. *)
  mutable yields : int;
      (** fiber yields: {!yield}, {!tick} at quantum expiry, and the
          global-GC safe point *)
  mutable steal_promoted_bytes : int;
      (** bytes promoted out of victims' local heaps by steals *)
}

type steal_policy =
  | Random_victim  (** uniformly random victims — the paper's scheduler *)
  | Near_first
      (** prefer victims by NUMA distance — same node first, then the
          rest of the thief's package, then remote packages (ROADMAP
          item 3: stolen work's promoted data then crosses the cheapest
          available link) *)

val create :
  ?quantum_ns:float -> ?eager_promotion:bool -> ?batch_promotions:bool ->
  ?steal_policy:steal_policy -> ?seed:int -> Ctx.t -> t
(** Wrap a heap context; installs the scheduler's global-GC safe-point
    hook.  [quantum_ns] (default 50,000) bounds a fiber's run between
    yields at {!tick} points.  [eager_promotion] promotes every spawned
    environment immediately instead of lazily at steals — the ablation
    of the paper's lazy scheme.  [batch_promotions] (default [true])
    routes the scheduler's sharing points through a promotion write
    buffer ({!Manticore_gc.Promote.batch_begin}): the env cells of one
    steal, the send arms of one {!sync}, and runs of consecutive
    {!send}s within a turn each publish in a single batched promotion
    cycle instead of one full cycle per object graph.  Disable it to
    measure the singleton baseline. *)

val ctx : t -> Ctx.t
val stats : t -> stats

(** {2 Fiber API — call only from fiber code} *)

val spawn :
  t -> Ctx.mutator -> env:Value.t array ->
  (Ctx.mutator -> Value.t array -> Value.t) -> future
(** Push a unit of work onto the calling vproc's deque.  [env] values are
    rooted with the spawner and handed (possibly promoted) to whichever
    vproc executes the work. *)

val await : t -> Ctx.mutator -> future -> Value.t
(** Wait for a future.  A still-queued item is claimed and run inline by
    the awaiter (stealing it first if it sits on another vproc's deque);
    a running item suspends this fiber.  Re-raises the fiber's exception.
    The returned value is promoted if it crosses vprocs. *)

val tick : t -> Ctx.mutator -> unit
(** A safe point: yields if the quantum expired or a global collection is
    pending.  Combinators call this once per element of parallel work. *)

val yield : t -> Ctx.mutator -> unit

val new_channel : t -> Ctx.mutator -> chan
(** A CML-style synchronous channel, represented by a global-heap object
    rooted with the runtime.  The root lives until {!close_channel} or
    the end of {!run}, whichever comes first — channels are not
    permanent global roots. *)

exception Closed
(** Raised by {!send}, {!recv} and {!sync} on a closed channel, and
    delivered to fibers still parked on a channel when it is closed. *)

val close_channel : t -> chan -> unit
(** Drop the channel's global root and mark it closed.  Safe while
    fibers are still blocked on the channel: each parked fiber's rooted
    resources (sender messages, receiver proxies, and — for a {!sync}
    choice with an arm here — every sibling arm's resources) are
    released and the fiber is woken with {!Closed}.  Later operations on
    the channel raise {!Closed}.  Idempotent.  Channels left open are
    closed automatically when {!run} returns. *)

val send : t -> Ctx.mutator -> chan -> Value.t -> unit
(** Synchronous send: promotes the message (the sharing point of §3.1)
    and blocks until a receiver takes it.  Raises {!Closed} on (or
    after) {!close_channel}. *)

val recv : t -> Ctx.mutator -> chan -> Value.t
(** Synchronous receive: blocks by publishing a proxy (footnote 1) that
    stands for this fiber until a sender claims it.  Raises {!Closed} on
    (or after) {!close_channel}. *)

(** {2 First-class events (Parallel CML, §2.1)} *)

type event =
  | Send_evt of chan * Value.t  (** offer a message on a channel *)
  | Recv_evt of chan  (** offer to take a message *)

val sync : t -> Ctx.mutator -> event list -> int * Value.t
(** Synchronize on exactly one of the events: the index of the committed
    arm and, for a receive, the message ([Value.unit] for a send).  Arms
    of one choice commit atomically — a partner taking one arm
    invalidates the siblings.  Raises [Invalid_argument] on an empty
    list and {!Closed} if any arm's channel is already closed (or closes
    while parked). *)

val select : t -> Ctx.mutator -> chan list -> int * Value.t
(** [sync] over receive events only. *)

(** {2 Top level} *)

val run : t -> main:(Ctx.mutator -> Value.t) -> Value.t
(** Run [main] as the initial fiber on vproc 0 and drive the scheduler
    until it completes.  Returns its (globalized) result; re-raises its
    exception.  Raises [Failure] on deadlock. *)

val elapsed_ns : t -> float
(** Virtual makespan of the last {!run}: the largest vproc clock when the
    main fiber completed. *)
