(** The parallel stop-the-world global collection (paper §3.4).

    Triggered when the in-use chunk bytes exceed the budget.  The vproc
    with the smallest clock leads; every vproc is brought to a safe
    point (in the real runtime by zeroing its allocation-limit pointer;
    here by the scheduler's barrier) and runs its minor and major
    collections, and after an entry barrier all of them run the
    {!Global_cycle} phases back to back:

    + condemn: all in-use chunks become from-space;
    + roots: each vproc forwards its roots, proxies and local-heap
      referents into a to-space chunk of its own, and the leader the
      global roots;
    + Cheney: vprocs claim unscanned to-space chunks — preferring chunks
      resident on their own node — and scan them, evacuating reachable
      from-space objects as they go;
    + retarget: the conservative keep pass over local forwarding words,
      then a closing fixpoint;
    + sweep: the pre-release audit, then from-space returns to the free
      pool and unmarked large objects are swept;
    + exit: a final barrier, the per-vproc pause records and the
      end-of-cycle bookkeeping.

    Parallelism is simulated by charging each unit of claimed work to the
    claiming vproc's virtual clock and always handing the next unit to
    the vproc whose clock is smallest; the barriers advance every clock
    to the maximum. *)

val run : ?cause:Obs.Gc_cause.t -> Ctx.t -> unit
(** Requires every mutator to be stopped at a safe point (no fiber holds
    an unrooted heap reference).  [cause] (default [Forced]) attributes
    the collection — and the per-vproc minors/majors it runs — in the
    trace, metrics, and flight recorder.  Raises [Failure] while a
    concurrent cycle is in flight. *)

val dispatch : ?idle:(int -> bool) -> Ctx.t -> unit
(** Service a pending global collection: an in-flight concurrent cycle
    advances by one {!Concurrent_gc.step_turn} (assists go to the vprocs
    [idle] accepts; default none); otherwise {!Params.Stw} runs a full
    collection and {!Params.Concurrent} starts a cycle.  The scheduler
    calls this once per turn while a collection is pending. *)

val install_sync_hook : Ctx.t -> unit
(** Make allocation safe points {!dispatch} synchronously — appropriate
    for single-threaded use and tests.  The scheduler installs its own
    hook instead. *)
