(** Concurrent global collection: the bounded-pause alternative to
    {!Global_gc}, selectable via {!Params.global_gc_mode}.

    Instead of one all-vproc barrier covering the whole copy phase, the
    cycle runs as a sequence of bounded slices interleaved with mutator
    execution, running the {!Global_cycle} phases.  [start] condemns
    every in-use global chunk; each [step] then runs one slice on the
    vproc with the smallest virtual clock:

    - a {e handshake} for a vproc that has not yet entered the cycle —
      its roots, proxies, and local-heap referents are forwarded into
      to-space (pairwise, no barrier; piggy-backed on the safe-point
      poll when driven through {!Global_gc.install_sync_hook}), and its
      from-space read-taint counter is snapshotted for the dirtiness
      test below;
    - an {e evacuation} slice — claim a to-space chunk (per-chunk claims
      arbitrate between parallel slices) and Cheney-scan at most
      {!Params.conc_slice_bytes} of it;
    - a {e drain} slice over the flipped-out generation of the mutation
      log that the {!Mut} write barrier fills for stores into global
      objects while the cycle is active (mutators keep appending to the
      live generation; only the generation flip is exclusive);
    - a {e keep} slice — evacuate and retarget the vproc's local
      forwarding words whose targets are condemned, concurrently instead
      of inside the final barrier.

    When no work remains the cycle {e ratifies}: one short barrier
    drains the residual log, rescans the {e dirty} vprocs' root sets and
    local heaps and the global roots, closes the residual to-space scan,
    keeps the stopped vprocs' forwarded targets, and releases
    from-space.  With {!Params.conc_ratify_dirty_only} (the default)
    only vprocs whose from-space re-acquisition taint changed since
    their last (re-)handshake are stopped ({!Ctx.read_word} counts every
    mutator-context load that touches a condemned address or returns a
    from-space pointer; channel commits count the OCaml-side hand-offs)
    — the handshake leaves a vproc with no from-space reference and
    stashing one again requires exactly such a read, so an untainted
    vproc keeps running.  Before the barrier, tainted vprocs are
    {e re-cleaned} concurrently: while the cycle is otherwise quiescent,
    a barrier-free re-handshake slice re-forwards their roots and local
    heap and re-snapshots the taint (bounded rounds per cycle), so the
    barrier typically stops nobody but its one lead vproc — drawn from
    the dirty set when it is non-empty, so no clean vproc is ever
    stopped.  The barrier does O(dirty roots + mutated slots) work, not
    O(live global data) — that is where the bounded-pause claim comes
    from.

    Telemetry: every slice and the ratify span are recorded as their own
    [Global] pauses (the per-slice pause is the headline metric), with
    [Conc_phase] events attributing slice time to
    mark/claim/evacuate/handshake and barrier waits recorded under the
    [Barrier] pause kind, exactly as in the STW collector. *)

val active : Ctx.t -> bool
(** A concurrent cycle is in flight (between [start] and the ratify). *)

val start : ?cause:Obs.Gc_cause.t -> Ctx.t -> unit
(** Begin a cycle: condemn the in-use chunks.  No-op if a cycle is
    already active.  [cause] defaults to [Forced]. *)

val step : Ctx.t -> bool
(** Run one bounded slice on the minimum-clock vproc.  Returns [true]
    while the cycle is still in flight; the call that finds no work left
    performs the ratify barrier and returns [false].  Returns [false]
    immediately if no cycle is active. *)

val assist : Ctx.t -> Ctx.mutator -> bool
(** Run one bounded {e evacuation} slice on [m], for parallel dispatch
    alongside the lead {!step}.  Only evacuation work is eligible
    (handshakes, drains and the ratify stay with the lead slice), and
    only once [m] has handshaken.  Returns [true] if a slice ran. *)

val step_turn : Ctx.t -> idle:(int -> bool) -> bool
(** One scheduler turn of collector work: the lead {!step} plus up to
    [Params.conc_parallel_slices - 1] {!assist} slices on distinct
    vprocs for which [idle] holds (the scheduler passes "no runnable
    fiber and an empty deque").  Records an [Obs.Event.Conc_slices]
    event when more than one slice ran.  Returns what {!step}
    returned. *)

val finish : Ctx.t -> unit
(** Step until the cycle ratifies.  No-op if no cycle is active. *)

val run : ?cause:Obs.Gc_cause.t -> Ctx.t -> unit
(** [start] followed by [finish]: a complete collection, for callers
    that need run-to-completion semantics (tests, the fuzzer's [Global]
    op). *)
