(** The phases of one global collection (paper §3.4), shared by the
    stop-the-world collector ({!Global_gc}) and the concurrent one
    ({!Concurrent_gc}).  Both sequence them in the same order:

    + {!condemn} the in-use chunks;
    + {!forward_roots} per vproc and {!forward_global_roots} once;
    + the Cheney {!fixpoint} over to-space chunks, claimed per node;
    + the conservative {!keep} pass over local forwarding words;
    + {!release}: the pre-release audit, then from-space and the
      large-object sweep;
    + per-vproc [Global] spans ({!Ctx.span}) and the end-of-cycle
      {!close}.

    Work is charged to the vproc that does it; {!barrier} rounds bring
    vprocs level and record their waits as [Barrier] pauses. *)

val min_clock_vproc : Ctx.t -> Ctx.mutator
(** The vproc with the smallest clock, the lowest index among ties. *)

val condemn : Ctx.t -> cause:Obs.Gc_cause.t -> Ctx.evac
(** Take every in-use chunk as from-space, set its [from_space] flag, and
    return the collection's fresh evacuation state. *)

val in_from : Ctx.t -> int -> bool
(** In a condemned chunk, or a large object (marked, not copied). *)

val dest : Ctx.t -> Ctx.evac -> Ctx.mutator -> Forward.dest
(** The vproc's to-space destination: copied bytes are tallied in
    [ev_copied_by], marked larges queued for a field scan. *)

val forward_roots : Ctx.t -> Ctx.evac -> Ctx.mutator -> unit
(** Forward the vproc's roots, proxy cells and local-heap referents. *)

val forward_global_roots : Ctx.t -> Ctx.evac -> Ctx.mutator -> unit
(** Forward the runtime's global roots, charged to the given vproc. *)

val scan_object : Ctx.t -> dest:Forward.dest -> Ctx.mutator -> int -> int
(** Scan one to-space object; returns its size in bytes. *)

val chunk_pending : Sim_mem.Chunk.t -> bool
val work_pending : Ctx.t -> Ctx.evac -> bool

val pick_chunk : Ctx.t -> Ctx.evac -> Ctx.mutator -> Sim_mem.Chunk.t option
(** The vproc's next pending to-space chunk: its current one, then one
    on its node, then any, preferring chunks no other vproc claimed in
    [ev_claims]. *)

val fixpoint : Ctx.t -> Ctx.evac -> next:(unit -> Ctx.mutator) -> unit
(** Scan to-space until no work is pending, each unit on the vproc
    [next] picks. *)

val barrier :
  Ctx.t ->
  cause:Obs.Gc_cause.t ->
  member:(Ctx.mutator -> bool) ->
  ?on_sync:(float -> unit) ->
  (Ctx.mutator -> unit) ->
  float
(** [barrier ctx ~cause ~member after]: bring every member to the
    latest member clock, recording each wait, then apply [after] to it.
    [on_sync] gets the barrier time first.  Returns that time. *)

val keep_pass : Ctx.t -> Ctx.evac -> Ctx.mutator -> unit
(** Evacuate the condemned, unforwarded targets of the vproc's local
    forwarding words and point each word at the to-space copy. *)

val keep :
  Ctx.t -> Ctx.evac -> member:(Ctx.mutator -> bool) ->
  next:(unit -> Ctx.mutator) -> unit
(** {!keep_pass} on every member, then the closing {!fixpoint}. *)

val release : Ctx.t -> Ctx.evac -> lead:Ctx.mutator -> unit
(** With [CONC_GC_AUDIT=1] (or [true]), first audit every root, proxy,
    local field and local forwarding word, uncharged, and raise
    [Failure] listing each reference still into a condemned chunk
    (the flight recorder's tail goes to stderr).  Then release
    from-space, clearing its flags, and sweep unmarked larges. *)

val close : Ctx.t -> Ctx.evac -> unit
(** Count the collection and its copied bytes in [ctx.stats]
    ({!Ctx.global_cycle_done}), clear the
    pending flag, grow the budget to twice the live bytes when they
    exceed two thirds of it, close the collection bracket, and under
    [MANTICORE_PARANOID=1] re-validate the heap. *)
