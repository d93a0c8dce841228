(* Concurrent global collection: incremental chunk evacuation with
   bounded pauses.

   The STW collector (Global_gc) stops every vproc behind one barrier for
   the whole copy phase.  Here the cycle is split into bounded slices
   that interleave with mutator execution in virtual time:

   - [start] condemns every in-use chunk (from-space), forwards the
     runtime's global roots, and leaves the mutators running;
   - each [step] runs one slice on the vproc with the smallest clock:
     first a per-vproc *handshake* (evacuate that vproc's roots, proxies
     and local-heap referents into to-space), then *evacuation* slices
     (claim a to-space chunk and Cheney-scan at most
     [Params.conc_slice_bytes] of it), then *drains* of the mutation-log
     generation the collector last flipped out of [Ctx.cg_log] (the
     {!Mut} write barrier keeps appending to the live generation
     meanwhile), then a per-vproc *keep* slice that evacuates and
     retargets local forwarding words with condemned targets;
   - when no work remains, a short *ratify* barrier finishes the cycle.
     With [Params.conc_ratify_dirty_only] the barrier stops only the
     vprocs whose from-space re-acquisition taint ([Ctx.cg_taints],
     bumped by [Ctx.read_word] on any mutator-context load that touches
     a condemned address or returns a from-space pointer, and by
     channel commits handing one over) changed since their handshake —
     the handshake leaves a vproc with no from-space reference, and
     stashing one again requires exactly such a read or hand-off, so an
     untainted vproc keeps running.  The barrier drains the residual
     log, rescans the dirty vprocs' roots and local heaps, closes the
     residual to-space scan, and releases from-space.

   Parallelism: [step_turn] additionally dispatches up to
   [Params.conc_parallel_slices - 1] *assist* evacuation slices on
   distinct idle vprocs in the same scheduler turn; per-chunk claims
   ([Ctx.cg_claims]) keep the helpers on distinct chunks, with takeover
   (paying the claim sync again) guaranteeing progress.

   Soundness leans on the simulator's step-atomicity: a slice runs to
   completion before any mutator move, so mutators never observe a
   half-evacuated object.  Mutators can hold and copy from-space
   pointers freely between slices — reads resolve forwarding words, the
   write barrier logs global stores, and the ratify rescan re-forwards
   whatever the handshakes missed.  Termination: mutators cannot create
   new from-space objects (all allocation goes to local heaps or
   to-space), so evacuation is monotone. *)

open Heap
open Sim_mem

let paranoid =
  match Sys.getenv_opt "MANTICORE_PARANOID" with
  | Some ("1" | "true") -> true
  | _ -> false

let active = Ctx.conc_active

(* From-space test: condemned chunks and large objects.  Large objects
   are marked (not copied); "evacuating" an already-marked one is a
   no-op, and fresh larges allocated mid-cycle get marked the first time
   a live reference to them is forwarded. *)
let in_from ctx addr =
  match Global_heap.find_chunk ctx.Ctx.global addr with
  | Some c -> c.Chunk.from_space
  | None -> Global_heap.is_large ctx.Ctx.global addr

let min_clock_vproc ctx =
  let muts = ctx.Ctx.muts in
  let best = ref 0 in
  Array.iteri
    (fun i (m : Ctx.mutator) ->
      if m.Ctx.now_ns < muts.(!best).Ctx.now_ns then best := i)
    muts;
  muts.(!best)

let dest_for ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  Forward.global_dest ctx m ~on_copy:(fun dst bytes ->
      if Global_heap.is_large ctx.Ctx.global dst then
        Queue.add dst st.Ctx.cg_large
      else begin
        st.Ctx.cg_copied_by.(m.Ctx.id) <- st.Ctx.cg_copied_by.(m.Ctx.id) + bytes;
        m.Ctx.stats.Gc_stats.global_copied_bytes <-
          m.Ctx.stats.Gc_stats.global_copied_bytes + bytes
      end)

(* Scan one to-space object, evacuating its from-space targets.  A
   proxy's referent may legitimately point into its owner's local heap
   and is left to the owner's local collections. *)
let scan_tospace_object ctx ~dest (m : Ctx.mutator) addr =
  let store = ctx.Ctx.store in
  let h = Ctx.read_word ctx m addr in
  Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.gc_obj_cycles;
  let inf = in_from ctx in
  (if Header.id h = Header.proxy_id then begin
     let r = Proxy.referent store addr in
     if Value.is_ptr r then
       match Heap_index.local_owner store.Store.index (Value.to_ptr r) with
       | Some _ -> ()
       | None ->
           Forward.forward_field ctx m ~dest ~in_from:inf
             (Obj_repr.field_addr addr 0)
   end
   else
     Obj_repr.iter_pointer_slots store addr (fun fa ->
         Forward.forward_field ctx m ~dest ~in_from:inf fa));
  (Header.length_words h + 1) * 8

(* To-space scanning work: the queue of marked large objects plus any
   chunk whose scan pointer trails its allocation pointer (promotions
   during the cycle reopen chunks, which is exactly what keeps
   mid-cycle-promoted data reachable). *)
let chunk_pending c = c.Chunk.scan_ptr < c.Chunk.alloc_ptr

(* Chunk selection with claim arbitration: prefer this vproc's current
   chunk, then unclaimed (or own-claimed) pending chunks near home, and
   only take over another vproc's claim when nothing else is pending —
   the takeover pays the claim sync again, and guarantees the fixpoint
   always makes progress even if a claimant never returns. *)
let pick_chunk ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let to_chunks = Global_heap.in_use ctx.Ctx.global in
  let claimed_by_other c =
    match Hashtbl.find_opt st.Ctx.cg_claims c.Chunk.id with
    | Some v -> v <> m.Ctx.id
    | None -> false
  in
  let mine c = chunk_pending c && not (claimed_by_other c) in
  let own_current =
    match Global_heap.current ctx.Ctx.global ~vproc:m.Ctx.id with
    | Some c when mine c -> Some c
    | _ -> None
  in
  match own_current with
  | Some c -> Some c
  | None -> (
      match
        List.find_opt
          (fun c -> mine c && c.Chunk.home_node = m.Ctx.node)
          to_chunks
      with
      | Some c -> Some c
      | None -> (
          match List.find_opt mine to_chunks with
          | Some c -> Some c
          | None -> List.find_opt chunk_pending to_chunks))

let work_pending ctx (st : Ctx.conc_state) =
  (not (Queue.is_empty st.Ctx.cg_large))
  || List.exists chunk_pending (Global_heap.in_use ctx.Ctx.global)

(* Draining-generation work left in [cg_drain]. *)
let drain_pending (st : Ctx.conc_state) =
  st.Ctx.cg_drain_pos < Array.length st.Ctx.cg_drain

(* Per-vproc dirtiness since the handshake: the vproc re-acquired a
   from-space reference (read-taint, see [Ctx.read_word]) and so owes a
   rescan under the ratify barrier; an untainted vproc is skipped. *)
let dirty (st : Ctx.conc_state) (m : Ctx.mutator) =
  st.Ctx.cg_taints.(m.Ctx.id) <> st.Ctx.cg_hs_taints.(m.Ctx.id)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let record_barrier_wait ctx (m : Ctx.mutator) ~cause ~t_from ~t_to =
  Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:t_from
    (Obs.Event.Coll_begin { kind = Barrier; cause });
  Gc_trace.record ctx.Ctx.trace
    {
      Gc_trace.vproc = m.Ctx.id;
      kind = Gc_trace.Barrier;
      cause;
      node = m.Ctx.node;
      t_start_ns = t_from;
      t_end_ns = t_to;
      bytes = 0;
    };
  Metrics.record_pause ~cause ~t_ns:t_to ctx.Ctx.metrics ~vproc:m.Ctx.id
    ~kind:Gc_trace.Barrier ~ns:(t_to -. t_from) ~bytes:0;
  Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:t_to
    (Obs.Event.Coll_end { kind = Barrier; cause; bytes = 0 })

(* One finished slice on [m]: a Global begin/end pair (so the pause
   distributions and gcprof see each slice as its own bounded pause)
   plus Conc_phase duration events for per-phase attribution.  The
   per-slice pauses deliberately omit the cause — it is counted once per
   collection, on the ratify records. *)
let record_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) ~t_start
    ~phases ~bytes =
  let cause = st.Ctx.cg_cause in
  Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:t_start
    (Obs.Event.Coll_begin { kind = Global; cause });
  List.iter
    (fun (phase, dur_ns) ->
      if dur_ns > 0. then
        Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:m.Ctx.now_ns
          (Obs.Event.Conc_phase
             {
               cycle = st.Ctx.cg_cycle;
               phase;
               dur_ns = int_of_float dur_ns;
             }))
    phases;
  Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:m.Ctx.now_ns
    (Obs.Event.Coll_end { kind = Global; cause; bytes });
  Gc_trace.record ctx.Ctx.trace
    {
      Gc_trace.vproc = m.Ctx.id;
      kind = Gc_trace.Global;
      cause;
      node = m.Ctx.node;
      t_start_ns = t_start;
      t_end_ns = m.Ctx.now_ns;
      bytes;
    };
  Metrics.record_pause ~t_ns:m.Ctx.now_ns ctx.Ctx.metrics ~vproc:m.Ctx.id
    ~kind:Gc_trace.Global
    ~ns:(m.Ctx.now_ns -. t_start)
    ~bytes

(* ------------------------------------------------------------------ *)
(* Slices                                                              *)
(* ------------------------------------------------------------------ *)

let forward_roots ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let dest = dest_for ctx st m in
  let inf = in_from ctx in
  let store = ctx.Ctx.store in
  Roots.iter m.Ctx.roots (fun c -> Forward.forward_cell ctx m ~dest ~in_from:inf c);
  Roots.iter m.Ctx.proxies (fun c ->
      Forward.forward_cell ctx m ~dest ~in_from:inf c);
  (* Unlike the STW entry (which runs a minor first), the nursery is live
     here: walk both local regions for from-space referents. *)
  let lh = m.Ctx.lh in
  Major_gc.walk_objects store ~lo:lh.Local_heap.base ~hi:lh.Local_heap.old_top
    (fun addr -> Forward.scan_fields ctx m ~dest ~in_from:inf addr);
  Major_gc.walk_objects store ~lo:lh.Local_heap.nursery_base
    ~hi:lh.Local_heap.alloc_ptr (fun addr ->
      Forward.scan_fields ctx m ~dest ~in_from:inf addr)

let handshake ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let t0 = m.Ctx.now_ns in
  m.Ctx.in_gc <- true;
  Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.handshake_cycles;
  let b0 = st.Ctx.cg_copied_by.(m.Ctx.id) in
  (* Run this vproc's local collections first, exactly as the STW entry
     does — bounded and per-vproc, no barrier.  This consumes every
     pre-cycle forwarding word in the evacuated local area (the major
     empties the old region; its prerequisite minor resets the nursery),
     so the only local references into from-space after the handshake
     are real fields and roots, all rescanned below.  Survivors the
     major promotes land past [scan_ptr] in to-space chunks, so the
     cycle's Cheney scan greys them automatically. *)
  Major_gc.run ~cause:st.Ctx.cg_cause ctx m;
  forward_roots ctx st m;
  st.Ctx.cg_entered.(m.Ctx.id) <- true;
  (* Snapshot the taint *after* the forwarding above: pre-handshake
     from-space reads are made irrelevant by the handshake itself, so
     dirtiness from here on means genuine re-acquisition. *)
  st.Ctx.cg_hs_taints.(m.Ctx.id) <- st.Ctx.cg_taints.(m.Ctx.id);
  m.Ctx.in_gc <- false;
  record_slice ctx st m ~t_start:t0
    ~phases:[ (Obs.Event.Handshake, m.Ctx.now_ns -. t0) ]
    ~bytes:(st.Ctx.cg_copied_by.(m.Ctx.id) - b0)

let evacuate_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let t0 = m.Ctx.now_ns in
  m.Ctx.in_gc <- true;
  let b0 = st.Ctx.cg_copied_by.(m.Ctx.id) in
  let dest = dest_for ctx st m in
  let budget = ref ctx.Ctx.params.Params.conc_slice_bytes in
  let claim_ns = ref 0. in
  while !budget > 0 && work_pending ctx st do
    match Queue.take_opt st.Ctx.cg_large with
    | Some addr -> budget := !budget - scan_tospace_object ctx ~dest m addr
    | None -> (
        match pick_chunk ctx st m with
        | None ->
            (* Pending work exists but every pending chunk is claimed
               elsewhere and the takeover fallback found nothing either —
               nothing is left for this slice. *)
            budget := 0
        | Some c ->
            (* Claiming a chunk (first claim or takeover) is a node-local
               synchronization; track its cost separately for phase
               attribution. *)
            if Hashtbl.find_opt st.Ctx.cg_claims c.Chunk.id <> Some m.Ctx.id
            then begin
              let t = m.Ctx.now_ns in
              Hashtbl.replace st.Ctx.cg_claims c.Chunk.id m.Ctx.id;
              Ctx.charge_work ctx m
                ~cycles:ctx.Ctx.params.Params.chunk_local_sync_cycles;
              claim_ns := !claim_ns +. (m.Ctx.now_ns -. t)
            end;
            while !budget > 0 && chunk_pending c do
              let sz = scan_tospace_object ctx ~dest m c.Chunk.scan_ptr in
              c.Chunk.scan_ptr <- c.Chunk.scan_ptr + sz;
              budget := !budget - sz
            done)
  done;
  m.Ctx.in_gc <- false;
  let total = m.Ctx.now_ns -. t0 in
  record_slice ctx st m ~t_start:t0
    ~phases:
      [ (Obs.Event.Claim, !claim_ns); (Obs.Event.Evacuate, total -. !claim_ns) ]
    ~bytes:(st.Ctx.cg_copied_by.(m.Ctx.id) - b0)

(* Flip the mutation-log generations: materialize the active log in
   address order as the new draining generation and clear it so mutators
   append to a fresh generation.  Only this swap needs exclusivity — the
   drain itself runs concurrently, in bounded slices. *)
let flip_log ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let n = Remember.cardinal st.Ctx.cg_log in
  let a = Array.make (max 1 n) 0 in
  let i = ref 0 in
  Remember.iter st.Ctx.cg_log (fun slot ->
      a.(!i) <- slot;
      incr i);
  Remember.clear st.Ctx.cg_log;
  st.Ctx.cg_drain <- Array.sub a 0 n;
  st.Ctx.cg_drain_pos <- 0;
  Ctx.charge_work ctx m ~cycles:(10. +. (0.5 *. float_of_int n))

(* Drain up to [max_slots] of the flipped generation: stores during the
   cycle may have put from-space values into already-scanned slots;
   re-forward them.  The generation is iterated in address order
   (deterministic evacuation order). *)
let drain_some ctx (st : Ctx.conc_state) (m : Ctx.mutator) ~max_slots =
  let dest = dest_for ctx st m in
  let inf = in_from ctx in
  let stop =
    min (Array.length st.Ctx.cg_drain) (st.Ctx.cg_drain_pos + max_slots)
  in
  while st.Ctx.cg_drain_pos < stop do
    let slot = st.Ctx.cg_drain.(st.Ctx.cg_drain_pos) in
    st.Ctx.cg_drain_pos <- st.Ctx.cg_drain_pos + 1;
    Ctx.charge_work ctx m ~cycles:2.;
    Forward.forward_field ctx m ~dest ~in_from:inf slot
  done

let drain_slots_per_slice = 128

let drain_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let t0 = m.Ctx.now_ns in
  m.Ctx.in_gc <- true;
  let b0 = st.Ctx.cg_copied_by.(m.Ctx.id) in
  if not (drain_pending st) then flip_log ctx st m;
  drain_some ctx st m ~max_slots:drain_slots_per_slice;
  m.Ctx.in_gc <- false;
  record_slice ctx st m ~t_start:t0
    ~phases:[ (Obs.Event.Mark, m.Ctx.now_ns -. t0) ]
    ~bytes:(st.Ctx.cg_copied_by.(m.Ctx.id) - b0)

(* Drain both generations to empty — the in-barrier residual drain.
   Collector work cannot append to the log, so one flip suffices. *)
let drain_all ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  drain_some ctx st m ~max_slots:max_int;
  if Remember.cardinal st.Ctx.cg_log > 0 then begin
    flip_log ctx st m;
    drain_some ctx st m ~max_slots:max_int
  end

(* ------------------------------------------------------------------ *)
(* Conservative keep: overlapped with mutators                         *)
(* ------------------------------------------------------------------ *)

(* Unlike the STW collector — whose entry minor+major empty the locals,
   so every surviving local forwarding word targets just-promoted (live)
   data — the concurrent cycle keeps both local regions live, so they
   may hold promotion forwards whose condemned target the rescan never
   reached.  Those targets can still be aliased (a register or field
   holding the stale local address resolves through the word), so they
   are evacuated rather than dropped: floating garbage for one cycle,
   the standard trade of a concurrent collector. *)
let condemned ctx a =
  match Global_heap.find_chunk ctx.Ctx.global a with
  | Some c -> c.Chunk.from_space
  | None -> false

let walk_forward_words ctx (m : Ctx.mutator) f =
  let store = ctx.Ctx.store in
  let lh = m.Ctx.lh in
  let region lo hi =
    let addr = ref lo in
    while !addr < hi do
      let h = Ctx.read_word ctx m !addr in
      if Header.is_forward h then begin
        f !addr (Header.forward_addr h);
        (* Skip by the final copy's size: promotion leaves the body in
           place, so source and target footprints are identical. *)
        let th = Ctx.read_word ctx m (Header.forward_addr h) in
        let final =
          if Header.is_forward th then Header.forward_addr th
          else Header.forward_addr h
        in
        addr := !addr + Obj_repr.total_bytes store final
      end
      else addr := !addr + ((Header.length_words h + 1) * 8)
    done
  in
  region lh.Local_heap.base lh.Local_heap.old_top;
  region lh.Local_heap.nursery_base lh.Local_heap.alloc_ptr

(* Evacuate the condemned, still-unforwarded targets of [m]'s local
   forwarding words and retarget each word at the final to-space copy
   right away.  To-space objects never move within a cycle and every
   post-[start] promotion targets to-space, so once this has run for a
   vproc, no new condemned-target word can appear in its local heap —
   which is what lets the ratify barrier skip the walk for clean
   vprocs. *)
let keep_pass ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  walk_forward_words ctx m (fun src target ->
      if condemned ctx target then begin
        (if not (Header.is_forward (Ctx.read_word ctx m target)) then
           ignore (Forward.evacuate ctx m ~dest:(dest_for ctx st m) target));
        let th = Ctx.read_word ctx m target in
        if Header.is_forward th then
          Ctx.write_word ctx m src (Header.forward (Header.forward_addr th))
      end)

let keep_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let t0 = m.Ctx.now_ns in
  m.Ctx.in_gc <- true;
  let b0 = st.Ctx.cg_copied_by.(m.Ctx.id) in
  keep_pass ctx st m;
  st.Ctx.cg_keep_done.(m.Ctx.id) <- true;
  m.Ctx.in_gc <- false;
  record_slice ctx st m ~t_start:t0
    ~phases:[ (Obs.Event.Retarget, m.Ctx.now_ns -. t0) ]
    ~bytes:(st.Ctx.cg_copied_by.(m.Ctx.id) - b0)

(* A vproc that tainted after its handshake would force the ratify
   barrier to stop it and rescan its full root set and local heap — the
   expensive part of the barrier.  Instead, while the cycle is otherwise
   quiescent, re-handshake it barrier-free: re-forward its roots and
   local heap (clearing every re-acquired from-space reference) and
   re-snapshot its taint, so the final barrier stops only vprocs
   dirtied *since*.  Rounds are bounded per vproc per cycle — a vproc
   that keeps re-tainting is eventually just stopped, so the cycle
   always terminates. *)
let max_reclean_rounds = 3

let reclean_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let t0 = m.Ctx.now_ns in
  m.Ctx.in_gc <- true;
  Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.handshake_cycles;
  let b0 = st.Ctx.cg_copied_by.(m.Ctx.id) in
  forward_roots ctx st m;
  st.Ctx.cg_reclean.(m.Ctx.id) <- st.Ctx.cg_reclean.(m.Ctx.id) + 1;
  st.Ctx.cg_hs_taints.(m.Ctx.id) <- st.Ctx.cg_taints.(m.Ctx.id);
  m.Ctx.in_gc <- false;
  record_slice ctx st m ~t_start:t0
    ~phases:[ (Obs.Event.Handshake, m.Ctx.now_ns -. t0) ]
    ~bytes:(st.Ctx.cg_copied_by.(m.Ctx.id) - b0)

(* ------------------------------------------------------------------ *)
(* Ratify: the one short barrier that finishes the cycle               *)
(* ------------------------------------------------------------------ *)

let ratify ctx (st : Ctx.conc_state) =
  let cause = st.Ctx.cg_cause in
  let muts = ctx.Ctx.muts in
  let dirty_only = ctx.Ctx.params.Params.conc_ratify_dirty_only in
  (* One lead vproc executes the structural work (residual drain, global
     roots, release, sweep); every other vproc is stopped only if it got
     dirty since its handshake.  The lead is drawn FROM the dirty set
     when it is non-empty: a dirty vproc must stop anyway, so stopping
     no clean vproc keeps the entry wait bounded by the clock spread
     within the dirty set instead of the full min-to-max vproc skew.
     With nothing dirty the min-clock vproc ratifies alone and its entry
     wait is zero. *)
  let lead =
    if not dirty_only then min_clock_vproc ctx
    else begin
      let best = ref None in
      Array.iter
        (fun (m : Ctx.mutator) ->
          if dirty st m then
            match !best with
            | Some (b : Ctx.mutator) when b.Ctx.now_ns <= m.Ctx.now_ns -> ()
            | _ -> best := Some m)
        muts;
      match !best with Some m -> m | None -> min_clock_vproc ctx
    end
  in
  let ratified =
    Array.map
      (fun (m : Ctx.mutator) ->
        (not dirty_only) || m.Ctx.id = lead.Ctx.id || dirty st m)
      muts
  in
  let iter_r f =
    Array.iter (fun (m : Ctx.mutator) -> if ratified.(m.Ctx.id) then f m) muts
  in
  let n_ratified =
    Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 ratified
  in
  let arrivals = Array.map (fun (m : Ctx.mutator) -> m.Ctx.now_ns) muts in
  let copied_before = Array.copy st.Ctx.cg_copied_by in
  iter_r (fun m ->
      Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:m.Ctx.now_ns
        (Obs.Event.Coll_begin { kind = Global; cause }));
  let t_sync =
    Array.fold_left
      (fun acc (m : Ctx.mutator) ->
        if ratified.(m.Ctx.id) then Float.max acc m.Ctx.now_ns else acc)
      0. muts
  in
  (* Entry round: the straggler is the last ratified vproc to arrive —
     it alone bounded [t_sync] — and the wait is the spread it imposed
     on the earliest arrival. *)
  (let straggler = ref lead.Ctx.id and t_min = ref Float.infinity in
   Array.iter
     (fun (m : Ctx.mutator) ->
       if ratified.(m.Ctx.id) then begin
         if arrivals.(m.Ctx.id) >= t_sync then straggler := m.Ctx.id;
         if arrivals.(m.Ctx.id) < !t_min then t_min := arrivals.(m.Ctx.id)
       end)
     muts;
   Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:t_sync
     (Obs.Event.Conc_round
        {
          cycle = st.Ctx.cg_cycle;
          exit = false;
          straggler = !straggler;
          wait_ns = int_of_float (Float.max 0. (t_sync -. !t_min));
        }));
  iter_r (fun m ->
      record_barrier_wait ctx m ~cause ~t_from:m.Ctx.now_ns ~t_to:t_sync;
      m.Ctx.now_ns <- t_sync;
      Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.barrier_cycles;
      m.Ctx.in_gc <- true);
  (* With the dirty vprocs stopped, one pass suffices: the residual log
     and the rescan find everything the handshakes missed, and the
     Cheney loop closes the transitive to-space scan.  Clean vprocs need
     no rescan — their handshake cleared every from-space reference and
     the generation/store counters prove nothing was re-acquired. *)
  drain_all ctx st lead;
  iter_r (fun m -> forward_roots ctx st m);
  (let dest = dest_for ctx st lead in
   Roots.iter ctx.Ctx.global_roots (fun c ->
       Forward.forward_cell ctx lead ~dest ~in_from:(in_from ctx) c));
  let min_clock_ratified () =
    let best = ref lead in
    Array.iter
      (fun (m : Ctx.mutator) ->
        if ratified.(m.Ctx.id) && m.Ctx.now_ns < !best.Ctx.now_ns then
          best := m)
      muts;
    !best
  in
  let fixpoint () =
    while work_pending ctx st do
      let m = min_clock_ratified () in
      match Queue.take_opt st.Ctx.cg_large with
      | Some addr ->
          ignore (scan_tospace_object ctx ~dest:(dest_for ctx st m) m addr)
      | None -> (
          match pick_chunk ctx st m with
          | None -> Ctx.charge_work ctx m ~cycles:100.
          | Some c ->
              let dest = dest_for ctx st m in
              let stop = c.Chunk.alloc_ptr in
              while c.Chunk.scan_ptr < stop do
                let sz = scan_tospace_object ctx ~dest m c.Chunk.scan_ptr in
                c.Chunk.scan_ptr <- c.Chunk.scan_ptr + sz
              done)
    done
  in
  fixpoint ();
  (* Conservative keep for the stopped vprocs (their mutation since the
     concurrent keep slice may reference from-space data the rescan just
     evacuated); skipped vprocs already ran [keep_slice] concurrently
     and provably gained no new condemned-target words since. *)
  iter_r (fun m -> keep_pass ctx st m);
  fixpoint ();
  (* Pre-release audit (env CONC_GC_AUDIT, CI fuzz campaigns): before
     from-space is released, every root, proxy, local-heap field and
     local forwarding word of *every* vproc — skipped ones included —
     must point away from the condemned chunks.  A hit here is a
     soundness bug in the dirty-skip reasoning (some path re-acquired a
     from-space reference without tainting); it would otherwise surface
     only later, as heap corruption after the pages are reused.  All
     reads are uncharged: the audit must not advance any clock or bump
     any taint, so enabling it cannot change the schedule it audits. *)
  (if Sys.getenv_opt "CONC_GC_AUDIT" <> None then begin
     let store = ctx.Ctx.store in
     let peek = Sim_mem.Memory.get store.Store.mem in
     Array.iter
       (fun (m : Ctx.mutator) ->
         let bad what addr target =
           Printf.eprintf "AUDIT v%d %s %#x -> condemned %#x (ratified=%b)\n%!"
             m.Ctx.id what addr target ratified.(m.Ctx.id)
         in
         Roots.iter m.Ctx.roots (fun c ->
             let v = Roots.get c in
             if Value.is_ptr v && condemned ctx (Value.to_ptr v) then
               bad "root" 0 (Value.to_ptr v));
         Roots.iter m.Ctx.proxies (fun c ->
             let v = Roots.get c in
             if Value.is_ptr v && condemned ctx (Value.to_ptr v) then
               bad "proxy" 0 (Value.to_ptr v));
         let lh = m.Ctx.lh in
         let fields lo hi =
           Major_gc.walk_objects store ~lo ~hi (fun addr ->
               Obj_repr.iter_pointer_slots store addr (fun fa ->
                   let v = Value.of_word (peek fa) in
                   if Value.is_ptr v && condemned ctx (Value.to_ptr v) then
                     bad "field" addr (Value.to_ptr v)))
         in
         fields lh.Local_heap.base lh.Local_heap.old_top;
         fields lh.Local_heap.nursery_base lh.Local_heap.alloc_ptr;
         let words lo hi =
           let addr = ref lo in
           while !addr < hi do
             let h = Sim_mem.Memory.get_unchecked store.Store.mem !addr in
             if Header.is_forward h then begin
               let target = Header.forward_addr h in
               if condemned ctx target then bad "fwdword" !addr target;
               let th = Sim_mem.Memory.get_unchecked store.Store.mem target in
               let final =
                 if Header.is_forward th then Header.forward_addr th
                 else target
               in
               addr := !addr + Obj_repr.total_bytes store final
             end
             else addr := !addr + ((Header.length_words h + 1) * 8)
           done
         in
         words lh.Local_heap.base lh.Local_heap.old_top;
         words lh.Local_heap.nursery_base lh.Local_heap.alloc_ptr)
       muts;
     Roots.iter ctx.Ctx.global_roots (fun c ->
         let v = Roots.get c in
         if Value.is_ptr v && condemned ctx (Value.to_ptr v) then
           Printf.eprintf "AUDIT global root -> condemned %#x\n%!"
             (Value.to_ptr v))
   end);
  (* Release from-space and sweep large objects. *)
  List.iter
    (fun c ->
      c.Chunk.from_space <- false;
      Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id
        ~t_ns:lead.Ctx.now_ns
        (Obs.Event.Chunk_release { node = c.Chunk.home_node });
      Chunk.release (Global_heap.pool ctx.Ctx.global) c)
    st.Ctx.cg_from;
  st.Ctx.cg_from <- [];
  ignore (Global_heap.sweep_large ctx.Ctx.global);
  let t_exit =
    Array.fold_left
      (fun acc (m : Ctx.mutator) ->
        if ratified.(m.Ctx.id) then Float.max acc m.Ctx.now_ns else acc)
      0. muts
  in
  (* Exit round: the straggler is the ratified vproc whose in-barrier
     work ran longest (it bounded [t_exit]); everyone else's wait is the
     time they idled for it.  The whole barrier span [t_sync, t_exit]
     is also recorded as one Exit-phase interval so gcprof can attribute
     it within the cycle timeline. *)
  (let straggler = ref lead.Ctx.id and t_min = ref Float.infinity in
   Array.iter
     (fun (m : Ctx.mutator) ->
       if ratified.(m.Ctx.id) then begin
         if m.Ctx.now_ns >= t_exit then straggler := m.Ctx.id;
         if m.Ctx.now_ns < !t_min then t_min := m.Ctx.now_ns
       end)
     muts;
   Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:t_exit
     (Obs.Event.Conc_round
        {
          cycle = st.Ctx.cg_cycle;
          exit = true;
          straggler = !straggler;
          wait_ns = int_of_float (Float.max 0. (t_exit -. !t_min));
        }));
  Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:t_exit
    (Obs.Event.Conc_phase
       {
         cycle = st.Ctx.cg_cycle;
         phase = Obs.Event.Exit;
         dur_ns = int_of_float (Float.max 0. (t_exit -. t_sync));
       });
  iter_r (fun m ->
      record_barrier_wait ctx m ~cause ~t_from:m.Ctx.now_ns ~t_to:t_exit;
      m.Ctx.now_ns <- t_exit;
      m.Ctx.in_gc <- false);
  iter_r (fun m ->
      let bytes = st.Ctx.cg_copied_by.(m.Ctx.id) - copied_before.(m.Ctx.id) in
      Gc_trace.record ctx.Ctx.trace
        {
          Gc_trace.vproc = m.Ctx.id;
          kind = Gc_trace.Global;
          cause;
          node = m.Ctx.node;
          t_start_ns = arrivals.(m.Ctx.id);
          t_end_ns = m.Ctx.now_ns;
          bytes;
        };
      Metrics.record_pause ~cause ~t_ns:m.Ctx.now_ns ctx.Ctx.metrics
        ~vproc:m.Ctx.id ~kind:Gc_trace.Global
        ~ns:(m.Ctx.now_ns -. arrivals.(m.Ctx.id))
        ~bytes;
      Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:m.Ctx.now_ns
        (Obs.Event.Coll_end { kind = Global; cause; bytes }));
  Array.iter
    (fun (m : Ctx.mutator) ->
      Metrics.record_ratify ctx.Ctx.metrics ~vproc:m.Ctx.id
        ~skipped:(not ratified.(m.Ctx.id)))
    muts;
  Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:lead.Ctx.now_ns
    (Obs.Event.Conc_ratify
       {
         cycle = st.Ctx.cg_cycle;
         ratified = n_ratified;
         skipped = Array.length muts - n_ratified;
       });
  Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:lead.Ctx.now_ns
    (Obs.Event.Conc_cycle
       {
         cycle = st.Ctx.cg_cycle;
         dur_ns = int_of_float (lead.Ctx.now_ns -. st.Ctx.cg_t_start);
         slices = st.Ctx.cg_slices;
       });
  let copied_total = Array.fold_left ( + ) 0 st.Ctx.cg_copied_by in
  ctx.Ctx.stats.Gc_stats.global_count <-
    ctx.Ctx.stats.Gc_stats.global_count + 1;
  ctx.Ctx.stats.Gc_stats.global_copied_bytes <-
    ctx.Ctx.stats.Gc_stats.global_copied_bytes + copied_total;
  ctx.Ctx.global_gc_pending <- false;
  let in_use = Global_heap.in_use_bytes ctx.Ctx.global in
  if in_use * 3 / 2 > ctx.Ctx.global_budget_bytes then
    Ctx.set_global_budget ctx (in_use * 2);
  ctx.Ctx.conc <- None;
  Ctx.exit_collection ctx Gc_trace.Global;
  if paranoid then begin
    match Ctx.check_invariants ctx with
    | Ok _ -> ()
    | Error errs ->
        prerr_string (Obs.Recorder.dump_tail ctx.Ctx.obs);
        failwith
          ("concurrent GC paranoid check failed:\n" ^ String.concat "\n" errs)
  end

(* ------------------------------------------------------------------ *)
(* Driver API                                                          *)
(* ------------------------------------------------------------------ *)

let start ?(cause = Obs.Gc_cause.Forced) ctx =
  if not (active ctx) then begin
    Ctx.enter_collection ctx;
    let m = min_clock_vproc ctx in
    let t0 = m.Ctx.now_ns in
    m.Ctx.in_gc <- true;
    let from = Global_heap.take_all_in_use ctx.Ctx.global in
    List.iter (fun c -> c.Chunk.from_space <- true) from;
    (* Condemning is a flag flip per chunk plus one pool-level sync. *)
    Ctx.charge_work ctx m
      ~cycles:
        (ctx.Ctx.params.Params.chunk_local_sync_cycles
        +. (4. *. float_of_int (List.length from)));
    let n = Ctx.n_vprocs ctx in
    let st =
      {
        Ctx.cg_cause = cause;
        cg_from = from;
        cg_large = Queue.create ();
        cg_log = Remember.create ();
        cg_drain = [||];
        cg_drain_pos = 0;
        cg_copied_by = Array.make n 0;
        cg_entered = Array.make n false;
        cg_keep_done = Array.make n false;
        cg_taints = Array.make n 0;
        cg_hs_taints = Array.make n 0;
        cg_reclean = Array.make n 0;
        cg_claims = Hashtbl.create 16;
        cg_t_start = t0;
        cg_slices = 0;
        cg_cycle = ctx.Ctx.stats.Gc_stats.global_count;
      }
    in
    ctx.Ctx.conc <- Some st;
    m.Ctx.in_gc <- false;
    record_slice ctx st m ~t_start:t0
      ~phases:[ (Obs.Event.Mark, m.Ctx.now_ns -. t0) ]
      ~bytes:0
  end

let step ctx =
  match ctx.Ctx.conc with
  | None -> false
  | Some st ->
      st.Ctx.cg_slices <- st.Ctx.cg_slices + 1;
      let m = min_clock_vproc ctx in
      if not st.Ctx.cg_entered.(m.Ctx.id) then begin
        handshake ctx st m;
        true
      end
      else if work_pending ctx st then begin
        evacuate_slice ctx st m;
        true
      end
      else if drain_pending st || Remember.cardinal st.Ctx.cg_log > 0 then begin
        drain_slice ctx st m;
        true
      end
      else if not st.Ctx.cg_keep_done.(m.Ctx.id) then begin
        keep_slice ctx st m;
        true
      end
      else begin
        (* A vproc whose clock never became the minimum may still be
           unhandshaken or keep-pending; bring it in before ratifying. *)
        match
          Array.find_opt
            (fun (mm : Ctx.mutator) -> not st.Ctx.cg_entered.(mm.Ctx.id))
            ctx.Ctx.muts
        with
        | Some mm ->
            handshake ctx st mm;
            true
        | None -> (
            match
              Array.find_opt
                (fun (mm : Ctx.mutator) -> not st.Ctx.cg_keep_done.(mm.Ctx.id))
                ctx.Ctx.muts
            with
            | Some mm ->
                keep_slice ctx st mm;
                true
            | None -> (
                (* Everything else is quiescent: re-clean tainted vprocs
                   concurrently (bounded rounds) so the ratify barrier
                   finds as few dirty vprocs as possible. *)
                match
                  (if ctx.Ctx.params.Params.conc_ratify_dirty_only then
                     Array.find_opt
                       (fun (mm : Ctx.mutator) ->
                         dirty st mm
                         && st.Ctx.cg_reclean.(mm.Ctx.id) < max_reclean_rounds)
                       ctx.Ctx.muts
                   else None)
                with
                | Some mm ->
                    reclean_slice ctx st mm;
                    true
                | None ->
                    ratify ctx st;
                    false))
      end

(* An assist slice on [m], for parallel dispatch: only evacuation work
   (handshakes, drains and the ratify stay with the lead slice), and
   only once [m] itself has handshaken — an unentered vproc still owes
   its local collections first. *)
let assist ctx (m : Ctx.mutator) =
  match ctx.Ctx.conc with
  | None -> false
  | Some st ->
      if st.Ctx.cg_entered.(m.Ctx.id) && work_pending ctx st then begin
        st.Ctx.cg_slices <- st.Ctx.cg_slices + 1;
        evacuate_slice ctx st m;
        true
      end
      else false

let step_turn ctx ~idle =
  match ctx.Ctx.conc with
  | None -> false
  | Some st ->
      let lead = min_clock_vproc ctx in
      (* Assists may only consume idle time that has already passed for
         some other vproc: a vproc behind the virtual-time frontier (the
         max clock) is provably idle over [now, frontier] and its assist
         work is free; advancing a vproc beyond the frontier would
         fabricate delay — inflating ratify skew and postponing whatever
         becomes runnable next — so such vprocs sit slices out.  Clock
         overshoot is thereby bounded by one slice past the frontier. *)
      let frontier =
        Array.fold_left
          (fun acc (m : Ctx.mutator) -> Float.max acc m.Ctx.now_ns)
          0. ctx.Ctx.muts
      in
      let in_flight = step ctx in
      let extra = ctx.Ctx.params.Params.conc_parallel_slices - 1 in
      if in_flight && extra > 0 then begin
        let assists = ref 0 in
        Array.iter
          (fun (m : Ctx.mutator) ->
            if
              !assists < extra
              && m.Ctx.id <> lead.Ctx.id
              && m.Ctx.now_ns < frontier
              && idle m.Ctx.id
              && assist ctx m
            then incr assists)
          ctx.Ctx.muts;
        if !assists > 0 then
          Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id
            ~t_ns:lead.Ctx.now_ns
            (Obs.Event.Conc_slices
               { cycle = st.Ctx.cg_cycle; count = 1 + !assists })
      end;
      in_flight

let finish ctx =
  while step ctx do
    ()
  done

let run ?cause ctx =
  start ?cause ctx;
  finish ctx
