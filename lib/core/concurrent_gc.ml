(* Concurrent global collection: incremental chunk evacuation with
   bounded pauses.

   The STW collector (Global_gc) stops every vproc behind one barrier for
   the whole copy phase.  Here the same Global_cycle phases are split
   into bounded slices that interleave with mutator execution in virtual
   time:

   - [start] condemns every in-use chunk (from-space) and leaves the
     mutators running;
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
   ([Ctx.ev_claims]) keep the helpers on distinct chunks, with takeover
   (paying the claim sync again) guaranteeing progress.

   Soundness leans on the simulator's step-atomicity: a slice runs to
   completion before any mutator move, so mutators never observe a
   half-evacuated object.  Mutators can hold and copy from-space
   pointers freely between slices — reads resolve forwarding words, the
   write barrier logs global stores, and the ratify rescan re-forwards
   whatever the handshakes missed.  Termination: mutators cannot create
   new from-space objects (all allocation goes to local heaps or
   to-space), so evacuation is monotone. *)

open Sim_mem

let active = Ctx.conc_active

(* Draining-generation work left in [cg_drain]. *)
let drain_pending (st : Ctx.conc_state) =
  st.Ctx.cg_drain_pos < Array.length st.Ctx.cg_drain

(* Per-vproc dirtiness since the handshake: the vproc re-acquired a
   from-space reference (read-taint, see [Ctx.read_word]) and so owes a
   rescan under the ratify barrier; an untainted vproc is skipped. *)
let dirty (st : Ctx.conc_state) (m : Ctx.mutator) =
  st.Ctx.cg_taints.(m.Ctx.id) <> st.Ctx.cg_hs_taints.(m.Ctx.id)

(* ------------------------------------------------------------------ *)
(* Slices                                                              *)
(* ------------------------------------------------------------------ *)

(* Run [work] as one slice on [m], in collector context, and record it
   as its own bounded Global pause, with Conc_phase duration events
   splitting the slice's duration ([phases] receives it) for per-phase
   attribution.  The per-slice pauses deliberately leave the cause
   uncounted — it is counted once per collection, on the ratify
   records. *)
let slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) ~phases work =
  let ev = st.Ctx.cg_evac in
  let cause = ev.Ctx.ev_cause in
  let t0 = m.Ctx.now_ns and b0 = ev.Ctx.ev_copied_by.(m.Ctx.id) in
  Ctx.set_in_gc m true;
  work ();
  Ctx.set_in_gc m false;
  Ctx.emit ctx m ~t_ns:t0 (Obs.Event.Coll_begin { kind = Global; cause });
  List.iter
    (fun (phase, dur_ns) ->
      if dur_ns > 0. then
        Ctx.emit ctx m
          (Obs.Event.Conc_phase
             { cycle = st.Ctx.cg_cycle; phase; dur_ns = int_of_float dur_ns }))
    (phases (m.Ctx.now_ns -. t0));
  Ctx.span ~slice:true ctx m Global ~cause ~t_start:t0
    ~bytes:(ev.Ctx.ev_copied_by.(m.Ctx.id) - b0)

let one phase d = [ (phase, d) ]

let handshake ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  slice ctx st m ~phases:(one Obs.Event.Handshake) @@ fun () ->
  Ctx.charge_work ctx m ~cycles:Params.handshake_cycles;
  (* Run this vproc's local collections first, as the STW entry does —
     bounded and per-vproc, no barrier.  Survivors the major promotes
     land past [scan_ptr] in to-space chunks, so the cycle's Cheney scan
     greys them automatically.  Fields and roots are forwarded below;
     local forwarding words still aiming into from-space are left to the
     keep slice. *)
  Major_gc.run ~cause:st.Ctx.cg_evac.Ctx.ev_cause ctx m;
  Global_cycle.forward_roots ctx st.Ctx.cg_evac m;
  st.Ctx.cg_entered.(m.Ctx.id) <- true;
  (* Snapshot the taint *after* the forwarding above: pre-handshake
     from-space reads are made irrelevant by the handshake itself, so
     dirtiness from here on means genuine re-acquisition. *)
  st.Ctx.cg_hs_taints.(m.Ctx.id) <- st.Ctx.cg_taints.(m.Ctx.id)

let evacuate_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let ev = st.Ctx.cg_evac and claim_ns = ref 0. in
  slice ctx st m
    ~phases:(fun d ->
      [ (Obs.Event.Claim, !claim_ns); (Obs.Event.Evacuate, d -. !claim_ns) ])
  @@ fun () ->
  let dest = Global_cycle.dest ctx ev m in
  let budget = ref ctx.Ctx.params.Params.conc_slice_bytes in
  while !budget > 0 && Global_cycle.work_pending ctx ev do
    match Queue.take_opt ev.Ctx.ev_large with
    | Some addr -> budget := !budget - Global_cycle.scan_object ctx ~dest m addr
    | None -> (
        match Global_cycle.pick_chunk ctx ev m with
        | None ->
            (* Pending work exists but every pending chunk is claimed
               elsewhere and the takeover fallback found nothing either —
               nothing is left for this slice. *)
            budget := 0
        | Some c ->
            (* Claiming a chunk (first claim or takeover) is a node-local
               synchronization; track its cost separately for phase
               attribution. *)
            if Hashtbl.find_opt ev.Ctx.ev_claims c.Chunk.id <> Some m.Ctx.id
            then begin
              let t = m.Ctx.now_ns in
              Hashtbl.replace ev.Ctx.ev_claims c.Chunk.id m.Ctx.id;
              Ctx.charge_work ctx m ~cycles:Params.chunk_local_sync_cycles;
              claim_ns := !claim_ns +. (m.Ctx.now_ns -. t)
            end;
            while !budget > 0 && Global_cycle.chunk_pending c do
              let sz = Global_cycle.scan_object ctx ~dest m c.Chunk.scan_ptr in
              c.Chunk.scan_ptr <- c.Chunk.scan_ptr + sz;
              budget := !budget - sz
            done)
  done

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
  let dest = Global_cycle.dest ctx st.Ctx.cg_evac m in
  let in_from = Global_cycle.in_from ctx in
  let stop =
    min (Array.length st.Ctx.cg_drain) (st.Ctx.cg_drain_pos + max_slots)
  in
  while st.Ctx.cg_drain_pos < stop do
    let slot = st.Ctx.cg_drain.(st.Ctx.cg_drain_pos) in
    st.Ctx.cg_drain_pos <- st.Ctx.cg_drain_pos + 1;
    Ctx.charge_work ctx m ~cycles:2.;
    Forward.forward_field ctx m ~dest ~in_from slot
  done

let drain_slots_per_slice = 128

let drain_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  slice ctx st m ~phases:(one Obs.Event.Mark) @@ fun () ->
  if not (drain_pending st) then flip_log ctx st m;
  drain_some ctx st m ~max_slots:drain_slots_per_slice

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

(* Each vproc's keep pass (see [Global_cycle.keep_pass]) runs as its own
   slice, so the ratify barrier walks only the stopped vprocs' local
   heaps: once a clean vproc has run it, its heap gains no new
   condemned-target word. *)
let keep_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  slice ctx st m ~phases:(one Obs.Event.Retarget) @@ fun () ->
  Global_cycle.keep_pass ctx st.Ctx.cg_evac m;
  st.Ctx.cg_keep_done.(m.Ctx.id) <- true

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
  slice ctx st m ~phases:(one Obs.Event.Handshake) @@ fun () ->
  Ctx.charge_work ctx m ~cycles:Params.handshake_cycles;
  Global_cycle.forward_roots ctx st.Ctx.cg_evac m;
  st.Ctx.cg_reclean.(m.Ctx.id) <- st.Ctx.cg_reclean.(m.Ctx.id) + 1;
  st.Ctx.cg_hs_taints.(m.Ctx.id) <- st.Ctx.cg_taints.(m.Ctx.id)

(* ------------------------------------------------------------------ *)
(* Ratify: the one short barrier that finishes the cycle               *)
(* ------------------------------------------------------------------ *)

(* The lead and the stopped set.  One lead vproc executes the
   structural work (residual drain, global roots, release, sweep); every
   other vproc is stopped only if it got dirty since its handshake.  The
   lead is drawn FROM the dirty set when it is non-empty: a dirty vproc
   must stop anyway, so stopping no clean vproc keeps the entry wait
   bounded by the clock spread within the dirty set instead of the full
   min-to-max vproc skew.  With nothing dirty the min-clock vproc
   ratifies alone and its entry wait is zero. *)
let stopped_set ctx (st : Ctx.conc_state) =
  let dirty_only = ctx.Ctx.params.Params.conc_ratify_dirty_only in
  let lead =
    if not dirty_only then Global_cycle.min_clock_vproc ctx
    else begin
      let best = ref None in
      Array.iter
        (fun (m : Ctx.mutator) ->
          if dirty st m then
            match !best with
            | Some (b : Ctx.mutator) when b.Ctx.now_ns <= m.Ctx.now_ns -> ()
            | _ -> best := Some m)
        ctx.Ctx.muts;
      match !best with Some m -> m | None -> Global_cycle.min_clock_vproc ctx
    end
  in
  ( lead,
    Array.map
      (fun (m : Ctx.mutator) ->
        (not dirty_only) || m.Ctx.id = lead.Ctx.id || dirty st m)
      ctx.Ctx.muts )

(* A Conc_round on the lead's ring for barrier time [t]: the straggler
   is the last stopped vproc to get there (it alone bounded [t]) and the
   wait is the spread it imposed on the earliest one. *)
let record_round ctx (st : Ctx.conc_state) ~(lead : Ctx.mutator) ~member
    ~exit t =
  let straggler = ref lead.Ctx.id and t_min = ref Float.infinity in
  Array.iter
    (fun (m : Ctx.mutator) ->
      if member m then begin
        if m.Ctx.now_ns >= t then straggler := m.Ctx.id;
        if m.Ctx.now_ns < !t_min then t_min := m.Ctx.now_ns
      end)
    ctx.Ctx.muts;
  Ctx.emit ctx lead ~t_ns:t
    (Obs.Event.Conc_round
       {
         cycle = st.Ctx.cg_cycle;
         exit;
         straggler = !straggler;
         wait_ns = int_of_float (Float.max 0. (t -. !t_min));
       })

(* Entry round: the stopped vprocs open their Global span and wait for
   the last to arrive.  Returns the barrier time. *)
let entry_round ctx (st : Ctx.conc_state) ~lead ~member =
  let cause = st.Ctx.cg_evac.Ctx.ev_cause in
  Array.iter
    (fun m ->
      if member m then
        Ctx.emit ctx m (Obs.Event.Coll_begin { kind = Global; cause }))
    ctx.Ctx.muts;
  Global_cycle.barrier ctx ~cause ~member
    ~on_sync:(record_round ctx st ~lead ~member ~exit:false)
    (fun m ->
      Ctx.charge_work ctx m ~cycles:Params.barrier_cycles;
      Ctx.set_in_gc m true)

(* Rescan: with the dirty vprocs stopped, one pass suffices — the
   residual log and the stopped vprocs' roots and local heaps hold
   everything the handshakes missed, and the fixpoint that follows
   closes the transitive to-space scan.  Clean vprocs need no rescan:
   their handshake cleared every from-space reference and their taint
   counters prove nothing was re-acquired. *)
let rescan ctx (st : Ctx.conc_state) ~(lead : Ctx.mutator) ~member =
  drain_all ctx st lead;
  Array.iter
    (fun m -> if member m then Global_cycle.forward_roots ctx st.Ctx.cg_evac m)
    ctx.Ctx.muts;
  Global_cycle.forward_global_roots ctx st.Ctx.cg_evac lead

(* Exit round: the straggler is the stopped vproc whose in-barrier work
   ran longest.  The whole barrier span [t_sync, t_exit] is also
   recorded as one Exit-phase interval so gcprof can attribute it within
   the cycle timeline. *)
let exit_round ctx (st : Ctx.conc_state) ~(lead : Ctx.mutator) ~member ~t_sync =
  let on_sync t_exit =
    record_round ctx st ~lead ~member ~exit:true t_exit;
    Ctx.emit ctx lead ~t_ns:t_exit
      (Obs.Event.Conc_phase
         {
           cycle = st.Ctx.cg_cycle;
           phase = Obs.Event.Exit;
           dur_ns = int_of_float (Float.max 0. (t_exit -. t_sync));
         })
  in
  let cause = st.Ctx.cg_evac.Ctx.ev_cause in
  ignore
    (Global_cycle.barrier ctx ~cause ~member ~on_sync (fun m ->
         Ctx.set_in_gc m false))

(* Per-vproc ratified/skipped counts and the cycle's summary events. *)
let record_ratified ctx (st : Ctx.conc_state) ~(lead : Ctx.mutator) ~member =
  let n_ratified = ref 0 in
  Array.iter
    (fun (m : Ctx.mutator) ->
      if member m then incr n_ratified;
      Ctx.ratify_outcome ctx m ~skipped:(not (member m)))
    ctx.Ctx.muts;
  Ctx.emit ctx lead
    (Obs.Event.Conc_ratify
       {
         cycle = st.Ctx.cg_cycle;
         ratified = !n_ratified;
         skipped = Ctx.n_vprocs ctx - !n_ratified;
       });
  Ctx.emit ctx lead
    (Obs.Event.Conc_cycle
       {
         cycle = st.Ctx.cg_cycle;
         dur_ns = int_of_float (lead.Ctx.now_ns -. st.Ctx.cg_t_start);
         slices = st.Ctx.cg_slices;
       })

let ratify ctx (st : Ctx.conc_state) =
  let ev = st.Ctx.cg_evac in
  let lead, stopped = stopped_set ctx st in
  let member (m : Ctx.mutator) = stopped.(m.Ctx.id) in
  let arrivals =
    Array.map (fun (m : Ctx.mutator) -> m.Ctx.now_ns) ctx.Ctx.muts
  in
  let copied_before = Array.copy ev.Ctx.ev_copied_by in
  let t_sync = entry_round ctx st ~lead ~member in
  rescan ctx st ~lead ~member;
  (* Fixpoint work goes to the lead unless a stopped vproc's clock is
     strictly lower. *)
  let next () =
    Array.fold_left
      (fun (best : Ctx.mutator) (m : Ctx.mutator) ->
        if member m && m.Ctx.now_ns < best.Ctx.now_ns then m else best)
      lead ctx.Ctx.muts
  in
  Global_cycle.fixpoint ctx ev ~next;
  (* Keep for the stopped vprocs: their mutation since their keep slice
     may reference from-space data the rescan just evacuated.  Skipped
     vprocs provably gained no new condemned-target words since. *)
  Global_cycle.keep ctx ev ~member ~next;
  Global_cycle.release ctx ev ~lead;
  exit_round ctx st ~lead ~member ~t_sync;
  Array.iter
    (fun (m : Ctx.mutator) ->
      if member m then
        Ctx.span ctx m Global ~cause:ev.Ctx.ev_cause
          ~t_start:arrivals.(m.Ctx.id)
          ~bytes:(ev.Ctx.ev_copied_by.(m.Ctx.id) - copied_before.(m.Ctx.id)))
    ctx.Ctx.muts;
  record_ratified ctx st ~lead ~member;
  ctx.Ctx.conc <- None;
  Global_cycle.close ctx ev

(* ------------------------------------------------------------------ *)
(* Driver API                                                          *)
(* ------------------------------------------------------------------ *)

let start ?(cause = Obs.Gc_cause.Forced) ctx =
  if not (active ctx) then begin
    Ctx.enter_collection ctx;
    let m = Global_cycle.min_clock_vproc ctx in
    let ev = Global_cycle.condemn ctx ~cause in
    let n = Ctx.n_vprocs ctx in
    let st =
      {
        Ctx.cg_evac = ev;
        cg_log = Remember.create ();
        cg_drain = [||];
        cg_drain_pos = 0;
        cg_entered = Array.make n false;
        cg_keep_done = Array.make n false;
        cg_taints = Array.make n 0;
        cg_hs_taints = Array.make n 0;
        cg_reclean = Array.make n 0;
        cg_t_start = m.Ctx.now_ns;
        cg_slices = 0;
        cg_cycle = ctx.Ctx.stats.Gc_stats.global_count;
      }
    in
    ctx.Ctx.conc <- Some st;
    (* Condemning is a flag flip per chunk plus one pool-level sync. *)
    slice ctx st m ~phases:(one Obs.Event.Mark) @@ fun () ->
    Ctx.charge_work ctx m
      ~cycles:
        (Params.chunk_local_sync_cycles
        +. (4. *. float_of_int (List.length ev.Ctx.ev_from)))
  end

let step ctx =
  match ctx.Ctx.conc with
  | None -> false
  | Some st ->
      st.Ctx.cg_slices <- st.Ctx.cg_slices + 1;
      let m = Global_cycle.min_clock_vproc ctx in
      let unentered (mm : Ctx.mutator) = not st.Ctx.cg_entered.(mm.Ctx.id) in
      let keep_owed (mm : Ctx.mutator) = not st.Ctx.cg_keep_done.(mm.Ctx.id) in
      let reclean (mm : Ctx.mutator) =
        ctx.Ctx.params.Params.conc_ratify_dirty_only
        && dirty st mm
        && st.Ctx.cg_reclean.(mm.Ctx.id) < max_reclean_rounds
      in
      let find p = Array.find_opt p ctx.Ctx.muts in
      (if unentered m then handshake ctx st m
       else if Global_cycle.work_pending ctx st.Ctx.cg_evac then
         evacuate_slice ctx st m
       else if drain_pending st || Remember.cardinal st.Ctx.cg_log > 0 then
         drain_slice ctx st m
       else if keep_owed m then keep_slice ctx st m
       else
         (* A vproc whose clock never became the minimum may still be
            unhandshaken or keep-pending; bring it in before ratifying.
            Then, with everything else quiescent, re-clean tainted vprocs
            concurrently (bounded rounds) so the ratify barrier finds as
            few dirty vprocs as possible. *)
         match (find unentered, find keep_owed, find reclean) with
         | Some mm, _, _ -> handshake ctx st mm
         | None, Some mm, _ -> keep_slice ctx st mm
         | None, None, Some mm -> reclean_slice ctx st mm
         | None, None, None -> ratify ctx st);
      active ctx

(* An assist slice on [m], for parallel dispatch: only evacuation work
   (handshakes, drains and the ratify stay with the lead slice), and
   only once [m] itself has handshaken — an unentered vproc still owes
   its local collections first. *)
let assist ctx (m : Ctx.mutator) =
  match ctx.Ctx.conc with
  | None -> false
  | Some st ->
      if
        st.Ctx.cg_entered.(m.Ctx.id)
        && Global_cycle.work_pending ctx st.Ctx.cg_evac
      then begin
        st.Ctx.cg_slices <- st.Ctx.cg_slices + 1;
        evacuate_slice ctx st m;
        true
      end
      else false

let step_turn ctx ~idle =
  match ctx.Ctx.conc with
  | None -> false
  | Some st ->
      let lead = Global_cycle.min_clock_vproc ctx in
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
          Ctx.emit ctx lead
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
