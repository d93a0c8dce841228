let run ?(cause = Obs.Gc_cause.Forced) ctx =
  (* Stop-the-world collection over a half-evacuated heap would treat
     to-space as from-space and double-copy live data: the in-flight
     cycle must ratify first. *)
  if Ctx.conc_active ctx then
    failwith "Global_gc.run: concurrent collection already in flight";
  Ctx.enter_collection ctx;
  let muts = ctx.Ctx.muts in
  let lead = Global_cycle.min_clock_vproc ctx in
  let t_start = lead.Ctx.now_ns in
  (* Phase transitions are recorded on the leader's ring: the phases are
     global, and one ring's worth of markers is enough to segment every
     vproc's events by time. *)
  let phase p = Ctx.emit ctx lead (Obs.Event.Global_phase { phase = p }) in
  let all _ = true in
  Array.iter
    (fun m -> Ctx.emit ctx m (Obs.Event.Coll_begin { kind = Global; cause }))
    muts;
  phase Obs.Event.Entry;
  (* Entry: the leader sets the flag and signals; every vproc reaches its
     safe point and performs minor and major collections.  Each vproc's
     work is charged to its own clock (they run in parallel), and nobody
     proceeds until the slowest vproc arrives. *)
  Array.iter
    (fun (m : Ctx.mutator) ->
      Ctx.set_in_gc m true;
      Ctx.charge_work ctx m ~cycles:Params.barrier_cycles;
      Minor_gc.run ~cause ctx m;
      Major_gc.run ~cause ctx m)
    muts;
  ignore (Global_cycle.barrier ctx ~cause ~member:all ignore);
  phase Obs.Event.Roots;
  (* Each vproc forwards its own roots; the leader also forwards the
     runtime's global roots, right after its own. *)
  let ev = Global_cycle.condemn ctx ~cause in
  Array.iter
    (fun (m : Ctx.mutator) ->
      Global_cycle.forward_roots ctx ev m;
      if m.Ctx.id = lead.Ctx.id then Global_cycle.forward_global_roots ctx ev m)
    muts;
  phase Obs.Event.Cheney;
  let next () = Global_cycle.min_clock_vproc ctx in
  Global_cycle.fixpoint ctx ev ~next;
  phase Obs.Event.Retarget;
  Global_cycle.keep ctx ev ~member:all ~next;
  phase Obs.Event.Sweep;
  Global_cycle.release ctx ev ~lead;
  phase Obs.Event.Exit;
  (* The program restarts once the last vproc finishes. *)
  ignore
    (Global_cycle.barrier ctx ~cause ~member:all (fun m ->
         Ctx.charge_work ctx m ~cycles:Params.barrier_cycles;
         Ctx.set_in_gc m false));
  Array.iter
    (fun (m : Ctx.mutator) ->
      Ctx.span ctx m Global ~cause ~t_start
        ~bytes:ev.Ctx.ev_copied_by.(m.Ctx.id))
    muts;
  Global_cycle.close ctx ev

(* An in-flight concurrent cycle always takes precedence over the
   configured mode: evacuation can re-arm [global_gc_pending] mid-cycle
   (budget overflow in [Forward.global_dest]), and a stop-the-world run
   over a half-evacuated heap is unsound. *)
let dispatch ?(idle = fun _ -> false) ctx =
  if Concurrent_gc.active ctx then ignore (Concurrent_gc.step_turn ctx ~idle)
  else
    match ctx.Ctx.params.Params.global_gc_mode with
    | Params.Stw -> run ~cause:Obs.Gc_cause.Global_threshold ctx
    | Params.Concurrent ->
        Concurrent_gc.start ~cause:Obs.Gc_cause.Global_threshold ctx

let install_sync_hook ctx =
  Ctx.set_safe_point_hook ctx (fun ctx _m -> dispatch ctx)
