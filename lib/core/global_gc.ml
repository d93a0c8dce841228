open Heap
open Sim_mem

let leader ctx =
  let best = ref 0 in
  Array.iteri
    (fun i (m : Ctx.mutator) ->
      if m.Ctx.now_ns < (Ctx.mutator ctx !best).Ctx.now_ns then best := i)
    ctx.Ctx.muts;
  !best

(* Which vproc's local heap holds [addr], if any — a single page-index
   read (the seed looped over every vproc's heap here, and Invariants
   carried a second copy of the loop). *)
let local_owner ctx addr =
  Heap_index.local_owner ctx.Ctx.store.Store.index addr

(* A vproc waited at a synchronization point from [t_from] to [t_to]:
   record the wait as its own pause kind (nested inside the enclosing
   Global span) so gcprof can attribute wait vs copy time. *)
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

let run ?(cause = Obs.Gc_cause.Forced) ctx =
  (* Stop-the-world collection over a half-evacuated heap would treat
     to-space as from-space and double-copy live data: the in-flight
     cycle must ratify first. *)
  if Ctx.conc_active ctx then
    failwith "Global_gc.run: concurrent collection already in flight";
  Ctx.enter_collection ctx;
  let store = ctx.Ctx.store in
  let muts = ctx.Ctx.muts in
  let lead = leader ctx in
  let t_start =
    Array.fold_left (fun acc (m : Ctx.mutator) -> Float.min acc m.Ctx.now_ns)
      infinity muts
  in
  (* Phase transitions are recorded on the leader's ring: the phases are
     global, and one ring's worth of markers is enough to segment every
     vproc's events by time. *)
  let phase p =
    Obs.Recorder.record ctx.Ctx.obs ~vproc:lead
      ~t_ns:muts.(lead).Ctx.now_ns (Obs.Event.Global_phase { phase = p })
  in
  Array.iter
    (fun (m : Ctx.mutator) ->
      Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:m.Ctx.now_ns
        (Obs.Event.Coll_begin { kind = Global; cause }))
    muts;
  phase Obs.Event.Entry;
  (* Entry: the leader sets the flag and signals; every vproc reaches its
     safe point and performs minor and major collections.  Each vproc's
     work is charged to its own clock (they run in parallel). *)
  Array.iter
    (fun (m : Ctx.mutator) ->
      m.Ctx.in_gc <- true;
      Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.barrier_cycles;
      Minor_gc.run ~cause ctx m;
      Major_gc.run ~cause ctx m)
    muts;
  (* Barrier: nobody proceeds until the slowest vproc arrives.  The gap
     between a vproc's own arrival and the barrier opening is dead wait,
     recorded as its own pause kind. *)
  let t_entry =
    Array.fold_left (fun acc (m : Ctx.mutator) -> Float.max acc m.Ctx.now_ns) 0. muts
  in
  Array.iter
    (fun (m : Ctx.mutator) ->
      record_barrier_wait ctx m ~cause ~t_from:m.Ctx.now_ns ~t_to:t_entry;
      m.Ctx.now_ns <- t_entry)
    muts;
  phase Obs.Event.Roots;
  (* All in-use chunks become from-space (gathered per node for the
     affinity statistics the claim loop relies on). *)
  let from_space = Global_heap.take_all_in_use ctx.Ctx.global in
  (* Copied bytes are tallied per copying vproc (the owner of the dest
     that performed the evacuation): the telemetry below records each
     vproc's true share, not an average that would erase skew and drop
     the division remainder. *)
  let copied_by = Array.make (Array.length muts) 0 in
  (* Large objects are marked, not copied; their fields still need one
     scan each, queued here. *)
  let large_pending = Queue.create () in
  let dests =
    Array.map
      (fun (m : Ctx.mutator) ->
        Forward.global_dest ctx m ~on_copy:(fun dst bytes ->
            if Global_heap.is_large ctx.Ctx.global dst then
              Queue.add dst large_pending
            else begin
              copied_by.(m.Ctx.id) <- copied_by.(m.Ctx.id) + bytes;
              m.Ctx.stats.Gc_stats.global_copied_bytes <-
                m.Ctx.stats.Gc_stats.global_copied_bytes + bytes
            end))
      muts
  in
  (* Evacuate one value if it is a global (from-space) reference.  Local
     references — into the scanning vproc's own heap — stay put. *)
  let forward_global (m : Ctx.mutator) w =
    let v = Value.of_word w in
    if Value.is_ptr v && not (Local_heap.in_heap m.Ctx.lh (Value.to_ptr v))
    then
      let dst = Forward.evacuate ctx m ~dest:dests.(m.Ctx.id) (Value.to_ptr v) in
      Some (Value.of_ptr dst : Value.t :> int)
    else None
  in
  let forward_field (m : Ctx.mutator) fa =
    match forward_global m (Ctx.read_word ctx m fa) with
    | Some w -> Ctx.write_word ctx m fa w
    | None -> ()
  in
  let forward_cell (m : Ctx.mutator) c =
    (match forward_global m (Roots.get c : Value.t :> int) with
    | Some w -> Roots.set c (Value.of_word w)
    | None -> ());
    Ctx.charge_work ctx m ~cycles:2.
  in
  (* Scan one to-space object; proxies get their referent handled
     specially (it may legitimately point into a local heap). *)
  let scan_tospace_object (m : Ctx.mutator) addr =
    let h = Ctx.read_word ctx m addr in
    Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.gc_obj_cycles;
    let id = Header.id h in
    if id = Header.proxy_id then begin
      let r = Proxy.referent store addr in
      if Value.is_ptr r then begin
        match local_owner ctx (Value.to_ptr r) with
        | Some _ -> () (* still local to its owner; the owner's GCs track it *)
        | None -> forward_field m (Obj_repr.field_addr addr 0)
      end
    end
    else
      Obj_repr.iter_pointer_slots store addr (fun fa -> forward_field m fa);
    (Header.length_words h + 1) * 8
  in
  (* Per-vproc root phase: roots, proxies (the proxy objects themselves
     move), the young data's global targets, and — for the leader — the
     runtime's global roots. *)
  Array.iter
    (fun (m : Ctx.mutator) ->
      Roots.iter m.Ctx.roots (fun c -> forward_cell m c);
      Roots.iter m.Ctx.proxies (fun c -> forward_cell m c);
      let lh = m.Ctx.lh in
      Major_gc.walk_objects store ~lo:lh.Local_heap.base
        ~hi:lh.Local_heap.old_top (fun addr ->
          Obj_repr.iter_pointer_slots store addr (fun fa -> forward_field m fa));
      if m.Ctx.id = lead then
        Roots.iter ctx.Ctx.global_roots (fun c -> forward_cell m c))
    muts;
  phase Obs.Event.Cheney;
  (* Parallel Cheney phase over to-space chunks, claimed per node. *)
  let pending c = c.Chunk.scan_ptr < c.Chunk.alloc_ptr in
  let min_clock_vproc () =
    let best = ref 0 in
    Array.iteri
      (fun i (m : Ctx.mutator) ->
        if m.Ctx.now_ns < muts.(!best).Ctx.now_ns then best := i)
      muts;
    muts.(!best)
  in
  let pick_chunk (m : Ctx.mutator) =
    let to_chunks = Global_heap.in_use ctx.Ctx.global in
    let own_current =
      match Global_heap.current ctx.Ctx.global ~vproc:m.Ctx.id with
      | Some c when pending c -> Some c
      | _ -> None
    in
    match own_current with
    | Some c -> Some c
    | None -> (
        match
          List.find_opt (fun c -> pending c && c.Chunk.home_node = m.Ctx.node) to_chunks
        with
        | Some c -> Some c
        | None -> List.find_opt pending to_chunks)
  in
  let any_pending () =
    (not (Queue.is_empty large_pending))
    || List.exists pending (Global_heap.in_use ctx.Ctx.global)
  in
  while any_pending () do
    let m = min_clock_vproc () in
    match Queue.take_opt large_pending with
    | Some addr -> ignore (scan_tospace_object m addr)
    | None -> (
        match pick_chunk m with
        | None ->
            (* This vproc has nothing to claim; bring it level with the
               next clock so another vproc gets picked. *)
            Ctx.charge_work ctx m ~cycles:100.
        | Some c ->
            let stop = c.Chunk.alloc_ptr in
            while c.Chunk.scan_ptr < stop do
              let sz = scan_tospace_object m c.Chunk.scan_ptr in
              c.Chunk.scan_ptr <- c.Chunk.scan_ptr + sz
            done)
  done;
  phase Obs.Event.Retarget;
  (* Retarget local forwarding words: promotions and the entry majors
     left forwarding words in the local heaps that point into from-space,
     which is about to be recycled.  Rewriting them to the final to-space
     addresses keeps stale aliases resolvable and the heap walkable. *)
  Array.iter
    (fun (m : Ctx.mutator) ->
      let lh = m.Ctx.lh in
      let addr = ref lh.Local_heap.base in
      while !addr < lh.Local_heap.old_top do
        let h = Ctx.read_word ctx m !addr in
        if Header.is_forward h then begin
          let target = Header.forward_addr h in
          let th = Ctx.read_word ctx m target in
          let final = if Header.is_forward th then Header.forward_addr th else target in
          if final <> target then
            Ctx.write_word ctx m !addr (Header.forward final);
          addr := !addr + Obj_repr.total_bytes store final
        end
        else addr := !addr + ((Header.length_words h + 1) * 8)
      done)
    muts;
  phase Obs.Event.Sweep;
  (* Return from-space chunks to the pool and resume: the program restarts
     once the last vproc finishes. *)
  List.iter
    (fun c ->
      Obs.Recorder.record ctx.Ctx.obs ~vproc:lead
        ~t_ns:muts.(lead).Ctx.now_ns
        (Obs.Event.Chunk_release { node = c.Chunk.home_node });
      Chunk.release (Global_heap.pool ctx.Ctx.global) c)
    from_space;
  ignore (Global_heap.sweep_large ctx.Ctx.global);
  phase Obs.Event.Exit;
  let t_exit =
    Array.fold_left (fun acc (m : Ctx.mutator) -> Float.max acc m.Ctx.now_ns) 0. muts
  in
  Array.iter
    (fun (m : Ctx.mutator) ->
      record_barrier_wait ctx m ~cause ~t_from:m.Ctx.now_ns ~t_to:t_exit;
      m.Ctx.now_ns <- t_exit;
      Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.barrier_cycles;
      m.Ctx.in_gc <- false)
    muts;
  Array.iter
    (fun (m : Ctx.mutator) ->
      Gc_trace.record ctx.Ctx.trace
        {
          Gc_trace.vproc = m.Ctx.id;
          kind = Gc_trace.Global;
          cause;
          node = m.Ctx.node;
          t_start_ns = t_start;
          t_end_ns = m.Ctx.now_ns;
          bytes = copied_by.(m.Ctx.id);
        };
      Metrics.record_pause ~cause ~t_ns:m.Ctx.now_ns ctx.Ctx.metrics
        ~vproc:m.Ctx.id ~kind:Gc_trace.Global
        ~ns:(m.Ctx.now_ns -. t_start)
        ~bytes:copied_by.(m.Ctx.id);
      Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:m.Ctx.now_ns
        (Obs.Event.Coll_end
           { kind = Global; cause; bytes = copied_by.(m.Ctx.id) }))
    muts;
  (* ctx.stats is the whole-system tally and the per-mutator stats are a
     partition of the same copies: ctx total == sum of mutator shares,
     recorded once each.  Never add the two together (Gc_stats.total over
     the mutators already yields this figure). *)
  let copied_total = Array.fold_left ( + ) 0 copied_by in
  ctx.Ctx.stats.Gc_stats.global_count <- ctx.Ctx.stats.Gc_stats.global_count + 1;
  ctx.Ctx.stats.Gc_stats.global_copied_bytes <-
    ctx.Ctx.stats.Gc_stats.global_copied_bytes + copied_total;
  ctx.Ctx.global_gc_pending <- false;
  (* If live data alone exceeds the configured budget, grow it — a fixed
     threshold would retrigger immediately and thrash. *)
  let in_use = Global_heap.in_use_bytes ctx.Ctx.global in
  if in_use * 3 / 2 > ctx.Ctx.global_budget_bytes then
    Ctx.set_global_budget ctx (in_use * 2);
  Ctx.exit_collection ctx Gc_trace.Global

(* Paranoid validation after every global collection (set
   MANTICORE_PARANOID=1); used to localize heap corruption in tests. *)
let paranoid =
  match Sys.getenv_opt "MANTICORE_PARANOID" with
  | Some ("1" | "true") -> true
  | _ -> false

let run ?cause ctx =
  run ?cause ctx;
  if paranoid then begin
    match Ctx.check_invariants ctx with
    | Ok _ -> ()
    | Error errs ->
        (* Post-mortem: the flight recorder's tail is the best record of
           what the collectors were doing when the heap went bad. *)
        prerr_string (Obs.Recorder.dump_tail ctx.Ctx.obs);
        failwith
          ("global GC paranoid check failed:\n" ^ String.concat "\n" errs)
  end

(* The safe-point response depends on the configured collector: STW runs
   a full collection on the spot; concurrent starts a cycle and then
   advances it by one bounded slice per safe point (the handshake
   piggy-backs on the allocation-limit poll). *)
let install_sync_hook ctx =
  Ctx.set_safe_point_hook ctx (fun ctx _m ->
      (* An in-flight concurrent cycle always takes precedence over the
         configured mode: evacuation can re-arm [global_gc_pending]
         mid-cycle (budget overflow in [Forward.global_dest]), and a
         stop-the-world run over a half-evacuated heap is unsound. *)
      if Concurrent_gc.active ctx then ignore (Concurrent_gc.step ctx)
      else
        match ctx.Ctx.params.Params.global_gc_mode with
        | Params.Stw -> run ~cause:Obs.Gc_cause.Global_threshold ctx
        | Params.Concurrent ->
            Concurrent_gc.start ~cause:Obs.Gc_cause.Global_threshold ctx)
