(* The phases of one global collection (paper §3.4), defined once and
   sequenced by both collectors: Global_gc runs them back to back behind
   one barrier, Concurrent_gc spreads them over bounded slices and closes
   with its ratify barrier.  Parallelism is simulated: each unit of work
   is charged to the clock of the vproc that does it, and the fixpoint
   hands the next unit to the vproc its caller's chooser picks. *)

open Heap
open Sim_mem

(* The vproc with the smallest clock, the lowest index among ties: a
   deterministic stand-in for "the vproc that noticed first". *)
let min_clock_vproc ctx =
  let muts = ctx.Ctx.muts in
  let best = ref 0 in
  Array.iteri
    (fun i (m : Ctx.mutator) ->
      if m.Ctx.now_ns < muts.(!best).Ctx.now_ns then best := i)
    muts;
  muts.(!best)

(* Condemn every in-use chunk: it becomes from-space, flagged so that
   [in_from], the keep pass and the mutator read taint can tell it from
   to-space.  [release] clears the flags again. *)
let condemn ctx ~cause =
  let from = Global_heap.take_all_in_use ctx.Ctx.global in
  List.iter (fun c -> c.Chunk.from_space <- true) from;
  {
    Ctx.ev_cause = cause;
    ev_from = from;
    ev_large = Queue.create ();
    ev_copied_by = Array.make (Ctx.n_vprocs ctx) 0;
    ev_claims = Hashtbl.create 16;
  }

(* From-space test: condemned chunks and large objects.  Large objects
   are marked, not copied; "evacuating" an already-marked one is a
   no-op, and fresh larges allocated mid-cycle get marked the first time
   a live reference to them is forwarded. *)
let in_from ctx addr =
  match Heap_index.region ctx.Ctx.store.Store.index addr with
  | Heap_index.Global_chunk c -> c.Chunk.from_space
  | Heap_index.Large _ -> true
  | Heap_index.Free | Heap_index.Local _ -> false

(* [m]'s to-space destination.  Copied bytes are tallied per copying
   vproc, so the telemetry records each vproc's true share rather than
   an average that would erase skew; a marked large object is queued
   for its one field scan instead. *)
let dest ctx (ev : Ctx.evac) (m : Ctx.mutator) =
  Forward.global_dest ctx m ~on_copy:(fun dst bytes ->
      let copied_by = ev.Ctx.ev_copied_by in
      if Global_heap.is_large ctx.Ctx.global dst then
        Queue.add dst ev.Ctx.ev_large
      else copied_by.(m.Ctx.id) <- copied_by.(m.Ctx.id) + bytes)

(* Forward [m]'s roots, its proxy cells (the proxy objects themselves
   move) and every from-space referent of its local heap.  Both local
   regions are walked: a concurrent cycle keeps the nursery live, and
   after the STW entry minor it is empty. *)
let forward_roots ctx ev (m : Ctx.mutator) =
  let dest = dest ctx ev m and in_from = in_from ctx in
  let store = ctx.Ctx.store and lh = m.Ctx.lh in
  Roots.iter m.Ctx.roots (Forward.forward_cell ctx m ~dest ~in_from);
  Roots.iter m.Ctx.proxies (Forward.forward_cell ctx m ~dest ~in_from);
  Major_gc.walk_objects store ~lo:lh.Local_heap.base ~hi:lh.Local_heap.old_top
    (Forward.scan_fields ctx m ~dest ~in_from);
  Major_gc.walk_objects store ~lo:lh.Local_heap.nursery_base
    ~hi:lh.Local_heap.alloc_ptr (Forward.scan_fields ctx m ~dest ~in_from)

(* The runtime's global roots, forwarded by [m]. *)
let forward_global_roots ctx ev m =
  let dest = dest ctx ev m and in_from = in_from ctx in
  Roots.iter ctx.Ctx.global_roots (Forward.forward_cell ctx m ~dest ~in_from)

(* Scan one to-space object, evacuating its from-space targets.  A
   proxy's referent may legitimately point into its owner's local heap
   and is left to the owner's local collections. *)
let scan_object ctx ~dest (m : Ctx.mutator) addr =
  let store = ctx.Ctx.store and in_from = in_from ctx in
  let h = Ctx.read_word ctx m addr in
  Ctx.charge_work ctx m ~cycles:Params.gc_obj_cycles;
  (if Header.id h = Header.proxy_id then begin
     let r = Proxy.referent store addr in
     if
       Value.is_ptr r
       && Heap_index.local_owner store.Store.index (Value.to_ptr r) = None
     then
       Forward.forward_field ctx m ~dest ~in_from (Obj_repr.field_addr addr 0)
   end
   else
     Obj_repr.iter_pointer_slots store addr
       (Forward.forward_field ctx m ~dest ~in_from));
  (Header.length_words h + 1) * 8

(* To-space scanning work: the queue of marked large objects plus any
   chunk whose scan pointer trails its allocation pointer (promotions
   during a concurrent cycle reopen chunks, which is exactly what keeps
   mid-cycle-promoted data reachable). *)
let chunk_pending c = c.Chunk.scan_ptr < c.Chunk.alloc_ptr

let work_pending ctx (ev : Ctx.evac) =
  (not (Queue.is_empty ev.Ctx.ev_large))
  || List.exists chunk_pending (Global_heap.in_use ctx.Ctx.global)

(* Chunk selection with claim arbitration: this vproc's current chunk,
   then unclaimed (or own-claimed) pending chunks near home, then
   anywhere; another vproc's claim is taken over only when nothing else
   is pending — the takeover pays the claim sync again, and guarantees
   the fixpoint always makes progress even if a claimant never returns.
   The STW collector never claims, so it sees the paper's plain
   own-chunk, same-node, any order. *)
let pick_chunk ctx (ev : Ctx.evac) (m : Ctx.mutator) =
  let to_chunks = Global_heap.in_use ctx.Ctx.global in
  let mine c =
    chunk_pending c
    &&
    match Hashtbl.find_opt ev.Ctx.ev_claims c.Chunk.id with
    | Some v -> v = m.Ctx.id
    | None -> true
  in
  match Global_heap.current ctx.Ctx.global ~vproc:m.Ctx.id with
  | Some c when mine c -> Some c
  | _ -> (
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

(* The Cheney fixpoint: until no to-space work remains anywhere, hand
   the next unit — a marked large object, or a pending chunk up to its
   current allocation pointer — to the vproc [next] picks.  A vproc with
   nothing to claim idles, so another vproc gets picked. *)
let fixpoint ctx ev ~next =
  while work_pending ctx ev do
    let m = next () in
    let dest = dest ctx ev m in
    match Queue.take_opt ev.Ctx.ev_large with
    | Some addr -> ignore (scan_object ctx ~dest m addr)
    | None -> (
        match pick_chunk ctx ev m with
        | None -> Ctx.charge_work ctx m ~cycles:100.
        | Some c ->
            let stop = c.Chunk.alloc_ptr in
            while c.Chunk.scan_ptr < stop do
              let sz = scan_object ctx ~dest m c.Chunk.scan_ptr in
              c.Chunk.scan_ptr <- c.Chunk.scan_ptr + sz
            done)
  done

(* One barrier round over the vprocs [member] accepts: nobody proceeds
   until the slowest arrives.  [on_sync] sees the barrier time first;
   then each member is brought level, and gets [after].  Its dead wait
   is recorded as its own pause kind, nested inside the enclosing
   Global span, so gcprof can attribute wait vs copy time.  Returns the
   barrier time. *)
let barrier ctx ~cause ~member ?(on_sync = ignore) after =
  let t =
    Array.fold_left
      (fun acc (m : Ctx.mutator) ->
        if member m then Float.max acc m.Ctx.now_ns else acc)
      0. ctx.Ctx.muts
  in
  on_sync t;
  Array.iter
    (fun (m : Ctx.mutator) ->
      if member m then begin
        let t_from = m.Ctx.now_ns in
        Ctx.emit ctx m (Obs.Event.Coll_begin { kind = Barrier; cause });
        m.Ctx.now_ns <- t;
        Ctx.span ctx m Barrier ~cause ~t_start:t_from ~bytes:0;
        after m
      end)
    ctx.Ctx.muts;
  t

(* Visit every forwarding word in [lh]'s two regions as [f src target],
   reading headers with [read]. *)
let walk_forward_words ctx ~read (lh : Local_heap.t) f =
  let region lo hi =
    let addr = ref lo in
    while !addr < hi do
      let h = read !addr in
      if Header.is_forward h then begin
        let target = Header.forward_addr h in
        f !addr target;
        (* Skip by the final copy's size: promotion leaves the body in
           place, so source and target footprints are identical. *)
        let th = read target in
        let final =
          if Header.is_forward th then Header.forward_addr th else target
        in
        addr := !addr + Obj_repr.total_bytes ctx.Ctx.store final
      end
      else addr := !addr + ((Header.length_words h + 1) * 8)
    done
  in
  region lh.Local_heap.base lh.Local_heap.old_top;
  region lh.Local_heap.nursery_base lh.Local_heap.alloc_ptr

(* Conservative keep.  A local forwarding word left by a promotion can
   target condemned data that no root, field or rescan reaches.  The
   concurrent cycle keeps both local regions live; and the STW entry
   major, when it promotes an old object, also promotes the young
   objects its fields reach, then slides the young block down with
   their forwarding words in it.  The word can still be aliased (a
   register or field holding the stale local address resolves through
   it), so its target is evacuated — floating garbage for one cycle —
   and the word is pointed at the to-space copy.  To-space objects never
   move within a cycle and every later promotion targets to-space, so
   once this has run for a vproc its local heap gains no new
   condemned-target word. *)
let keep_pass ctx ev (m : Ctx.mutator) =
  let read = Ctx.read_word ctx m in
  walk_forward_words ctx ~read m.Ctx.lh (fun src target ->
      if Ctx.in_condemned ctx target then begin
        (if not (Header.is_forward (Ctx.read_word ctx m target)) then
           ignore (Forward.evacuate ctx m ~dest:(dest ctx ev m) target));
        let th = Ctx.read_word ctx m target in
        if Header.is_forward th then
          Ctx.write_word ctx m src (Header.forward (Header.forward_addr th))
      end)

(* The keep phase: [keep_pass] on every [member], then the fixpoint
   that scans whatever it evacuated. *)
let keep ctx ev ~member ~next =
  Array.iter (fun m -> if member m then keep_pass ctx ev m) ctx.Ctx.muts;
  fixpoint ctx ev ~next

(* Pre-release audit (CONC_GC_AUDIT=1): before from-space is released,
   every root, proxy, local-heap field and local forwarding word of
   every vproc, and every global root, must point away from the
   condemned chunks.  A hit is a soundness bug — in the concurrent
   collector's dirty-skip reasoning, say — that would otherwise surface
   only later, as heap corruption after the pages are reused.  All reads
   are uncharged, so enabling the audit cannot change the schedule it
   audits.  Read per collection, so a test can switch it. *)
let audit_enabled () =
  match Sys.getenv_opt "CONC_GC_AUDIT" with
  | Some ("1" | "true") -> true
  | _ -> false

let audit ctx =
  let store = ctx.Ctx.store in
  let mem = store.Store.mem in
  let hits = ref [] in
  let hit who what addr target =
    hits :=
      Printf.sprintf "%s %s %#x -> condemned %#x" who what addr target :: !hits
  in
  let value who what addr v =
    if Value.is_ptr v && Ctx.in_condemned ctx (Value.to_ptr v) then
      hit who what addr (Value.to_ptr v)
  in
  let cells who what roots =
    Roots.iter roots (fun c -> value who what 0 (Roots.get c))
  in
  Array.iter
    (fun (m : Ctx.mutator) ->
      let who = Printf.sprintf "v%d" m.Ctx.id and lh = m.Ctx.lh in
      cells who "root" m.Ctx.roots;
      cells who "proxy" m.Ctx.proxies;
      let fields lo hi =
        Major_gc.walk_objects store ~lo ~hi (fun addr ->
            Obj_repr.iter_pointer_slots store addr (fun fa ->
                value who "field" addr (Value.of_word (Memory.get mem fa))))
      in
      fields lh.Local_heap.base lh.Local_heap.old_top;
      fields lh.Local_heap.nursery_base lh.Local_heap.alloc_ptr;
      walk_forward_words ctx ~read:(Memory.get_unchecked mem) lh
        (fun src target ->
          if Ctx.in_condemned ctx target then hit who "fwdword" src target))
    ctx.Ctx.muts;
  cells "global" "root" ctx.Ctx.global_roots;
  if !hits <> [] then begin
    prerr_string (Obs.Recorder.dump_tail ctx.Ctx.obs);
    failwith
      ("global GC audit: references into condemned chunks before release:\n"
      ^ String.concat "\n" (List.rev !hits))
  end

(* Audit, then return from-space to the pool — clearing each chunk's
   flag, which [Chunk.release] leaves set — and sweep the large objects
   no live reference marked.  Releases are recorded on [lead]'s ring. *)
let release ctx (ev : Ctx.evac) ~(lead : Ctx.mutator) =
  if audit_enabled () then audit ctx;
  List.iter
    (fun c ->
      c.Chunk.from_space <- false;
      Ctx.emit ctx lead (Obs.Event.Chunk_release { node = c.Chunk.home_node });
      Chunk.release (Global_heap.pool ctx.Ctx.global) c)
    ev.Ctx.ev_from;
  ev.Ctx.ev_from <- [];
  ignore (Global_heap.sweep_large ctx.Ctx.global)

(* Paranoid validation after every global collection (set
   MANTICORE_PARANOID=1); used to localize heap corruption in tests. *)
let paranoid =
  match Sys.getenv_opt "MANTICORE_PARANOID" with
  | Some ("1" | "true") -> true
  | _ -> false

(* End-of-cycle bookkeeping.  [ctx.stats] is the whole-system tally and
   the per-mutator stats are a partition of the same copies (each
   vproc's Global spans), so each is recorded once and never added
   together.  If live data alone nearly fills the budget, the budget
   grows: a fixed threshold would retrigger at once and thrash. *)
let close ctx (ev : Ctx.evac) =
  Ctx.global_cycle_done ctx
    ~copied:(Array.fold_left ( + ) 0 ev.Ctx.ev_copied_by);
  ctx.Ctx.global_gc_pending <- false;
  let in_use = Global_heap.in_use_bytes ctx.Ctx.global in
  if in_use * 3 / 2 > ctx.Ctx.global_budget_bytes then
    Ctx.set_global_budget ctx (in_use * 2);
  Ctx.exit_collection ctx Gc_trace.Global;
  if paranoid then
    match Ctx.check_invariants ctx with
    | Ok _ -> ()
    | Error errs ->
        (* Post-mortem: the flight recorder's tail is the best record of
           what the collectors were doing when the heap went bad. *)
        prerr_string (Obs.Recorder.dump_tail ctx.Ctx.obs);
        failwith
          ("global GC paranoid check failed:\n" ^ String.concat "\n" errs)
