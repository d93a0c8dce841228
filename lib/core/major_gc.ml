open Heap

(* Walk the objects of [lo, hi), calling [f addr] for each object header
   (skipping objects that were promoted away and left forwarding words).
   Object sizes are read uncharged; the GC charges the field traffic it
   actually generates. *)
let walk_objects store ~lo ~hi f =
  let addr = ref lo in
  while !addr < hi do
    let h = Obj_repr.header store !addr in
    if Header.is_forward h then begin
      (* A promoted object: its body follows the forwarding word; size
         comes from the (live) global copy.  During a global collection
         that copy may itself already be forwarded into to-space —
         follow the chain to a real header (every copy has the same
         length). *)
      let rec live a depth =
        let h = Obj_repr.header store a in
        if Header.is_forward h && depth < 8 then
          live (Header.forward_addr h) (depth + 1)
        else a
      in
      addr := !addr + Obj_repr.total_bytes store (live (Header.forward_addr h) 0)
    end
    else begin
      f !addr;
      addr := !addr + ((Header.length_words h + 1) * 8)
    end
  done

let run ?(cause = Obs.Gc_cause.Forced) ctx (m : Ctx.mutator) =
  Ctx.enter_collection ctx;
  (* "A minor collection always immediately precedes this major
     collection" (paper §3.3): the layout update below re-splits the free
     space, which assumes an empty nursery.  Callers that reach here with
     live nursery data get the prerequisite minor first. *)
  if m.Ctx.lh.Local_heap.alloc_ptr > m.Ctx.lh.Local_heap.nursery_base then
    Minor_gc.run ~cause ctx m;
  let t_start = m.Ctx.now_ns in
  let was_in_gc = m.Ctx.in_gc in
  Ctx.set_in_gc m true;
  Ctx.emit ctx m (Obs.Event.Coll_begin { kind = Major; cause });
  let store = ctx.Ctx.store in
  let lh = m.Ctx.lh in
  let from_lo = lh.Local_heap.base in
  (* With young exclusion off (ablation), the just-copied survivors are
     promoted along with everything else. *)
  let from_hi =
    if ctx.Ctx.params.Params.young_exclusion then lh.Local_heap.young_base
    else lh.Local_heap.old_top
  in
  let in_from a = a >= from_lo && a < from_hi in
  let young_lo = from_hi and young_hi = lh.Local_heap.old_top in
  let in_young a = a >= young_lo && a < young_hi in
  let copied = ref 0 in
  (* Evacuated objects are queued for scanning: the destination spans
     multiple chunks, so a contiguous Cheney scan does not apply. *)
  let pending = Queue.create () in
  let dest =
    Forward.global_dest ctx m ~on_copy:(fun dst bytes ->
        copied := !copied + bytes;
        Queue.add dst pending)
  in
  (* Roots: cells, proxy referents, and the young data's fields. *)
  Roots.iter m.Ctx.roots (fun c -> Forward.forward_cell ctx m ~dest ~in_from c);
  Roots.iter m.Ctx.proxies (fun c ->
      (* Resolve first: mid-cycle the concurrent collector may already
         have evacuated the proxy object while this cell still names the
         from-space husk — referent updates must land in the live copy. *)
      let p = Value.to_ptr (Ctx.resolve ctx m (Roots.get c)) in
      let r = Proxy.referent store p in
      if Value.is_ptr r && in_from (Value.to_ptr r) then begin
        (* Concurrent write barrier: the forward target may be a
           from-space address and the proxy already scanned — log the
           slot so the cycle re-forwards it (cf. [Mut.set_pointer_field]). *)
        let dst = Forward.evacuate ctx m ~dest (Value.to_ptr r) in
        let slot = Obj_repr.field_addr p 0 in
        (match ctx.Ctx.conc with
        | Some st -> Remember.add st.Ctx.cg_log ~slot
        | None -> ());
        Ctx.write_word ctx m slot (Value.of_ptr dst : Value.t :> int)
      end);
  walk_objects store ~lo:young_lo ~hi:young_hi (fun addr ->
      Forward.scan_fields ctx m ~dest ~in_from addr);
  (* Transitive closure over the old data.  Objects already moving to
     the global heap evacuate *any* local target — young or even nursery
     data: with the mutation extension an old object can point at newer
     data, and a global copy must point at nothing local (I2).  In
     mutation-free programs the broader test changes nothing, because
     old data never points at newer data. *)
  let in_local a = Local_heap.in_heap lh a in
  while not (Queue.is_empty pending) do
    Forward.scan_fields ctx m ~dest ~in_from:in_local (Queue.pop pending)
  done;
  (* Slide the young data down to the bottom of the heap (the "Move" of
     Figure 3).  Pointers into the young range shift by [delta]; pointers
     at promoted young objects resolve through their forwarding words. *)
  let delta = young_lo - from_lo in
  let ysize = young_hi - young_lo in
  let resolve_young target =
    let h = Obj_repr.header store target in
    if Header.is_forward h then Header.forward_addr h else target - delta
  in
  if delta > 0 && ysize > 0 then begin
    (* Fix young-internal pointers (old targets were already forwarded in
       place during the scan above). *)
    walk_objects store ~lo:young_lo ~hi:young_hi (fun addr ->
        Obj_repr.iter_pointer_slots store addr (fun fa ->
            let v = Value.of_word (Ctx.read_word ctx m fa) in
            if Value.is_ptr v && in_young (Value.to_ptr v) then
              Ctx.write_word ctx m fa
                (Value.of_ptr (resolve_young (Value.to_ptr v)) : Value.t :> int)));
    (* Fix roots and proxy referents pointing into the young range. *)
    let fix_cell c =
      let v = Roots.get c in
      if Value.is_ptr v && in_young (Value.to_ptr v) then
        Roots.set c (Value.of_ptr (resolve_young (Value.to_ptr v)))
    in
    Roots.iter m.Ctx.roots fix_cell;
    Roots.iter m.Ctx.proxies (fun c ->
        let p = Value.to_ptr (Ctx.resolve ctx m (Roots.get c)) in
        let r = Proxy.referent store p in
        if Value.is_ptr r && in_young (Value.to_ptr r) then begin
          (* [resolve_young] can follow a pre-cycle promotion forward to a
             from-space address: same barrier as above. *)
          let slot = Obj_repr.field_addr p 0 in
          (match ctx.Ctx.conc with
          | Some st -> Remember.add st.Ctx.cg_log ~slot
          | None -> ());
          Ctx.write_word ctx m slot
            (Value.of_ptr (resolve_young (Value.to_ptr r)) : Value.t :> int)
        end);
    (* Move the block. *)
    Ctx.bulk_touch ctx m ~addr:young_lo ~bytes:ysize;
    Ctx.bulk_touch ctx m ~addr:from_lo ~bytes:ysize;
    Sim_mem.Memory.copy_words store.Store.mem ~src:young_lo ~dst:from_lo
      ~words:(ysize / 8)
  end;
  lh.Local_heap.young_base <- from_lo;
  lh.Local_heap.old_top <- from_lo + ysize;
  Local_heap.resplit lh;
  (* Remembered slots in the evacuated from-area were handled by the
     evacuation and must not survive into the reused space; slots inside
     the young block moved with the slide and are remapped, because their
     old-to-nursery edges are still live and unprocessed. *)
  let kept = ref [] in
  Remember.iter m.Ctx.remembered (fun slot ->
      if slot >= young_lo && slot < young_hi then
        kept := (slot - delta) :: !kept);
  Remember.clear m.Ctx.remembered;
  List.iter (fun slot -> Remember.add m.Ctx.remembered ~slot) !kept;
  Ctx.span ctx m Major ~cause ~t_start ~bytes:!copied;
  Ctx.set_in_gc m was_in_gc;
  Ctx.exit_collection ctx Gc_trace.Major
