open Heap

let run ?(cause = Obs.Gc_cause.Forced) ctx (m : Ctx.mutator) =
  let t_start = m.Ctx.now_ns in
  let was_in_gc = m.Ctx.in_gc in
  Ctx.set_in_gc m true;
  Ctx.enter_collection ctx;
  Ctx.emit ctx m (Obs.Event.Coll_begin { kind = Minor; cause });
  let lh = m.Ctx.lh in
  let from_lo = lh.Local_heap.nursery_base
  and from_hi = lh.Local_heap.alloc_ptr in
  let in_from a = a >= from_lo && a < from_hi in
  let dst_start = lh.Local_heap.old_top in
  let bump = ref dst_start in
  let copied = ref 0 in
  let dest =
    Forward.local_dest ctx m ~bump ~limit:lh.Local_heap.nursery_base
      ~on_copy:(fun _ bytes -> copied := !copied + bytes)
  in
  (* Roots: the vproc's cells, its proxies' referents, and — with the
     mutation extension — the remembered mutated slots. *)
  Roots.iter m.Ctx.roots (fun c -> Forward.forward_cell ctx m ~dest ~in_from c);
  Remember.iter m.Ctx.remembered (fun slot ->
      Forward.forward_field ctx m ~dest ~in_from slot);
  Roots.iter m.Ctx.proxies (fun c ->
      (* Resolve the proxy pointer first: a concurrent global cycle may
         have evacuated the proxy object before this vproc's handshake
         retargets the cell, and writing the referent into the from-space
         husk would be lost when the to-space copy survives. *)
      let p = Value.to_ptr (Ctx.resolve ctx m (Roots.get c)) in
      let r = Proxy.referent ctx.Ctx.store p in
      if Value.is_ptr r && in_from (Value.to_ptr r) then begin
        (* [evacuate] on an already-promoted object returns its existing
           forward target, which during a concurrent global cycle may be
           a from-space address — and the proxy may have been scanned
           already.  Log the slot like any other mid-cycle global store
           so the cycle re-forwards it (the concurrent write barrier,
           cf. [Mut.set_pointer_field]). *)
        let dst = Forward.evacuate ctx m ~dest (Value.to_ptr r) in
        let slot = Obj_repr.field_addr p 0 in
        (match ctx.Ctx.conc with
        | Some st -> Remember.add st.Ctx.cg_log ~slot
        | None -> ());
        Ctx.write_word ctx m slot (Value.of_ptr dst : Value.t :> int)
      end);
  (* Cheney scan of the newly-copied region. *)
  let scan = ref dst_start in
  while !scan < !bump do
    let addr = !scan in
    Forward.scan_fields ctx m ~dest ~in_from addr;
    scan := addr + Obj_repr.total_bytes ctx.Ctx.store addr
  done;
  (* New layout: the copies are the young data; re-split the free space. *)
  lh.Local_heap.young_base <- dst_start;
  lh.Local_heap.old_top <- !bump;
  Local_heap.resplit lh;
  (* The remembered targets are old data now. *)
  Remember.clear m.Ctx.remembered;
  Ctx.span ctx m Minor ~cause ~t_start ~bytes:!copied;
  Ctx.set_in_gc m was_in_gc;
  Ctx.exit_collection ctx Gc_trace.Minor
