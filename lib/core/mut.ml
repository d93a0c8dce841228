open Heap

let ref_desc (ctx : Ctx.t) =
  let table = ctx.Ctx.store.Store.table in
  match Descriptor.find_by_name table "mutref" with
  | Some d -> d
  | None ->
      Descriptor.register table ~name:"mutref" ~size_words:1
        ~pointer_slots:[ 0 ]

let alloc_ref ctx m v = Alloc.alloc_mixed ctx m (ref_desc ctx) [| v |]

let is_ref ctx m v =
  Value.is_ptr v
  &&
  let addr = Value.to_ptr (Ctx.resolve ctx m v) in
  Header.id (Ctx.header_of ctx m addr) = (ref_desc ctx).Descriptor.id

let get ctx m r =
  Ctx.get_field ctx m (Value.to_ptr (Ctx.resolve ctx m r)) 0

let set_pointer_field ctx (m : Ctx.mutator) obj i v =
  let obj = Ctx.resolve ctx m obj in
  let addr = Value.to_ptr obj in
  let lh = m.Ctx.lh in
  (* One page-index read decides the store protocol: own-local stores are
     plain (plus the remembered-set barrier), anything else takes the
     promoting global path. *)
  match Heap_index.region ctx.Ctx.store.Store.index addr with
  | Heap_index.Local owner when owner = m.Ctx.id -> begin
    (* Old-to-nursery edges must be remembered for the next minor
       collection; anything else stays collector-invisible, as before. *)
    (if
       Value.is_ptr v
       && Local_heap.in_old lh addr
       && Local_heap.in_nursery lh (Value.to_ptr v)
     then Remember.add m.Ctx.remembered ~slot:(Obj_repr.field_addr addr i));
    Ctx.write_word ctx m (Obj_repr.field_addr addr i) (v : Value.t :> int)
  end
  | _ -> begin
    (* A global object: the stored value must itself be global (I2). *)
    let v = Promote.value ~reason:Obs.Gc_cause.Mut_store ctx m v in
    (* Shared-heap store: pay a synchronization premium, like the
       CAS-based stores a real runtime would need here. *)
    Ctx.charge_work ctx m ~cycles:30.;
    let slot = Obj_repr.field_addr addr i in
    (* Concurrent-evacuation barrier extension: the stored value may be a
       from-space pointer, and the slot may belong to an object the
       collector already scanned — log the slot so the collector
       re-forwards it before the cycle can finish. *)
    (match ctx.Ctx.conc with
    | Some st ->
        Remember.add st.Ctx.cg_log ~slot;
        Ctx.charge_work ctx m ~cycles:4.
    | None -> ());
    Ctx.write_word ctx m slot (v : Value.t :> int)
  end

let set ctx m r v = set_pointer_field ctx m r 0 v
