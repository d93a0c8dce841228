open Heap

let max_local_bytes ctx = ctx.Ctx.params.Params.local_heap_bytes / 8

let maybe_safe_point ctx m =
  if ctx.Ctx.global_gc_pending then ctx.Ctx.safe_point_hook ctx m

(* Run collections to make room, keeping the caller's field values alive
   and updated through any copying. *)
let collect_for_space ctx (m : Ctx.mutator) (fields : Value.t array) =
  Roots.protect_many m.Ctx.roots fields (fun cells ->
      Minor_gc.run ~cause:Obs.Gc_cause.Nursery_full ctx m;
      let to_space_low =
        Local_heap.nursery_bytes m.Ctx.lh
        < ctx.Ctx.params.Params.nursery_min_bytes
      in
      if to_space_low || ctx.Ctx.global_gc_pending then
        Major_gc.run
          ~cause:
            (if to_space_low then Obs.Gc_cause.To_space_low
             else Obs.Gc_cause.Global_threshold)
          ctx m;
      maybe_safe_point ctx m;
      Array.iteri (fun i c -> fields.(i) <- Roots.get c) cells;
      Value.unit)
  |> ignore

let charge_init ctx m ~addr ~bytes =
  Ctx.charge_work ctx m ~cycles:Params.alloc_cycles;
  Ctx.bulk_touch ctx m ~addr ~bytes;
  m.Ctx.stats.Gc_stats.alloc_bytes <- m.Ctx.stats.Gc_stats.alloc_bytes + bytes;
  Obs.Recorder.sample_alloc ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:m.Ctx.now_ns
    ~bytes

(* Allocate in the global heap directly (object too large for the
   nursery).  Pointer fields must first be promoted so the new global
   object never references a local heap. *)
let alloc_global ctx (m : Ctx.mutator) ~bytes ~init (fields : Value.t array) =
  Array.iteri
    (fun i v ->
      if Value.is_ptr v then begin
        (* Promotion can trigger chunk acquisition but no local GC, so the
           remaining unpromoted fields stay valid; promote updates aliases
           via forwarding words. *)
        fields.(i) <- Promote.value ctx m v
      end)
    fields;
  let dest = Forward.global_dest ctx m ~on_copy:(fun _ _ -> ()) in
  let addr = dest.Forward.alloc_dst bytes in
  init addr;
  (* A large born during a concurrent cycle is born marked ("allocate
     black"), which consumes the first-mark that would otherwise get its
     fields scanned on discovery — but pre-promotion above can leave
     from-space global addresses in them mid-cycle.  Log the pointer
     slots so a drain slice re-forwards them before from-space is
     released, exactly as for a mutator store into a scanned object. *)
  (match ctx.Ctx.conc with
  | Some st when Global_heap.is_large ctx.Ctx.global addr ->
      Obj_repr.iter_pointer_slots ctx.Ctx.store addr (fun slot ->
          Remember.add st.Ctx.cg_log ~slot)
  | _ -> ());
  charge_init ctx m ~addr ~bytes;
  m.Ctx.stats.Gc_stats.global_alloc_bytes <-
    m.Ctx.stats.Gc_stats.global_alloc_bytes + bytes;
  let v = Value.of_ptr addr in
  if ctx.Ctx.global_gc_pending then
    (* The collection would move the object we just made; keep it rooted
       through the safe point. *)
    Roots.protect m.Ctx.roots v (fun c ->
        ctx.Ctx.safe_point_hook ctx m;
        Roots.get c)
  else v

let alloc_local ctx (m : Ctx.mutator) ~bytes ~init (fields : Value.t array) =
  match Local_heap.alloc m.Ctx.lh ~bytes with
  | Some addr ->
      init addr;
      charge_init ctx m ~addr ~bytes;
      Value.of_ptr addr
  | None -> (
      collect_for_space ctx m fields;
      match Local_heap.alloc m.Ctx.lh ~bytes with
      | Some addr ->
          init addr;
          charge_init ctx m ~addr ~bytes;
          Value.of_ptr addr
      | None ->
          (* The nursery is still too small (live data dominates the local
             heap); fall back to a direct global allocation. *)
          alloc_global ctx m ~bytes ~init fields)

let alloc_obj ctx m ~body_words ~init fields =
  let bytes = (body_words + 1) * 8 in
  if ctx.Ctx.params.Params.unified_heap || bytes > max_local_bytes ctx then
    alloc_global ctx m ~bytes ~init fields
  else alloc_local ctx m ~bytes ~init fields

let alloc_mixed ctx m (d : Descriptor.desc) fields =
  if Array.length fields <> d.Descriptor.size_words then
    invalid_arg "Alloc.alloc_mixed: field count mismatch";
  let fields = Array.copy fields in
  alloc_obj ctx m ~body_words:d.Descriptor.size_words
    ~init:(fun addr -> Obj_repr.init_mixed ctx.Ctx.store ~addr d fields)
    fields

let alloc_vector ctx m fields =
  let n = Array.length fields in
  if n = 0 then invalid_arg "Alloc.alloc_vector: empty";
  let fields = Array.copy fields in
  alloc_obj ctx m ~body_words:n
    ~init:(fun addr -> Obj_repr.init_vector ctx.Ctx.store ~addr fields)
    fields

let alloc_raw ctx m ~words =
  if words < 1 then invalid_arg "Alloc.alloc_raw: need at least one word";
  alloc_obj ctx m ~body_words:words
    ~init:(fun addr -> Obj_repr.init_raw ctx.Ctx.store ~addr ~words)
    [||]

let init_raw_word ctx m v i w = Ctx.set_raw ctx m (Value.to_ptr v) i w
let init_float ctx m v i f = Ctx.set_float ctx m (Value.to_ptr v) i f

let alloc_float_array ctx m floats =
  let n = Array.length floats in
  let v = alloc_raw ctx m ~words:(max 1 n) in
  Array.iteri (fun i f -> init_float ctx m v i f) floats;
  v
