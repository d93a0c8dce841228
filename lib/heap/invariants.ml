open Sim_mem

type summary = {
  objects : int;
  bytes : int;
  local_objects : int;
  global_objects : int;
  proxies : int;
}

type ctx = {
  store : Store.t;
  locals : Local_heap.t array;
  global : Global_heap.t;
  remembered : int -> bool;
  evacuating : bool;
  mutable errs : string list;
  mutable objects : int;
  mutable bytes : int;
  mutable local_objects : int;
  mutable global_objects : int;
  mutable proxies : int;
}

let err ctx fmt = Format.kasprintf (fun s -> ctx.errs <- s :: ctx.errs) fmt

(* Classification goes through the store's page index: one array read
   instead of the seed's O(n_vprocs) local-heap walk (a loop this module
   and Global_gc each had a copy of) plus a chunk-list walk.  The index
   is the single owner of the address->region question now. *)
type where = Local of int | Global | Nowhere

let classify ctx addr =
  match Heap_index.region ctx.store.Store.index addr with
  | Heap_index.Local v -> Local v
  | Heap_index.Global_chunk _ | Heap_index.Large _ -> Global
  | Heap_index.Free -> Nowhere

let valid_object_at ctx addr =
  Memory.is_mapped ctx.store.Store.mem addr
  && Addr.is_word_aligned addr
  && Header.is_header (Obj_repr.header ctx.store addr)

(* Follow a forwarding chain: a live field may still hold a stale alias
   of an object that promotion moved to the global heap; such a pointer
   is legal until the owner's next local collection repairs it. *)
let rec resolve_forward ctx addr depth =
  if depth > 8 then None
  else if
    not (Memory.is_mapped ctx.store.Store.mem addr && Addr.is_word_aligned addr)
  then None
  else begin
    let h = Obj_repr.header ctx.store addr in
    if Header.is_header h then Some addr
    else resolve_forward ctx (Header.forward_addr h) (depth + 1)
  end

(* Check one pointer field of [src] (which lives in [src_where]). *)
let check_pointer ctx ~src ~src_where ~slot_addr v =
  let target =
    match resolve_forward ctx (Value.to_ptr v) 0 with
    | Some t -> t
    | None -> Value.to_ptr v
  in
  if not (valid_object_at ctx target) then
    err ctx "object %#x field@%#x: pointer %#x -> no valid object" src
      slot_addr target
  else begin
    let tgt_where = classify ctx target in
    match (src_where, tgt_where) with
    | _, Nowhere ->
        err ctx "object %#x field@%#x: pointer %#x -> unallocated space" src
          slot_addr target
    | Local v, Local w when v <> w ->
        err ctx "I1 violation: local object %#x (vproc %d) -> local %#x (vproc %d)"
          src v target w
    | Local v, Local _ ->
        (* Same heap: old data must not point into the nursery — unless
           the slot was mutated and is in the remembered set (the write
           barrier of the mutation extension). *)
        let lh = ctx.locals.(v) in
        if
          Local_heap.in_old lh src
          && Local_heap.in_nursery lh target
          && not (ctx.remembered slot_addr)
        then
          err ctx "age violation: old object %#x -> nursery %#x (vproc %d)" src
            target v
    | Global, Local w ->
        err ctx "I2 violation: global object %#x -> local %#x (vproc %d)" src
          target w
    | Local _, Global | Global, Global -> ()
    | Nowhere, _ -> assert false
  end

let check_proxy_referent ctx addr =
  match Proxy.referent ctx.store addr with
  | exception Invalid_argument m ->
      err ctx "proxy %#x: unreadable referent (%s)" addr m
  | v when not (Value.is_ptr v) -> (
      (* Still validate the owner field parses. *)
      match Proxy.owner ctx.store addr with
      | exception Invalid_argument m ->
          err ctx "proxy %#x: unreadable owner (%s)" addr m
      | _ -> ())
  | v -> begin
    (* The referent may lag behind a promotion (a forwarding word in the
       owner's local heap) until the owner's next local collection
       repairs it — resolve the chain before validating, as for ordinary
       pointer fields. *)
    let target =
      match resolve_forward ctx (Value.to_ptr v) 0 with
      | Some a -> a
      | None -> Value.to_ptr v
    in
    match Proxy.owner ctx.store addr with
    | exception Invalid_argument m ->
        err ctx "proxy %#x: unreadable owner (%s)" addr m
    | owner ->
        if not (valid_object_at ctx target) then
          err ctx "proxy %#x: referent %#x -> no valid object" addr target
        else (
          match classify ctx target with
          | Local w when w <> owner ->
              err ctx "proxy %#x (owner %d): referent in vproc %d's local heap"
                addr owner w
          | Local _ | Global -> ()
          | Nowhere -> err ctx "proxy %#x: referent %#x unallocated" addr target)
  end

let check_object ctx ~where addr =
  let s = ctx.store in
  let h = Obj_repr.header s addr in
  if Header.is_forward h then begin
    (* Promotion legitimately leaves forwarding words in local-heap
       regions; they must point at a valid global object, whose size
       tells us how far to skip.  In global (to-space) chunks a
       forwarding word outside a collection is always a bug. *)
    let target = Header.forward_addr h in
    (* Mid-evacuation the forwarded-to object may itself have been
       evacuated (a chain the collector's ratify pause retargets);
       resolve it before validating.  Outside a concurrent collection a
       chained local forwarding word is a retarget-phase bug. *)
    let target =
      if ctx.evacuating then
        match resolve_forward ctx target 0 with Some t -> t | None -> target
      else target
    in
    match where with
    | Local _ when valid_object_at ctx target
                   && Global_heap.contains ctx.global target ->
        (Obj_repr.size_words s target + 1) * Addr.word_bytes
    | Local _ ->
        err ctx "object %#x: forwarding word with invalid target %#x" addr target;
        (* The region cannot be parsed past a broken forwarding word:
           abandon it rather than misreading bodies as headers. *)
        0
    | _ ->
        err ctx "object %#x: forwarding word in the global heap" addr;
        0
  end
  else begin
    let id = Header.id h in
    let len = Header.length_words h in
    ctx.objects <- ctx.objects + 1;
    ctx.bytes <- ctx.bytes + ((len + 1) * Addr.word_bytes);
    (match where with
    | Local _ -> ctx.local_objects <- ctx.local_objects + 1
    | Global -> ctx.global_objects <- ctx.global_objects + 1
    | Nowhere -> ());
    (if id = Header.proxy_id then begin
       ctx.proxies <- ctx.proxies + 1;
       if len <> Proxy.size_words then
         err ctx "proxy %#x: bad length %d" addr len;
       (match where with
       | Global -> ()
       | _ -> err ctx "proxy %#x not in the global heap" addr);
       check_proxy_referent ctx addr
     end
     else if id <> Header.raw_id && id <> Header.vector_id then begin
       match Descriptor.find s.Store.table id with
       | d ->
           if d.Descriptor.size_words <> len then
             err ctx "object %#x: length %d does not match descriptor %s (%d)"
               addr len d.Descriptor.name d.Descriptor.size_words
       | exception Invalid_argument _ -> err ctx "object %#x: unknown id %d" addr id
     end);
    (try
       Obj_repr.iter_pointer_slots s addr (fun slot_addr ->
           match Value.of_word (Memory.get s.Store.mem slot_addr) with
           | v when Value.is_ptr v ->
               check_pointer ctx ~src:addr ~src_where:where ~slot_addr v
           | _ -> ()
           | exception Invalid_argument m ->
               err ctx "object %#x field@%#x: invalid word (%s)" addr slot_addr m)
     with Invalid_argument m -> err ctx "object %#x: unscannable (%s)" addr m);
    (len + 1) * Addr.word_bytes
  end

let walk_region ctx ~where ~lo ~hi =
  let addr = ref lo in
  (* Track parse failures of *this* region, not the global error list:
     gating the overrun report on [ctx.errs = []] silently swallowed it
     whenever any earlier region (or another vproc's heap) had already
     reported anything. *)
  let abandoned = ref false in
  while !addr < hi do
    match check_object ctx ~where !addr with
    | sz when sz > 0 -> addr := !addr + sz
    | _ ->
        (* Unparseable: the violation is already recorded. *)
        abandoned := true;
        addr := hi
    | exception Invalid_argument m ->
        err ctx "region [%#x,%#x): unparseable object at %#x (%s)" lo hi !addr m;
        abandoned := true;
        addr := hi
  done;
  if !addr <> hi && not !abandoned then
    err ctx "region [%#x,%#x): last object overruns by %d bytes" lo hi (!addr - hi)

let check ?(remembered = fun _ -> false) ?(evacuating = false) store ~locals
    ~global =
  let ctx =
    {
      store;
      locals;
      global;
      remembered;
      evacuating;
      errs = [];
      objects = 0;
      bytes = 0;
      local_objects = 0;
      global_objects = 0;
      proxies = 0;
    }
  in
  Array.iteri
    (fun v (lh : Local_heap.t) ->
      (match Local_heap.check_layout lh with
      | Ok () -> ()
      | Error m -> err ctx "vproc %d local heap layout: %s" v m);
      walk_region ctx ~where:(Local v) ~lo:lh.Local_heap.base
        ~hi:lh.Local_heap.old_top;
      walk_region ctx ~where:(Local v) ~lo:lh.Local_heap.nursery_base
        ~hi:lh.Local_heap.alloc_ptr)
    locals;
  List.iter
    (fun c ->
      walk_region ctx ~where:Global ~lo:c.Chunk.base ~hi:c.Chunk.alloc_ptr)
    (Global_heap.in_use global);
  List.iter
    (fun (addr, _bytes) ->
      (* One object at the base of each large-object region. *)
      ignore (check_object ctx ~where:Global addr))
    (Global_heap.large_list global);
  match ctx.errs with
  | [] ->
      Ok
        {
          objects = ctx.objects;
          bytes = ctx.bytes;
          local_objects = ctx.local_objects;
          global_objects = ctx.global_objects;
          proxies = ctx.proxies;
        }
  | errs -> Error (List.rev errs)
