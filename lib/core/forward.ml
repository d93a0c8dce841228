open Heap

type dest = { alloc_dst : int -> int; on_copy : int -> int -> unit }

let local_dest ctx m ~bump ~limit ~on_copy =
  ignore ctx;
  {
    alloc_dst =
      (fun bytes ->
        let a = !bump in
        if a + bytes > limit then
          failwith
            (Printf.sprintf
               "minor GC copy space overflow on vproc %d (%#x + %d > %#x)"
               m.Ctx.id a bytes limit);
        bump := a + bytes;
        a);
    on_copy;
  }

let global_dest ctx m ~on_copy =
  {
    alloc_dst =
      (fun bytes ->
        let addr, how =
          Global_heap.alloc ctx.Ctx.global ~vproc:m.Ctx.id ~node:m.Ctx.node
            ~bytes
        in
        (match how with
        | `Same_chunk -> ()
        | `Large ->
            (* A dedicated page run: registering it is a global
               synchronization, like a fresh chunk.  Born during a
               concurrent cycle it is born marked ("allocate black"):
               the ratify sweep frees unmarked larges, and a fresh one
               may be referenced only OCaml-side (a register or root
               added after the owner's handshake), where no read-taint
               or rescan would ever reach it.  Birth-marking consumes
               the first-mark that triggers the field scan in
               [evacuate], so the caller must get the pointer fields
               forwarded itself (see [Alloc.alloc_global]). *)
            (if ctx.Ctx.conc <> None then
               ignore (Global_heap.mark_large ctx.Ctx.global addr));
            Ctx.charge_work ctx m ~cycles:Params.chunk_global_sync_cycles;
            if
              (not ctx.Ctx.global_gc_pending)
              && Global_heap.in_use_bytes ctx.Ctx.global
                 > ctx.Ctx.global_budget_bytes
            then Ctx.request_global_gc ctx
        | `New_chunk (c, provenance) ->
            Ctx.chunk_acquired ctx m ~node:c.Sim_mem.Chunk.home_node
              ~fresh:(provenance = `Fresh);
            let cycles =
              match provenance with
              | `Reused -> Params.chunk_local_sync_cycles
              | `Fresh -> Params.chunk_global_sync_cycles
            in
            Ctx.charge_work ctx m ~cycles;
            if
              (not ctx.Ctx.global_gc_pending)
              && Global_heap.in_use_bytes ctx.Ctx.global
                 > ctx.Ctx.global_budget_bytes
            then Ctx.request_global_gc ctx);
        addr);
    on_copy;
  }

(* Fault-injection hook for the model-differential fuzzer: when set to
   [n > 0], every [n]th evacuation copies only the header and leaves the
   body words stale — a seeded forwarding bug the checker must catch and
   the shrinker must minimize.  Never enabled outside tests. *)
let test_corrupt_copy = ref 0
let corrupt_countdown = ref 0

let set_test_corrupt_copy n =
  test_corrupt_copy := n;
  corrupt_countdown := n

let copy_for_evacuation store ~src ~dst =
  if !test_corrupt_copy > 0 then begin
    decr corrupt_countdown;
    if !corrupt_countdown <= 0 then begin
      corrupt_countdown := !test_corrupt_copy;
      (* The seeded bug: header moves, fields do not. *)
      Sim_mem.Memory.set store.Store.mem dst
        (Sim_mem.Memory.get store.Store.mem src)
    end
    else ignore (Obj_repr.copy_object store ~src ~dst)
  end
  else ignore (Obj_repr.copy_object store ~src ~dst)

let evacuate ctx m ~dest src =
  let h = Ctx.read_word ctx m src in
  if Header.is_forward h then Header.forward_addr h
  else if Global_heap.is_large ctx.Ctx.global src then begin
    (* Large objects are not copied: mark them live; the first marking
       reports the object so the caller scans its fields exactly once. *)
    if Global_heap.mark_large ctx.Ctx.global src then
      dest.on_copy src ((Header.length_words h + 1) * 8);
    src
  end
  else begin
    let store = ctx.Ctx.store in
    let bytes = (Header.length_words h + 1) * 8 in
    let dst = dest.alloc_dst bytes in
    if Obs.Recorder.enabled ctx.Ctx.obs then
      Obs.Recorder.record_copy ctx.Ctx.obs
        ~src_node:(Sim_mem.Memory.node_of_addr store.Store.mem src)
        ~dst_node:(Sim_mem.Memory.node_of_addr store.Store.mem dst)
        ~bytes;
    Ctx.bulk_touch ctx m ~addr:src ~bytes;
    Ctx.bulk_touch ctx m ~addr:dst ~bytes;
    copy_for_evacuation store ~src ~dst;
    Sim_mem.Memory.set store.Store.mem src (Header.forward dst);
    Ctx.charge_work ctx m ~cycles:Params.gc_obj_cycles;
    dest.on_copy dst bytes;
    dst
  end

let forward_field ctx m ~dest ~in_from field_addr =
  let w = Ctx.read_word ctx m field_addr in
  let v = Value.of_word w in
  if Value.is_ptr v then begin
    let target = Value.to_ptr v in
    if in_from target then begin
      let dst = evacuate ctx m ~dest target in
      Ctx.write_word ctx m field_addr (Value.of_ptr dst : Value.t :> int)
    end
  end

let forward_cell ctx m ~dest ~in_from cell =
  let v = Roots.get cell in
  if Value.is_ptr v then begin
    let target = Value.to_ptr v in
    if in_from target then begin
      let dst = evacuate ctx m ~dest target in
      Roots.set cell (Value.of_ptr dst)
    end
  end;
  Ctx.charge_work ctx m ~cycles:2.

let scan_fields ctx m ~dest ~in_from addr =
  Obj_repr.iter_pointer_slots ctx.Ctx.store addr (fun field_addr ->
      forward_field ctx m ~dest ~in_from field_addr)
