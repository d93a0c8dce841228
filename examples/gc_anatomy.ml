(* A guided tour of the collector: watch the heap layout evolve through
   a minor collection (Figure 2), a major collection (Figure 3), a
   promotion (§3.1) and a global collection (§3.4), plus the Figure 1
   header word itself.

   Run:  dune exec examples/gc_anatomy.exe  *)

open Heap
open Manticore_gc

let show title (lh : Local_heap.t) =
  Printf.printf "%-28s" title;
  let span lo hi = (hi - lo) / 8 in
  Printf.printf
    "| old %4dw (young %4dw) | copy space %4dw | nursery %4dw used %4dw |\n"
    (span lh.Local_heap.base lh.Local_heap.old_top)
    (span lh.Local_heap.young_base lh.Local_heap.old_top)
    (span lh.Local_heap.old_top lh.Local_heap.nursery_base)
    (span lh.Local_heap.nursery_base lh.Local_heap.limit)
    (span lh.Local_heap.nursery_base lh.Local_heap.alloc_ptr)

let () =
  let params =
    {
      Params.default with
      Params.capacity_bytes = 16 * 1024 * 1024;
      local_heap_bytes = 16 * 1024;
      chunk_bytes = 4 * 1024;
      nursery_min_bytes = 2 * 1024;
      global_budget_per_vproc = 64 * 1024;
    }
  in
  let ctx =
    Ctx.create ~params ~machine:Numa.Machines.tiny4 ~n_vprocs:2
      ~policy:Sim_mem.Page_policy.Local ()
  in
  Global_gc.install_sync_hook ctx;
  let m = Ctx.mutator ctx 0 in
  let lh = m.Ctx.lh in

  print_endline "== Figure 1: the header word ==";
  let h = Header.encode ~id:7 ~length_words:3 in
  Printf.printf "header {id=7; len=3} = %#x (low bit 1)\n" h;
  let f = Header.forward 0x2040 in
  Printf.printf "forward -> 0x2040   = %#x (low bit 0)\n\n" f;

  print_endline "== Minor collection (Figure 2) ==";
  show "fresh heap" lh;
  (* Allocate a keeper and lots of garbage. *)
  let keeper =
    Alloc.alloc_vector ctx m [| Value.of_int 1; Value.of_int 2; Value.of_int 3 |]
  in
  let cell = Roots.add m.Ctx.roots keeper in
  for i = 0 to 60 do
    ignore (Alloc.alloc_vector ctx m [| Value.of_int i; Value.of_int i |])
  done;
  show "after allocating" lh;
  Minor_gc.run ctx m;
  show "after minor GC" lh;
  Printf.printf "keeper moved to %#x (young data)\n\n"
    (Value.to_ptr (Roots.get cell));

  print_endline "== Major collection (Figure 3) ==";
  (* Age the keeper out of the young partition, then collect. *)
  Minor_gc.run ctx m;
  show "after second minor" lh;
  Major_gc.run ctx m;
  show "after major GC" lh;
  Printf.printf "keeper now in a global chunk at %#x (node %d)\n\n"
    (Value.to_ptr (Roots.get cell))
    (Sim_mem.Memory.node_of_addr ctx.Ctx.store.Store.mem
       (Value.to_ptr (Roots.get cell)));

  print_endline "== Promotion (section 3.1) ==";
  let local_list =
    Alloc.alloc_vector ctx m [| Value.of_int 42; Roots.get cell |]
  in
  Printf.printf "local object at %#x (in local heap: %b)\n"
    (Value.to_ptr local_list)
    (Local_heap.in_heap lh (Value.to_ptr local_list));
  let g = Promote.value ctx m local_list in
  Printf.printf "promoted copy at %#x; old header is now %s\n"
    (Value.to_ptr g)
    (Format.asprintf "%a" Header.pp
       (Obj_repr.header ctx.Ctx.store (Value.to_ptr local_list)));
  let gcell = Roots.add m.Ctx.roots g in

  print_endline "\n== Global collection (section 3.4) ==";
  let before = Global_heap.in_use_bytes ctx.Ctx.global in
  (* Fill chunks with global garbage. *)
  for i = 0 to 2000 do
    ignore (Promote.value ctx m (Alloc.alloc_vector ctx m [| Value.of_int i |]))
  done;
  let mid = Global_heap.in_use_bytes ctx.Ctx.global in
  Global_gc.run ctx;
  let after = Global_heap.in_use_bytes ctx.Ctx.global in
  Printf.printf "global heap: %d B -> %d B (garbage) -> %d B (collected)\n"
    before mid after;
  Printf.printf "live value survived: first field = %d\n"
    (Value.to_int (Ctx.get_field ctx m (Value.to_ptr (Roots.get gcell)) 0));
  Printf.printf "global collections so far: %d\n"
    ctx.Ctx.stats.Gc_stats.global_count;
  (match Ctx.check_invariants ctx with
  | Ok s ->
      Printf.printf "invariants hold: %d objects, %d proxies\n"
        s.Invariants.objects s.Invariants.proxies
  | Error e -> List.iter print_endline e);
  Format.printf "@.%a@." Gc_stats.pp m.Ctx.stats
