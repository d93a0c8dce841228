(* The invariant checker must actually catch corruption: build broken
   heaps with raw stores and assert each violation class is reported. *)

open Heap
open Manticore_gc
open Sim_mem

let mk () = Gc_util.mk_ctx ~n_vprocs:2 ()

let violations ctx =
  match Ctx.check_invariants ctx with Ok _ -> [] | Error errs -> errs

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let has_violation ctx substring =
  List.exists (fun e -> contains_sub e substring) (violations ctx)

let test_clean_heap () =
  let ctx = mk () in
  let m = Ctx.mutator ctx 0 in
  ignore (Gc_util.build_list ctx m [ 1; 2 ]);
  Alcotest.(check (list string)) "no violations" [] (violations ctx)

let test_detects_i1 () =
  (* Vproc 0's object made to point into vproc 1's local heap. *)
  let ctx = mk () in
  let m0 = Ctx.mutator ctx 0 and m1 = Ctx.mutator ctx 1 in
  let a = Gc_util.build_list ctx m0 [ 1 ] in
  let b = Gc_util.build_list ctx m1 [ 2 ] in
  ignore (Roots.add m0.Ctx.roots a);
  ignore (Roots.add m1.Ctx.roots b);
  (* Raw store, bypassing every barrier. *)
  Memory.set ctx.Ctx.store.Store.mem
    (Obj_repr.field_addr (Value.to_ptr a) 1)
    (b : Value.t :> int);
  Alcotest.(check bool) "I1 reported" true (has_violation ctx "I1 violation")

let test_detects_i2 () =
  let ctx = mk () in
  let m = Ctx.mutator ctx 0 in
  let l = Gc_util.build_list ctx m [ 1 ] in
  let cl = Roots.add m.Ctx.roots l in
  let g = Promote.value ctx m (Gc_util.build_list ctx m [ 2 ]) in
  ignore (Roots.add m.Ctx.roots g);
  (* Make the *global* cons point back into the local heap. *)
  Memory.set ctx.Ctx.store.Store.mem
    (Obj_repr.field_addr (Value.to_ptr g) 1)
    (Roots.get cl : Value.t :> int);
  Alcotest.(check bool) "I2 reported" true (has_violation ctx "I2 violation")

let test_detects_age_violation () =
  let ctx = mk () in
  let m = Ctx.mutator ctx 0 in
  let old_v = Gc_util.build_list ctx m [ 1 ] in
  let cold = Roots.add m.Ctx.roots old_v in
  Minor_gc.run ctx m;
  let fresh = Gc_util.build_list ctx m [ 2 ] in
  ignore (Roots.add m.Ctx.roots fresh);
  (* Raw old->nursery store without the write barrier. *)
  Memory.set ctx.Ctx.store.Store.mem
    (Obj_repr.field_addr (Value.to_ptr (Roots.get cold)) 1)
    (fresh : Value.t :> int);
  Alcotest.(check bool) "age violation reported" true
    (has_violation ctx "age violation")

let test_age_ok_when_remembered () =
  (* Same store through the write barrier: the slot is remembered, so
     the checker accepts it. *)
  let ctx = mk () in
  let m = Ctx.mutator ctx 0 in
  let old_v = Gc_util.build_list ctx m [ 1 ] in
  let cold = Roots.add m.Ctx.roots old_v in
  Minor_gc.run ctx m;
  let fresh = Gc_util.build_list ctx m [ 2 ] in
  Mut.set_pointer_field ctx m (Roots.get cold) 1 fresh;
  Alcotest.(check (list string)) "no violations" [] (violations ctx)

let test_detects_dangling_pointer () =
  let ctx = mk () in
  let m = Ctx.mutator ctx 0 in
  let a = Gc_util.build_list ctx m [ 1 ] in
  ignore (Roots.add m.Ctx.roots a);
  (* Point a field at unmapped space. *)
  Memory.set ctx.Ctx.store.Store.mem
    (Obj_repr.field_addr (Value.to_ptr a) 1)
    (Value.of_ptr 0x7f0000 : Value.t :> int);
  Alcotest.(check bool) "dangling reported" true
    (has_violation ctx "no valid object")

let test_detects_bad_descriptor_size () =
  let ctx = mk () in
  let m = Ctx.mutator ctx 0 in
  let d = Pml.Pval.register ctx in
  let node =
    Pml.Pval.arr_node ctx m d
      (Gc_util.build_list ctx m [ 1 ])
      (Gc_util.build_list ctx m [ 2 ])
  in
  ignore (Roots.add m.Ctx.roots node);
  (* Corrupt the header length. *)
  Memory.set ctx.Ctx.store.Store.mem (Value.to_ptr node)
    (Header.encode ~id:(Pml.Pval.register ctx |> fun _ -> Header.first_mixed_id)
       ~length_words:5);
  Alcotest.(check bool) "descriptor mismatch reported" true
    (has_violation ctx "does not match descriptor")

let test_overrun_reported_despite_earlier_errors () =
  (* Regression: the overrun report was gated on the *global* error list
     being empty, so any earlier violation — even in another vproc's
     heap — silently swallowed it.  Corrupt vproc 0 (walked first) and
     make vproc 1's last nursery object claim a length that runs past
     the allocation frontier: both must be reported. *)
  let ctx = mk () in
  let m0 = Ctx.mutator ctx 0 and m1 = Ctx.mutator ctx 1 in
  let a = Gc_util.build_list ctx m0 [ 1 ] in
  ignore (Roots.add m0.Ctx.roots a);
  Memory.set ctx.Ctx.store.Store.mem
    (Obj_repr.field_addr (Value.to_ptr a) 1)
    (Value.of_ptr 0x7f0000 : Value.t :> int);
  let b = Alloc.alloc_vector ctx m1 [| Value.of_int 5 |] in
  ignore (Roots.add m1.Ctx.roots b);
  Memory.set ctx.Ctx.store.Store.mem (Value.to_ptr b)
    (Header.encode ~id:Header.raw_id ~length_words:64);
  Alcotest.(check bool) "earlier error reported" true
    (has_violation ctx "no valid object");
  Alcotest.(check bool) "overrun still reported" true
    (has_violation ctx "overruns")

let test_summary_counts () =
  let ctx = mk () in
  let m = Ctx.mutator ctx 0 in
  let a = Gc_util.build_list ctx m [ 1; 2; 3 ] in
  let ca = Roots.add m.Ctx.roots a in
  let _g = Promote.value ctx m (Roots.get ca) in
  (* Promotion forwarded the list out of the nursery; allocate a fresh
     local resident so both heaps are non-trivial. *)
  ignore (Roots.add m.Ctx.roots (Gc_util.build_list ctx m [ 9 ]));
  match Ctx.check_invariants ctx with
  | Error e -> Alcotest.failf "unexpected: %s" (String.concat ";" e)
  | Ok s ->
      Alcotest.(check bool) "has local objects" true (s.Invariants.local_objects > 0);
      Alcotest.(check bool) "has global objects" true (s.Invariants.global_objects >= 3);
      Alcotest.(check int) "total = local + global" s.Invariants.objects
        (s.Invariants.local_objects + s.Invariants.global_objects)

let suite =
  ( "invariant-checker",
    [
      Alcotest.test_case "clean heap passes" `Quick test_clean_heap;
      Alcotest.test_case "detects I1" `Quick test_detects_i1;
      Alcotest.test_case "detects I2" `Quick test_detects_i2;
      Alcotest.test_case "detects age violations" `Quick test_detects_age_violation;
      Alcotest.test_case "accepts remembered slots" `Quick test_age_ok_when_remembered;
      Alcotest.test_case "detects dangling pointers" `Quick
        test_detects_dangling_pointer;
      Alcotest.test_case "detects descriptor mismatch" `Quick
        test_detects_bad_descriptor_size;
      Alcotest.test_case "overrun reported despite earlier errors" `Quick
        test_overrun_reported_despite_earlier_errors;
      Alcotest.test_case "summary counts" `Quick test_summary_counts;
    ] )
