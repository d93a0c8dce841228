(* Value tagging: odd immediates, even 8-aligned pointers. *)

open Heap

let test_ints () =
  List.iter
    (fun n ->
      let v = Value.of_int n in
      Alcotest.(check bool) "is_int" true (Value.is_int v);
      Alcotest.(check bool) "not ptr" false (Value.is_ptr v);
      Alcotest.(check int) "roundtrip" n (Value.to_int v))
    [ 0; 1; -1; 42; -42; max_int / 4; -(max_int / 4) ]

let test_ptrs () =
  List.iter
    (fun a ->
      let v = Value.of_ptr a in
      Alcotest.(check bool) "is_ptr" true (Value.is_ptr v);
      Alcotest.(check int) "roundtrip" a (Value.to_ptr v))
    [ 8; 0x1000; 0xdeadbee8 ]

let test_rejects () =
  Alcotest.check_raises "null ptr" (Invalid_argument "Value.of_ptr: bad address")
    (fun () -> ignore (Value.of_ptr 0));
  Alcotest.check_raises "unaligned" (Invalid_argument "Value.of_ptr: bad address")
    (fun () -> ignore (Value.of_ptr 12));
  Alcotest.check_raises "to_int of ptr" (Invalid_argument "Value.to_int: pointer")
    (fun () -> ignore (Value.to_int (Value.of_ptr 8)));
  Alcotest.check_raises "to_ptr of imm" (Invalid_argument "Value.to_ptr: immediate")
    (fun () -> ignore (Value.to_ptr (Value.of_int 3)))

let test_word_roundtrip () =
  let vs = [ Value.of_int 7; Value.of_int (-9); Value.of_ptr 0x88; Value.unit ] in
  List.iter
    (fun v ->
      Alcotest.(check bool) "word roundtrip" true
        (Value.equal v (Value.of_word (v : Value.t :> int))))
    vs

let test_bools () =
  Alcotest.(check bool) "true" true (Value.to_bool (Value.of_bool true));
  Alcotest.(check bool) "false" false (Value.to_bool (Value.of_bool false))

let prop_int_roundtrip =
  QCheck.Test.make ~name:"int roundtrip" ~count:1000
    QCheck.(int_range (-(1 lsl 40)) (1 lsl 40))
    (fun n -> Value.to_int (Value.of_int n) = n)

let prop_headers_vs_values =
  (* A header word never parses as a pointer value: headers are odd. *)
  QCheck.Test.make ~name:"headers are immediates if misread" ~count:500
    QCheck.(pair (int_bound 100) (int_bound 1000))
    (fun (id, len) ->
      let h = Header.encode ~id ~length_words:len in
      let v = Value.of_word h in
      Value.is_int v)

let suite =
  ( "value",
    [
      Alcotest.test_case "immediates" `Quick test_ints;
      Alcotest.test_case "pointers" `Quick test_ptrs;
      Alcotest.test_case "rejects" `Quick test_rejects;
      Alcotest.test_case "word roundtrip" `Quick test_word_roundtrip;
      Alcotest.test_case "bools" `Quick test_bools;
      QCheck_alcotest.to_alcotest prop_int_roundtrip;
      QCheck_alcotest.to_alcotest prop_headers_vs_values;
    ] )
