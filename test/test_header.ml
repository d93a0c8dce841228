(* Figure 1: the 64-bit header word — 1 bit, 15-bit ID, 48-bit length. *)

open Heap

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_encode_decode () =
  let h = Header.encode ~id:5 ~length_words:42 in
  check_bool "is_header" true (Header.is_header h);
  check_bool "not forward" false (Header.is_forward h);
  check "id" 5 (Header.id h);
  check "len" 42 (Header.length_words h)

let test_reserved_ids () =
  check "raw" 0 Header.raw_id;
  check "vector" 1 Header.vector_id;
  check "proxy" 2 Header.proxy_id;
  Alcotest.(check bool) "mixed above reserved" true (Header.first_mixed_id > Header.proxy_id)

let test_extremes () =
  let h = Header.encode ~id:Header.max_id ~length_words:Header.max_length_words in
  check "max id" Header.max_id (Header.id h);
  check "max len" Header.max_length_words (Header.length_words h);
  let h0 = Header.encode ~id:0 ~length_words:0 in
  check "zero id" 0 (Header.id h0);
  check "zero len" 0 (Header.length_words h0)

let test_out_of_range () =
  Alcotest.check_raises "id too big" (Invalid_argument "Header.encode: id out of range")
    (fun () -> ignore (Header.encode ~id:(Header.max_id + 1) ~length_words:0));
  Alcotest.check_raises "negative id" (Invalid_argument "Header.encode: id out of range")
    (fun () -> ignore (Header.encode ~id:(-1) ~length_words:0));
  Alcotest.check_raises "len too big"
    (Invalid_argument "Header.encode: length out of range") (fun () ->
      ignore (Header.encode ~id:0 ~length_words:(Header.max_length_words + 1)))

let test_forward () =
  let f = Header.forward 0x1238 in
  check_bool "is_forward" true (Header.is_forward f);
  check_bool "not header" false (Header.is_header f);
  check "addr" 0x1238 (Header.forward_addr f);
  Alcotest.check_raises "unaligned" (Invalid_argument "Header.forward: bad address")
    (fun () -> ignore (Header.forward 0x1234));
  Alcotest.check_raises "null" (Invalid_argument "Header.forward: bad address")
    (fun () -> ignore (Header.forward 0))

let test_low_bit_discrimination () =
  (* Any encoded header is odd; any forwarding word is even — the rule
     that lets the collector tell them apart. *)
  for id = 0 to 20 do
    let h = Header.encode ~id ~length_words:(id * 7) in
    check_bool "odd" true (h land 1 = 1)
  done

let prop_roundtrip =
  QCheck.Test.make ~name:"header roundtrip (id, len)" ~count:1000
    QCheck.(pair (int_bound Header.max_id) (int_bound (1 lsl 30)))
    (fun (id, len) ->
      let h = Header.encode ~id ~length_words:len in
      Header.is_header h && Header.id h = id && Header.length_words h = len)

let prop_forward_roundtrip =
  QCheck.Test.make ~name:"forward roundtrip" ~count:1000
    QCheck.(int_bound (1 lsl 40))
    (fun a ->
      let addr = (a lor 1) * 8 in
      let f = Header.forward addr in
      Header.is_forward f && Header.forward_addr f = addr)

let suite =
  ( "header",
    [
      Alcotest.test_case "encode/decode" `Quick test_encode_decode;
      Alcotest.test_case "reserved ids" `Quick test_reserved_ids;
      Alcotest.test_case "extremes" `Quick test_extremes;
      Alcotest.test_case "out of range" `Quick test_out_of_range;
      Alcotest.test_case "forwarding words" `Quick test_forward;
      Alcotest.test_case "low-bit discrimination" `Quick test_low_bit_discrimination;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_forward_roundtrip;
    ] )
