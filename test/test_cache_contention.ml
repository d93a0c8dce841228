(* Cache and bandwidth-contention models. *)

open Numa

let test_cache_hit_miss () =
  let c = Cache.create ~size_kb:4 ~line_bytes:64 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x1000);
  Alcotest.(check bool) "warm hit" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line" true (Cache.access c 0x1038);
  Alcotest.(check bool) "next line misses" false (Cache.access c 0x1040);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_eviction () =
  let c = Cache.create ~size_kb:4 ~line_bytes:64 in
  (* 4KB 4-way = 16 sets; five addresses 1KB apart overfill one set and
     evict the least recently used line. *)
  ignore (Cache.access c 0x0);
  for i = 1 to 4 do
    ignore (Cache.access c (i * 0x400))
  done;
  Alcotest.(check bool) "LRU evicted" false (Cache.access c 0x0);
  (* The most recent of the conflicting lines is still resident. *)
  Alcotest.(check bool) "MRU kept" true (Cache.probe c 0x1000)

let test_cache_associativity () =
  let c = Cache.create ~size_kb:4 ~line_bytes:64 in
  (* Four conflicting lines co-reside in a 4-way set. *)
  for i = 0 to 3 do
    ignore (Cache.access c (i * 0x400))
  done;
  for i = 0 to 3 do
    Alcotest.(check bool) "all four resident" true (Cache.probe c (i * 0x400))
  done

let test_cache_probe_no_fill () =
  let c = Cache.create ~size_kb:4 ~line_bytes:64 in
  Alcotest.(check bool) "probe cold" false (Cache.probe c 0x40);
  Alcotest.(check bool) "still cold after probe" false (Cache.access c 0x40);
  Alcotest.(check bool) "probe warm" true (Cache.probe c 0x40)

let test_cache_bad_args () =
  Alcotest.check_raises "zero size" (Invalid_argument "Cache.create") (fun () ->
      ignore (Cache.create ~size_kb:0 ~line_bytes:64));
  Alcotest.check_raises "non-pow2 line"
    (Invalid_argument "Cache.create: line_bytes must be a power of two")
    (fun () -> ignore (Cache.create ~size_kb:4 ~line_bytes:48))

let test_contention_uncontended () =
  let r = Contention.create ~gb_per_s:10.0 () in
  let d = Contention.charge r ~now_ns:0. ~bytes:64 in
  Alcotest.(check (float 1e-9)) "pure service time" 6.4 d

let test_contention_overload_billing () =
  let r = Contention.create ~gb_per_s:1.0 ~window_ns:1000. () in
  (* Capacity is 1000 bytes per window; the first 1000 bytes pay service
     only, the excess pays the utilization-scaled overflow penalty. *)
  let d1 = Contention.charge r ~now_ns:0. ~bytes:1000 in
  Alcotest.(check (float 1e-9)) "within capacity" 1000. d1;
  let d2 = Contention.charge r ~now_ns:0. ~bytes:500 in
  Alcotest.(check bool) "overflow penalized" true (d2 > 500.);
  Alcotest.(check bool) "utilization over 1" true
    (Contention.utilization r ~now_ns:0. > 1.0)

let test_contention_caps_delivery () =
  (* Six saturating streamers must be delivered (close to) the rated
     bandwidth, not their offered load. *)
  let r = Contention.create ~gb_per_s:10.0 () in
  let clocks = Array.make 6 0. in
  for _ = 1 to 2000 do
    let who = ref 0 in
    Array.iteri (fun i c -> if c < clocks.(!who) then who := i) clocks;
    let d = Contention.charge r ~now_ns:clocks.(!who) ~bytes:4096 in
    clocks.(!who) <- clocks.(!who) +. d
  done;
  let makespan = Array.fold_left Float.max 0. clocks in
  let gbps = Contention.total_bytes r /. makespan in
  Alcotest.(check bool)
    (Printf.sprintf "delivered %.1f of 10.0 GB/s" gbps)
    true
    (gbps < 11.5 && gbps > 8.0)

let test_contention_decays () =
  let r = Contention.create ~gb_per_s:10.0 ~window_ns:1000. () in
  ignore (Contention.charge r ~now_ns:0. ~bytes:100_000);
  (* Many idle windows later, the backlog has drained. *)
  Alcotest.(check (float 1e-9)) "decayed" 0.
    (Contention.utilization r ~now_ns:50_000.)

(* Reading utilization must not move the meter.  A read from a clock 5
   windows ahead must not roll it there: a later charge from a lagging
   clock belongs in the overflowing window (40,500 ns), not in a drained
   one (500 ns). *)
let test_contention_utilization_is_pure () =
  let charge_after read =
    let r = Contention.create ~gb_per_s:1.0 ~window_ns:1000. () in
    ignore (Contention.charge r ~now_ns:0. ~bytes:1500);
    if read then ignore (Contention.utilization r ~now_ns:5000.);
    Contention.charge r ~now_ns:10. ~bytes:500
  in
  Alcotest.(check (float 1e-9)) "overflowing window" 40_500. (charge_after false);
  Alcotest.(check (float 1e-9)) "after a read ahead" 40_500. (charge_after true)

let test_contention_total () =
  let r = Contention.create ~gb_per_s:1.0 () in
  ignore (Contention.charge r ~now_ns:0. ~bytes:100);
  ignore (Contention.charge r ~now_ns:10. ~bytes:28);
  Alcotest.(check (float 1e-9)) "total" 128. (Contention.total_bytes r)

let prop_delay_monotone =
  QCheck.Test.make ~name:"charge delay is monotone in prior load" ~count:200
    QCheck.(pair (int_range 1 2000) (int_range 1 2000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let probe prior =
        let r = Contention.create ~gb_per_s:1.0 ~window_ns:1000. () in
        ignore (Contention.charge r ~now_ns:0. ~bytes:prior);
        Contention.charge r ~now_ns:1. ~bytes:64
      in
      probe lo <= probe hi +. 1e-9)

let suite =
  ( "cache+contention",
    [
      Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
      Alcotest.test_case "eviction" `Quick test_cache_eviction;
      Alcotest.test_case "associativity" `Quick test_cache_associativity;
      Alcotest.test_case "probe does not fill" `Quick test_cache_probe_no_fill;
      Alcotest.test_case "bad args" `Quick test_cache_bad_args;
      Alcotest.test_case "uncontended" `Quick test_contention_uncontended;
      Alcotest.test_case "overload billing" `Quick test_contention_overload_billing;
      Alcotest.test_case "delivery capped at capacity" `Quick
        test_contention_caps_delivery;
      Alcotest.test_case "decay" `Quick test_contention_decays;
      Alcotest.test_case "utilization is a pure read" `Quick
        test_contention_utilization_is_pure;
      Alcotest.test_case "total bytes" `Quick test_contention_total;
      QCheck_alcotest.to_alcotest prop_delay_monotone;
    ] )
