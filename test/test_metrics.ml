(* Collector telemetry: histogram percentiles, snapshots, the JSON
   round-trip, CSV export, and the Chrome trace-event exporter. *)

open Manticore_gc
module J = Metrics.Json

let test_json_value_roundtrip () =
  let doc =
    {|{"a":[1,2.5,-3e-2],"b":{"s":"he\"ll\\o\nworld é"},"t":true,"f":false,"n":null,"e":[],"eo":{}}|}
  in
  match J.parse doc with
  | Error m -> Alcotest.fail m
  | Ok v -> (
      match J.parse (J.to_string v) with
      | Error m -> Alcotest.fail ("reparse: " ^ m)
      | Ok v2 -> Alcotest.(check bool) "print/parse fixpoint" true (v = v2))

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; {|{"a":}|}; "tru"; "1 2"; {|"unterminated|}; {|{"a":1,}|} ]

let test_json_edge_cases () =
  let ok s =
    match J.parse s with
    | Ok v -> v
    | Error m -> Alcotest.failf "%S: %s" s m
  in
  (* Unicode and control escapes decode (to UTF-8) and survive a
     print/parse fixpoint. *)
  (match ok {|"caf\u00e9 \u0001 \b\f"|} with
  | J.Str str ->
      Alcotest.(check string) "escapes decoded" "caf\xc3\xa9 \x01 \b\x0c" str
  | _ -> Alcotest.fail "expected a string");
  (match ok {|"\b"|} with
  | v -> Alcotest.(check bool) "control fixpoint" true (ok (J.to_string v) = v));
  (* Exponent number forms, both cases and signs. *)
  (match ok "[1e-3, 1E+10, 2.5e2, -4E-1]" with
  | J.Arr [ J.Num a; J.Num b; J.Num c; J.Num d ] ->
      Alcotest.(check (float 1e-12)) "1e-3" 0.001 a;
      Alcotest.(check (float 1.)) "1E+10" 1e10 b;
      Alcotest.(check (float 1e-9)) "2.5e2" 250. c;
      Alcotest.(check (float 1e-12)) "-4E-1" (-0.4) d
  | _ -> Alcotest.fail "expected four numbers");
  (* Deeply nested arrays parse and round-trip. *)
  let deep = String.make 200 '[' ^ "7" ^ String.make 200 ']' in
  let v = ok deep in
  Alcotest.(check bool) "200-deep round-trip" true (ok (J.to_string v) = v);
  (* A complete value followed by trailing garbage is rejected. *)
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{} x"; "[1] [2]"; "null,"; {|"a" "b"|}; "7 }" ]

let mk_recorder () =
  let t = Metrics.create ~n_vprocs:2 () in
  for i = 1 to 100 do
    Metrics.record_pause t ~vproc:0 ~kind:Gc_trace.Minor
      ~ns:(float_of_int (i * 1000))
      ~bytes:(i * 64)
  done;
  Metrics.record_pause t ~vproc:1 ~kind:Gc_trace.Global ~ns:5e6 ~bytes:4096;
  Metrics.record_pause t ~vproc:1 ~kind:Gc_trace.Major ~ns:2e5 ~bytes:100;
  Metrics.record_pause t ~vproc:1 ~kind:Gc_trace.Promotion ~ns:300. ~bytes:32;
  Metrics.record_chunk_acquire t ~vproc:0;
  Metrics.record_steal t ~vproc:1 ~success:true;
  Metrics.record_steal t ~vproc:1 ~success:false;
  Metrics.record_request t ~vproc:0 ~ns:42_000.;
  Metrics.record_request t ~vproc:1 ~ns:7_000.;
  t

let test_percentiles () =
  (* 100 minor pauses of 1..100 us on vproc 0: the log buckets resolve
     percentiles to ~19%, and min/max are exact. *)
  let s = Metrics.snapshot (mk_recorder ()) in
  let v0 = List.nth s.Metrics.vprocs 0 in
  let p = v0.Metrics.minor.Metrics.pause_ns in
  Alcotest.(check int) "count" 100 p.Metrics.count;
  Alcotest.(check (float 0.001)) "min exact" 1_000. p.Metrics.min;
  Alcotest.(check (float 0.001)) "max exact" 100_000. p.Metrics.max;
  Alcotest.(check (float 0.001)) "sum exact" 5_050_000. p.Metrics.sum;
  Alcotest.(check bool) "p50 near 50 us" true
    (p.Metrics.p50 > 40_000. && p.Metrics.p50 < 62_000.);
  Alcotest.(check bool) "p90 near 90 us" true
    (p.Metrics.p90 > 70_000. && p.Metrics.p90 <= 100_000.);
  Alcotest.(check bool) "percentiles monotonic" true
    (p.Metrics.p50 <= p.Metrics.p90
    && p.Metrics.p90 <= p.Metrics.p99
    && p.Metrics.p99 <= p.Metrics.max);
  let v1 = List.nth s.Metrics.vprocs 1 in
  Alcotest.(check int) "one global on v1" 1
    v1.Metrics.global.Metrics.pause_ns.Metrics.count;
  Alcotest.(check (float 0.001)) "single-sample p99 = the sample" 5e6
    v1.Metrics.global.Metrics.pause_ns.Metrics.p99;
  Alcotest.(check int) "steal counters" 2 v1.Metrics.steal_attempts;
  Alcotest.(check int) "steal successes" 1 v1.Metrics.steal_successes;
  Alcotest.(check int) "chunk acquires" 1 v0.Metrics.chunk_acquires

(* Exact-value percentile edge cases: request-latency SLOs are read off
   these numbers, so every degenerate histogram shape must stay inside
   the true sample range. *)

let minor_dist t =
  let s = Metrics.snapshot t in
  (List.hd s.Metrics.vprocs).Metrics.minor.Metrics.pause_ns

let test_percentile_empty () =
  let t = Metrics.create ~n_vprocs:1 () in
  let d = minor_dist t in
  Alcotest.(check int) "count" 0 d.Metrics.count;
  List.iter
    (fun (name, v) -> Alcotest.(check (float 0.)) name 0. v)
    [ ("min", d.Metrics.min); ("max", d.Metrics.max); ("p50", d.Metrics.p50);
      ("p90", d.Metrics.p90); ("p99", d.Metrics.p99);
      ("p99.9", d.Metrics.p999) ]

let test_percentile_single_sample () =
  let t = Metrics.create ~n_vprocs:1 () in
  Metrics.record_pause t ~vproc:0 ~kind:Gc_trace.Minor ~ns:777. ~bytes:0;
  let d = minor_dist t in
  (* One sample: every percentile is that sample, exactly. *)
  List.iter
    (fun (name, v) -> Alcotest.(check (float 0.)) name 777. v)
    [ ("p50", d.Metrics.p50); ("p90", d.Metrics.p90); ("p99", d.Metrics.p99);
      ("p99.9", d.Metrics.p999); ("max", d.Metrics.max) ]

let test_percentile_one_bucket () =
  (* All samples identical: vmin = vmax clamps every bucket
     representative to the one true value. *)
  let t = Metrics.create ~n_vprocs:1 () in
  for _ = 1 to 50 do
    Metrics.record_pause t ~vproc:0 ~kind:Gc_trace.Minor ~ns:123_456. ~bytes:0
  done;
  let d = minor_dist t in
  List.iter
    (fun (name, v) -> Alcotest.(check (float 0.)) name 123_456. v)
    [ ("p50", d.Metrics.p50); ("p90", d.Metrics.p90); ("p99", d.Metrics.p99);
      ("p99.9", d.Metrics.p999) ]

let test_percentile_above_top_bucket () =
  (* Samples beyond the last log bucket (2^63-ish) collapse into it; the
     reported percentiles must still stay inside [min, max]. *)
  let t = Metrics.create ~n_vprocs:1 () in
  Metrics.record_pause t ~vproc:0 ~kind:Gc_trace.Minor ~ns:1e30 ~bytes:0;
  Metrics.record_pause t ~vproc:0 ~kind:Gc_trace.Minor ~ns:2e30 ~bytes:0;
  let d = minor_dist t in
  Alcotest.(check (float 0.)) "min exact" 1e30 d.Metrics.min;
  Alcotest.(check (float 0.)) "max exact" 2e30 d.Metrics.max;
  (* Both land in the top bucket, whose representative is ~1.4e19 — far
     below the samples — so only the vmin clamp keeps p50 truthful. *)
  Alcotest.(check (float 0.)) "p50 clamped up to min" 1e30 d.Metrics.p50;
  Alcotest.(check bool) "all percentiles within range" true
    (List.for_all
       (fun v -> v >= d.Metrics.min && v <= d.Metrics.max)
       [ d.Metrics.p50; d.Metrics.p90; d.Metrics.p99; d.Metrics.p999 ])

let test_percentile_float_ceil_rank () =
  (* Regression: with 10 samples, 0.9 *. 10. = 9.000000000000002, and a
     bare ceiling asked for rank 10 — reporting the outlier max as p90
     instead of the true ninth sample. *)
  let t = Metrics.create ~n_vprocs:1 () in
  for _ = 1 to 9 do
    Metrics.record_pause t ~vproc:0 ~kind:Gc_trace.Minor ~ns:1_000. ~bytes:0
  done;
  Metrics.record_pause t ~vproc:0 ~kind:Gc_trace.Minor ~ns:1e6 ~bytes:0;
  let d = minor_dist t in
  Alcotest.(check (float 0.)) "p90 is the 9th sample, not the outlier"
    1_000. d.Metrics.p90;
  (* p99 (rank 10) lands in the outlier's bucket: far above the other
     nine samples, though only bucket-resolved. *)
  Alcotest.(check bool) "p99 reaches the outlier's bucket" true
    (d.Metrics.p99 > 500_000. && d.Metrics.p99 <= 1e6)

let test_percentile_merged_clamp () =
  (* Merging widens [vmin, vmax], so the clamp is looser — percentiles
     must still fall inside the union range and stay monotone. *)
  let a = Metrics.create ~n_vprocs:1 () in
  let b = Metrics.create ~n_vprocs:1 () in
  Metrics.record_pause a ~vproc:0 ~kind:Gc_trace.Minor ~ns:1. ~bytes:0;
  Metrics.record_pause b ~vproc:0 ~kind:Gc_trace.Minor ~ns:1_000. ~bytes:0;
  Metrics.merge ~into:a b;
  let d = minor_dist a in
  Alcotest.(check int) "count" 2 d.Metrics.count;
  Alcotest.(check bool) "within merged range" true
    (List.for_all
       (fun v -> v >= 1. && v <= 1_000.)
       [ d.Metrics.p50; d.Metrics.p90; d.Metrics.p99; d.Metrics.p999 ]);
  Alcotest.(check bool) "monotone" true
    (d.Metrics.p50 <= d.Metrics.p90
    && d.Metrics.p90 <= d.Metrics.p99
    && d.Metrics.p99 <= d.Metrics.p999
    && d.Metrics.p999 <= d.Metrics.max)

let test_request_latency_recorded () =
  let t = Metrics.create ~n_vprocs:2 () in
  for i = 1 to 10 do
    Metrics.record_request t ~vproc:(i mod 2) ~ns:(float_of_int (i * 500))
  done;
  Metrics.record_request t ~vproc:(-1) ~ns:1e9 (* ignored *);
  let agg = Metrics.aggregate t in
  let d = agg.Metrics.requests in
  Alcotest.(check int) "all requests counted" 10 d.Metrics.count;
  Alcotest.(check (float 0.)) "min" 500. d.Metrics.min;
  Alcotest.(check (float 0.)) "max" 5_000. d.Metrics.max;
  Alcotest.(check bool) "p50 in range" true
    (d.Metrics.p50 >= 500. && d.Metrics.p50 <= 5_000.)

let test_snapshot_json_roundtrip () =
  let s = Metrics.snapshot (mk_recorder ()) in
  match Metrics.snapshot_of_json (Metrics.snapshot_to_json s) with
  | Error m -> Alcotest.fail m
  | Ok s2 -> Alcotest.(check bool) "round-trips exactly" true (s = s2)

let test_snapshot_json_shape_errors () =
  (* A real snapshot with one field dropped from every vproc. *)
  let without k =
    let open Metrics.Json in
    match parse (Metrics.snapshot_to_json (Metrics.snapshot (mk_recorder ()))) with
    | Ok (Obj [ ("vprocs", Arr vs) ]) ->
        let drop = function Obj kvs -> Obj (List.remove_assoc k kvs) | j -> j in
        to_string (Obj [ ("vprocs", Arr (List.map drop vs)) ])
    | _ -> Alcotest.fail "unexpected snapshot shape"
  in
  List.iter
    (fun doc ->
      match Metrics.snapshot_of_json doc with
      | Ok _ -> Alcotest.failf "accepted %S" doc
      | Error _ -> ())
    ([ "[]"; "{}"; {|{"vprocs":3}|}; {|{"vprocs":[{"vproc":0}]}|}; "nonsense" ]
    @ List.map without [ "barrier"; "ratified"; "ratify_skipped" ])

let test_merge () =
  let a = Metrics.create ~n_vprocs:2 () in
  let b = Metrics.create ~n_vprocs:4 () in
  for _ = 1 to 10 do
    Metrics.record_pause a ~vproc:0 ~kind:Gc_trace.Minor ~ns:1e3 ~bytes:8
  done;
  for _ = 1 to 5 do
    Metrics.record_pause b ~vproc:0 ~kind:Gc_trace.Minor ~ns:1e6 ~bytes:8
  done;
  Metrics.record_pause b ~vproc:3 ~kind:Gc_trace.Major ~ns:2e6 ~bytes:64;
  Metrics.record_steal a ~vproc:1 ~success:true;
  Metrics.record_steal b ~vproc:1 ~success:false;
  Metrics.merge ~into:a b;
  let s = Metrics.snapshot a in
  Alcotest.(check int) "grew to the source's vprocs" 4
    (List.length s.Metrics.vprocs);
  let v0 = List.nth s.Metrics.vprocs 0 in
  let p = v0.Metrics.minor.Metrics.pause_ns in
  Alcotest.(check int) "counts add" 15 p.Metrics.count;
  Alcotest.(check (float 0.001)) "min spans both" 1e3 p.Metrics.min;
  Alcotest.(check (float 0.001)) "max spans both" 1e6 p.Metrics.max;
  let v1 = List.nth s.Metrics.vprocs 1 in
  Alcotest.(check int) "steal attempts add" 2 v1.Metrics.steal_attempts;
  Alcotest.(check int) "major landed on v3" 1
    (List.nth s.Metrics.vprocs 3).Metrics.major.Metrics.pause_ns.Metrics.count

let test_aggregate () =
  let agg = Metrics.aggregate (mk_recorder ()) in
  Alcotest.(check int) "reported as vproc -1" (-1) agg.Metrics.vproc;
  Alcotest.(check int) "minors from v0" 100
    (Metrics.kind_stats agg Gc_trace.Minor).Metrics.pause_ns.Metrics.count;
  Alcotest.(check int) "global from v1" 1
    (Metrics.kind_stats agg Gc_trace.Global).Metrics.pause_ns.Metrics.count

let test_out_of_range_vproc_ignored () =
  let t = Metrics.create ~n_vprocs:1 () in
  Metrics.record_pause t ~vproc:(-3) ~kind:Gc_trace.Minor ~ns:1e3 ~bytes:8;
  Metrics.record_steal t ~vproc:(-1) ~success:true;
  Metrics.record_chunk_acquire t ~vproc:(-2);
  let s = Metrics.snapshot t in
  Alcotest.(check int) "still one vproc" 1 (List.length s.Metrics.vprocs);
  let v0 = List.hd s.Metrics.vprocs in
  Alcotest.(check int) "nothing recorded" 0
    v0.Metrics.minor.Metrics.pause_ns.Metrics.count

let mk_trace () =
  let tr = Gc_trace.create () in
  Gc_trace.enable tr;
  Gc_trace.record tr
    { Gc_trace.vproc = 0; kind = Gc_trace.Minor;
      cause = Obs.Gc_cause.Nursery_full; node = 0; t_start_ns = 1_000.;
      t_end_ns = 3_000.; bytes = 64 };
  Gc_trace.record tr
    { Gc_trace.vproc = 1; kind = Gc_trace.Global;
      cause = Obs.Gc_cause.Global_threshold; node = 1; t_start_ns = 5_000.;
      t_end_ns = 9_000.; bytes = 256 };
  Gc_trace.record tr
    { Gc_trace.vproc = 0; kind = Gc_trace.Promotion;
      cause = Obs.Gc_cause.Promotion Obs.Gc_cause.Steal; node = 0;
      t_start_ns = 10_000.; t_end_ns = 10_500.; bytes = 32 };
  tr

let test_chrome_json_well_formed () =
  let tr = mk_trace () in
  match J.parse (Gc_trace.to_chrome_json tr) with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check bool) "displayTimeUnit" true
        (J.member "displayTimeUnit" j = Some (J.Str "ms"));
      let evs =
        match J.member "traceEvents" j with
        | Some (J.Arr evs) -> evs
        | _ -> Alcotest.fail "traceEvents missing or not an array"
      in
      let ph e =
        match J.member "ph" e with Some (J.Str s) -> s | _ -> "?"
      in
      let xs = List.filter (fun e -> ph e = "X") evs in
      let ms = List.filter (fun e -> ph e = "M") evs in
      Alcotest.(check int) "one X event per collection" 3 (List.length xs);
      Alcotest.(check int) "one thread_name per vproc" 2 (List.length ms);
      List.iter
        (fun e ->
          (match J.member "ts" e with
          | Some (J.Num ts) ->
              Alcotest.(check bool) "ts in microseconds" true (ts >= 1.)
          | _ -> Alcotest.fail "X event without numeric ts");
          (match J.member "dur" e with
          | Some (J.Num d) ->
              Alcotest.(check bool) "dur non-negative" true (d >= 0.)
          | _ -> Alcotest.fail "X event without numeric dur");
          match J.member "name" e with
          | Some (J.Str n) ->
              Alcotest.(check bool) "name is a collection kind" true
                (List.mem n [ "minor"; "major"; "promotion"; "global" ])
          | _ -> Alcotest.fail "X event without name")
        xs

let test_chrome_json_empty_trace () =
  let tr = Gc_trace.create () in
  match J.parse (Gc_trace.to_chrome_json tr) with
  | Error m -> Alcotest.fail m
  | Ok j -> (
      match J.member "traceEvents" j with
      | Some (J.Arr []) -> ()
      | _ -> Alcotest.fail "expected an empty traceEvents array")

let test_units_shared_formatter () =
  Alcotest.(check string) "bytes" "512 B" (Units.bytes_to_string 512);
  Alcotest.(check string) "KiB" "2.0 KiB" (Units.bytes_to_string 2048);
  Alcotest.(check string) "MiB" "1.5 MiB"
    (Units.bytes_to_string (3 * 512 * 1024));
  Alcotest.(check string) "ns" "999 ns" (Units.ns_to_string 999.);
  Alcotest.(check string) "us" "1.5 us" (Units.ns_to_string 1_500.);
  Alcotest.(check string) "ms" "2.50 ms" (Units.ns_to_string 2_500_000.);
  Alcotest.(check string) "grouping" "12,934,567" (Units.grouped 12_934_567);
  Alcotest.(check string) "negative grouping" "-1,000" (Units.grouped (-1000))

let test_instrumented_run_records () =
  (* A real scheduler run must populate the context's recorder without
     any opt-in: at least minors, and steal attempts once work moves. *)
  let spec = Option.get (Workloads.Registry.find "synthetic") in
  let base =
    Harness.Run_config.default ~machine:Numa.Machines.tiny4 ~n_vprocs:2
  in
  let cfg =
    { base with
      Harness.Run_config.scale = 0.25;
      params =
        (* Tight enough that the small workload still minor-collects. *)
        { base.Harness.Run_config.params with
          Params.local_heap_bytes = 32 * 1024;
          nursery_min_bytes = 4 * 1024 } }
  in
  let o = Harness.Run_config.execute spec cfg in
  let agg = Metrics.aggregate o.Harness.Run_config.metrics in
  Alcotest.(check bool) "minor pauses recorded" true
    ((Metrics.kind_stats agg Gc_trace.Minor).Metrics.pause_ns.Metrics.count > 0);
  Alcotest.(check bool) "summary renders" true
    (String.length (Harness.Run_config.metrics_block o) > 0)

(* --- Sliding-window histograms, SLO, and the telemetry stream ------ *)

(* 1000 ns epochs, a 4-epoch ring: small enough to exercise rotation
   and expiry with hand-picked timestamps. *)
let win_create () =
  Metrics.create ~window_epoch_ns:1_000. ~window_epochs:4 ~n_vprocs:1 ()

let test_window_empty () =
  let m = win_create () in
  let w = Metrics.window_stats m in
  Alcotest.(check int) "no pause samples" 0 w.Metrics.win_pause.Metrics.count;
  Alcotest.(check int) "no requests" 0 w.Metrics.win_request.Metrics.count;
  Alcotest.(check (float 0.)) "empty p50" 0. w.Metrics.win_request.Metrics.p50;
  Alcotest.(check (float 0.)) "empty p99.9" 0.
    w.Metrics.win_request.Metrics.p999;
  Alcotest.(check int) "no epoch yet" (-1) w.Metrics.win_newest_epoch

let test_window_exact_epoch_boundary () =
  let m = win_create () in
  (* t = 999 is still epoch 0; t = 1000 exactly opens epoch 1. *)
  Metrics.record_request ~t_ns:999. m ~vproc:0 ~ns:100.;
  Metrics.record_request ~t_ns:1_000. m ~vproc:0 ~ns:200.;
  let w = Metrics.window_stats m in
  Alcotest.(check int) "both in window" 2 w.Metrics.win_request.Metrics.count;
  Alcotest.(check int) "boundary opened epoch 1" 1 w.Metrics.win_newest_epoch;
  (* Advancing to epoch 4 reuses epoch 0's slot: the ring now holds
     epochs 1-4, so the t=999 sample is gone and t=1000 survives. *)
  Metrics.record_request ~t_ns:4_000. m ~vproc:0 ~ns:400.;
  let w = Metrics.window_stats m in
  Alcotest.(check int) "epoch 0 expired" 2 w.Metrics.win_request.Metrics.count;
  Alcotest.(check (float 0.)) "survivor min" 200.
    w.Metrics.win_request.Metrics.min

let test_window_partial_ring () =
  let m = win_create () in
  (* One sample in epoch 2 of a 4-slot ring: a query must only see the
     populated slot, not trip on the three empty ones. *)
  Metrics.record_request ~t_ns:2_500. m ~vproc:0 ~ns:1_000.;
  let w = Metrics.window_stats m in
  Alcotest.(check int) "single sample" 1 w.Metrics.win_request.Metrics.count;
  Alcotest.(check int) "newest epoch" 2 w.Metrics.win_newest_epoch;
  (* Log-bucketed percentile: within one bucket (~19% relative) of the
     sample. *)
  Alcotest.(check bool) "p50 in bucket range" true
    (Float.abs (w.Metrics.win_request.Metrics.p50 -. 1_000.) <= 200.);
  Alcotest.(check (float 0.)) "p50 = p99.9 for one sample"
    w.Metrics.win_request.Metrics.p50 w.Metrics.win_request.Metrics.p999

let test_window_disjoint_merge () =
  let m = win_create () in
  (* Epoch 0 holds tiny samples, epoch 1 huge ones — disjoint bucket
     ranges whose merge must span both. *)
  for _ = 1 to 50 do
    Metrics.record_request ~t_ns:100. m ~vproc:0 ~ns:10.
  done;
  for _ = 1 to 50 do
    Metrics.record_request ~t_ns:1_100. m ~vproc:0 ~ns:1_000_000.
  done;
  let w = Metrics.window_stats m in
  let d = w.Metrics.win_request in
  Alcotest.(check int) "merged count" 100 d.Metrics.count;
  Alcotest.(check (float 0.)) "min from the small epoch" 10. d.Metrics.min;
  Alcotest.(check (float 0.)) "max from the large epoch" 1_000_000.
    d.Metrics.max;
  Alcotest.(check bool) "p50 from the small half" true (d.Metrics.p50 <= 12.);
  Alcotest.(check bool) "p99 from the large half" true
    (d.Metrics.p99 >= 800_000.)

let test_window_laggard_dropped () =
  let m = win_create () in
  Metrics.record_request ~t_ns:5_000. m ~vproc:0 ~ns:100.;
  (* Epoch 0 is older than the 4-slot ring retains once epoch 5 is
     current: the laggard sample must be dropped, not land in the slot
     epoch 4 now owns. *)
  Metrics.record_request ~t_ns:100. m ~vproc:0 ~ns:999.;
  let w = Metrics.window_stats m in
  Alcotest.(check int) "laggard dropped" 1 w.Metrics.win_request.Metrics.count;
  Alcotest.(check (float 0.)) "survivor value" 100.
    w.Metrics.win_request.Metrics.max

let test_window_pause_vs_barrier_routing () =
  let m = win_create () in
  Metrics.record_pause ~t_ns:10. m ~vproc:0 ~kind:Gc_trace.Minor ~ns:50.
    ~bytes:0;
  Metrics.record_pause ~t_ns:20. m ~vproc:0 ~kind:Gc_trace.Barrier ~ns:70.
    ~bytes:0;
  let w = Metrics.window_stats m in
  Alcotest.(check int) "minor -> pause window" 1
    w.Metrics.win_pause.Metrics.count;
  Alcotest.(check int) "barrier -> barrier window" 1
    w.Metrics.win_barrier.Metrics.count;
  (* Without a timestamp only the cumulative side is fed. *)
  Metrics.record_pause m ~vproc:0 ~kind:Gc_trace.Minor ~ns:60. ~bytes:0;
  let w = Metrics.window_stats m in
  Alcotest.(check int) "timestampless pause not windowed" 1
    w.Metrics.win_pause.Metrics.count

let test_slo_burn_rate () =
  let m = win_create () in
  Alcotest.(check bool) "no slo -> no status" true
    (Metrics.slo_status m = None);
  Metrics.set_slo m
    (Some
       { Metrics.slo_percentile = 0.9; slo_threshold_ns = 100.; slo_epochs = 4 });
  (match Metrics.slo_status m with
  | Some st ->
      Alcotest.(check (float 0.)) "empty window burns nothing" 0.
        st.Metrics.st_burn_rate
  | None -> Alcotest.fail "slo declared but no status");
  (* 9 under, 1 over: exactly the 10% error budget of a p90 SLO. *)
  for _ = 1 to 9 do
    Metrics.record_request ~t_ns:100. m ~vproc:0 ~ns:50.
  done;
  Metrics.record_request ~t_ns:100. m ~vproc:0 ~ns:200.;
  (match Metrics.slo_status m with
  | Some st ->
      Alcotest.(check int) "window requests" 10 st.Metrics.st_requests;
      Alcotest.(check int) "over threshold" 1 st.Metrics.st_over;
      Alcotest.(check (float 1e-9)) "burn exactly on budget" 1.
        st.Metrics.st_burn_rate
  | None -> Alcotest.fail "no status");
  (* A sample exactly at the threshold is within the objective. *)
  Metrics.record_request ~t_ns:100. m ~vproc:0 ~ns:100.;
  (match Metrics.slo_status m with
  | Some st -> Alcotest.(check int) "at-threshold not over" 1 st.Metrics.st_over
  | None -> Alcotest.fail "no status");
  (* The SLO window slides: once the over-threshold epoch expires, the
     burn rate recovers. *)
  Metrics.record_request ~t_ns:9_000. m ~vproc:0 ~ns:50.;
  match Metrics.slo_status m with
  | Some st ->
      Alcotest.(check int) "old epoch expired" 1 st.Metrics.st_requests;
      Alcotest.(check (float 0.)) "burn recovered" 0. st.Metrics.st_burn_rate
  | None -> Alcotest.fail "no status"

let test_openmetrics_exposition () =
  let m = win_create () in
  Metrics.record_pause ~t_ns:10. m ~vproc:0 ~kind:Gc_trace.Minor ~ns:50.
    ~bytes:64;
  Metrics.record_request ~t_ns:20. m ~vproc:0 ~ns:75.;
  Metrics.set_slo m
    (Some
       { Metrics.slo_percentile = 0.99; slo_threshold_ns = 1_000.;
         slo_epochs = 4 });
  let om = Metrics.to_openmetrics ~now_ns:1234. m in
  let has s =
    let sl = String.length s and il = String.length om in
    let rec go i = i + sl <= il && (String.sub om i sl = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "ends with EOF" true
    (String.length om >= 6 && String.sub om (String.length om - 6) 6 = "# EOF\n");
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (has needle))
    [ "gcsim_virtual_time_ns 1234";
      "# TYPE gcsim_pause_ns summary";
      "quantile=\"0.99\"";
      "# TYPE gcsim_window_request_ns summary";
      "gcsim_slo_burn_rate";
      "# TYPE gcsim_collections counter" ]

let test_stream_blocks () =
  let path = Filename.temp_file "metrics-stream" ".txt" in
  let m = win_create () in
  Metrics.stream_to m ~path ~interval_ns:1_000.;
  Alcotest.(check int) "nothing emitted before a tick" 0
    (Metrics.stream_emitted m);
  Metrics.stream_tick m ~now_ns:0.;
  Alcotest.(check int) "first tick emits" 1 (Metrics.stream_emitted m);
  Metrics.stream_tick m ~now_ns:500.;
  Alcotest.(check int) "inside the interval: no emission" 1
    (Metrics.stream_emitted m);
  Metrics.stream_tick m ~now_ns:2_300.;
  Alcotest.(check int) "past the interval: emits" 2 (Metrics.stream_emitted m);
  Metrics.stream_close m ~now_ns:2_400.;
  Alcotest.(check int) "close writes a final block" 3
    (Metrics.stream_emitted m);
  let ic = open_in path in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  let blocks =
    List.filter
      (fun l -> String.trim l = "# EOF")
      (String.split_on_char '\n' body)
  in
  Alcotest.(check int) "three EOF-terminated blocks on disk" 3
    (List.length blocks)

let suite =
  ( "metrics",
    [
      Alcotest.test_case "json value round-trip" `Quick test_json_value_roundtrip;
      Alcotest.test_case "json rejects malformed input" `Quick
        test_json_rejects_garbage;
      Alcotest.test_case "json escapes, exponents, nesting" `Quick
        test_json_edge_cases;
      Alcotest.test_case "histogram percentiles" `Quick test_percentiles;
      Alcotest.test_case "percentiles: empty" `Quick test_percentile_empty;
      Alcotest.test_case "percentiles: single sample" `Quick
        test_percentile_single_sample;
      Alcotest.test_case "percentiles: one bucket" `Quick
        test_percentile_one_bucket;
      Alcotest.test_case "percentiles: above top bucket" `Quick
        test_percentile_above_top_bucket;
      Alcotest.test_case "percentiles: float-ceil rank regression" `Quick
        test_percentile_float_ceil_rank;
      Alcotest.test_case "percentiles: merged clamp" `Quick
        test_percentile_merged_clamp;
      Alcotest.test_case "request latency recorded" `Quick
        test_request_latency_recorded;
      Alcotest.test_case "snapshot JSON round-trip" `Quick
        test_snapshot_json_roundtrip;
      Alcotest.test_case "snapshot JSON shape errors" `Quick
        test_snapshot_json_shape_errors;
      Alcotest.test_case "merge accumulates and grows" `Quick test_merge;
      Alcotest.test_case "aggregate across vprocs" `Quick test_aggregate;
      Alcotest.test_case "out-of-range vprocs ignored" `Quick
        test_out_of_range_vproc_ignored;
      Alcotest.test_case "chrome trace JSON well-formed" `Quick
        test_chrome_json_well_formed;
      Alcotest.test_case "chrome trace of an empty trace" `Quick
        test_chrome_json_empty_trace;
      Alcotest.test_case "shared unit formatter" `Quick
        test_units_shared_formatter;
      Alcotest.test_case "runs record telemetry by default" `Quick
        test_instrumented_run_records;
      Alcotest.test_case "window: empty percentiles" `Quick test_window_empty;
      Alcotest.test_case "window: rotation at exact epoch boundary" `Quick
        test_window_exact_epoch_boundary;
      Alcotest.test_case "window: partially-filled ring query" `Quick
        test_window_partial_ring;
      Alcotest.test_case "window: merge of disjoint bucket ranges" `Quick
        test_window_disjoint_merge;
      Alcotest.test_case "window: laggard samples dropped" `Quick
        test_window_laggard_dropped;
      Alcotest.test_case "window: pause vs barrier routing" `Quick
        test_window_pause_vs_barrier_routing;
      Alcotest.test_case "slo: burn rate over the sliding window" `Quick
        test_slo_burn_rate;
      Alcotest.test_case "openmetrics: exposition structure" `Quick
        test_openmetrics_exposition;
      Alcotest.test_case "openmetrics: stream block lifecycle" `Quick
        test_stream_blocks;
    ] )
