(* The flight recorder: ring overwrite semantics, the cause and event
   codecs, dump round-trips, and the always-on instrumentation promises
   — every recorded collection carries a cause that reconciles with the
   pause telemetry, the NUMA traffic matrix matches the copied-byte
   totals exactly, and failed steals on empty deques count as
   attempts. *)

open Heap
open Manticore_gc
open Runtime
module Cause = Obs.Gc_cause
module Event = Obs.Event

let test_ring_overwrite () =
  let r = Obs.Ring.create ~capacity:8 in
  for i = 0 to 19 do
    Obs.Ring.push r ~t_ns:(float_of_int i) ~tag:1 ~a:i ~b:0 ~c:0
  done;
  Alcotest.(check int) "total" 20 (Obs.Ring.total r);
  Alcotest.(check int) "stored" 8 (Obs.Ring.stored r);
  Alcotest.(check int) "dropped" 12 (Obs.Ring.dropped r);
  let seen = ref [] in
  Obs.Ring.iter_oldest_first r (fun seq _ _ a _ _ -> seen := (seq, a) :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check int) "surviving" 8 (List.length seen);
  List.iteri
    (fun i (seq, a) ->
      Alcotest.(check int) "sequence numbers are global" (12 + i) seq;
      Alcotest.(check int) "payload matches its sequence" (12 + i) a)
    seen

let test_cause_codec () =
  Alcotest.(check int) "codes are dense" Cause.n_codes
    (List.length Cause.all);
  List.iter
    (fun c ->
      Alcotest.(check bool) "of_code inverts code" true
        (Cause.of_code (Cause.code c) = Some c);
      Alcotest.(check bool) "of_string inverts to_string" true
        (Cause.of_string (Cause.to_string c) = Some c))
    Cause.all;
  Alcotest.(check bool) "bad code rejected" true (Cause.of_code 99 = None);
  Alcotest.(check bool) "bad name rejected" true (Cause.of_string "zap" = None)

let sample_events =
  [
    Event.Coll_begin { kind = Event.Minor; cause = Cause.Nursery_full };
    Event.Coll_end { kind = Event.Major; cause = Cause.To_space_low; bytes = 4096 };
    Event.Coll_end
      { kind = Event.Promotion;
        cause = Cause.Promotion Cause.Mut_store;
        bytes = 64 };
    Event.Coll_end { kind = Event.Global; cause = Cause.Global_threshold; bytes = 0 };
    Event.Chunk_acquire { node = 3; fresh = true };
    Event.Chunk_acquire { node = 0; fresh = false };
    Event.Chunk_release { node = 2 };
    Event.Steal_attempt { victim = 5 };
    Event.Steal_success { victim = 1 };
    Event.Global_phase { phase = Event.Cheney };
    Event.Alloc_sample { bytes = 128 };
    Event.Req_done { latency_ns = 1_234_567 };
  ]
  (* Every collection kind and global phase, through both codecs. *)
  @ List.map
      (fun (kind, _) -> Event.Coll_end { kind; cause = Cause.Forced; bytes = 8 })
      (Array.to_list Event.kinds)
  @ List.map
      (fun (phase, _) -> Event.Global_phase { phase })
      (Array.to_list Event.phases)

let test_event_codec () =
  List.iter
    (fun ev ->
      let tag, a, b, c = Event.encode ev in
      (match Event.decode ~tag ~a ~b ~c with
      | Some ev' -> Alcotest.(check bool) "packed round-trip" true (ev = ev')
      | None -> Alcotest.fail "packed decode failed");
      match Event.of_strings (Event.to_strings ev) with
      | Ok ev' -> Alcotest.(check bool) "text round-trip" true (ev = ev')
      | Error m -> Alcotest.fail m)
    sample_events;
  Alcotest.(check bool) "bad tag rejected" true
    (Event.decode ~tag:99 ~a:0 ~b:0 ~c:0 = None);
  (match Event.of_strings [ "coll-end"; "zzz"; "nursery_full"; "1" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bad kind");
  match Event.of_strings [ "no-such-event" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown event"

let test_recorder_dump_roundtrip () =
  let r =
    Obs.Recorder.create ~capacity:16 ~n_vprocs:2 ~n_nodes:2
      ~node_of_vproc:(fun v -> v mod 2)
      ()
  in
  List.iteri
    (fun i ev ->
      Obs.Recorder.record r ~vproc:(i mod 2)
        ~t_ns:(1000.25 +. float_of_int i)
        ev)
    sample_events;
  Obs.Recorder.record_copy r ~src_node:0 ~dst_node:1 ~bytes:640;
  Obs.Recorder.record_copy r ~src_node:1 ~dst_node:1 ~bytes:72;
  let text = Obs.Recorder.to_string r in
  match Obs.Recorder.of_string text with
  | Error m -> Alcotest.failf "dump did not parse: %s" m
  | Ok r2 ->
      Alcotest.(check int) "vprocs" 2 (Obs.Recorder.n_vprocs r2);
      Alcotest.(check int) "nodes" 2 (Obs.Recorder.n_nodes r2);
      for v = 0 to 1 do
        Alcotest.(check bool)
          (Printf.sprintf "vproc %d events survive" v)
          true
          (Obs.Recorder.events r ~vproc:v = Obs.Recorder.events r2 ~vproc:v)
      done;
      Alcotest.(check int) "matrix cell" 640
        (Obs.Recorder.matrix_get r2 ~src_node:0 ~dst_node:1);
      Alcotest.(check int) "matrix total" 712 (Obs.Recorder.matrix_total r2);
      Alcotest.(check string) "print/parse fixpoint" text
        (Obs.Recorder.to_string r2)

(* -- the always-on promises, on a real run --------------------------- *)

let run_workload () =
  let spec = Option.get (Workloads.Registry.find "synthetic") in
  let base =
    Harness.Run_config.default ~machine:Numa.Machines.tiny4 ~n_vprocs:2
  in
  let cfg =
    { base with
      Harness.Run_config.scale = 0.25;
      params =
        (* Tight enough that the small workload still collects. *)
        { base.Harness.Run_config.params with
          Params.local_heap_bytes = 32 * 1024;
          nursery_min_bytes = 4 * 1024 } }
  in
  Harness.Run_config.execute spec cfg

(* Every event over all rings, after checking that no ring wrapped: a
   count taken from a wrapped ring would undercount. *)
let all_events r =
  List.concat
    (List.init (Obs.Recorder.n_vprocs r) (fun v ->
         Alcotest.(check int)
           (Printf.sprintf "vproc %d ring did not overwrite" v)
           0
           (Obs.Recorder.dropped r ~vproc:v);
         List.map (fun (_, _, ev) -> ev) (Obs.Recorder.events r ~vproc:v)))

(* Occurrences per collection kind, indexed by its code. *)
let count_by_kind kinds_of =
  let counts = Array.make (Array.length Event.kinds) 0 in
  List.iter
    (fun k ->
      let i = Event.kind_code k in
      counts.(i) <- counts.(i) + 1)
    kinds_of;
  counts

let pauses vs k = (Metrics.kind_stats vs k).Metrics.pause_ns.Metrics.count

(* The ring's Coll_end events equal the metrics' pauses, kind by kind. *)
let check_coll_ends r metrics =
  let counts =
    count_by_kind
      (List.filter_map
         (function Event.Coll_end { kind; _ } -> Some kind | _ -> None)
         (all_events r))
  in
  let agg = Metrics.aggregate metrics in
  Alcotest.(check bool) "run collected" true (counts.(0) > 0);
  Array.iter
    (fun (k, name) ->
      Alcotest.(check int)
        (name ^ " events = " ^ name ^ " pauses")
        (pauses agg k)
        counts.(Event.kind_code k))
    Event.kinds

(* A server run whose small global budget forces global collections,
   with the timeline on and few enough events that no ring wraps. *)
let run_server mode =
  let params =
    {
      Params.default with
      Params.capacity_bytes = 32 * 1024 * 1024;
      local_heap_bytes = 16 * 1024;
      chunk_bytes = 4 * 1024;
      nursery_min_bytes = 2 * 1024;
      global_budget_per_vproc = 8 * 1024;
      global_gc_mode = mode;
    }
  in
  let c =
    Ctx.create ~params ~machine:Numa.Machines.amd48 ~n_vprocs:4
      ~policy:Sim_mem.Page_policy.Local ()
  in
  Gc_trace.enable c.Ctx.trace;
  let rt = Sched.create ~seed:7 c in
  let load =
    { (Workloads.Server.default_load ~scale:2.) with Workloads.Server.seed = 42 }
  in
  ignore
    (Sched.run rt ~main:(fun m ->
         ignore (Workloads.Server.run_load rt m load);
         Value.unit));
  c

(* Per vproc and kind, the four stores hold the same facts: the
   Gc_stats counters and the metrics, the timeline and the metrics, and
   the ring's events and the metrics' counts and counters. *)
let check_stores_agree (c : Ctx.t) =
  check_coll_ends c.Ctx.obs c.Ctx.metrics;
  List.iter
    (fun (vs : Metrics.vproc_stats) ->
      let s = (Ctx.mutator c vs.Metrics.vproc).Ctx.stats in
      let bytes k =
        int_of_float (Metrics.kind_stats vs k).Metrics.copied_bytes.Metrics.sum
      in
      let check what k stat =
        Alcotest.(check (pair int int))
          (Printf.sprintf "v%d %s: Gc_stats count and bytes = metrics"
             vs.Metrics.vproc what)
          stat
          (pauses vs k, bytes k)
      in
      check "minor" Event.Minor
        (s.Gc_stats.minor_count, s.Gc_stats.minor_copied_bytes);
      check "major" Event.Major
        (s.Gc_stats.major_count, s.Gc_stats.major_copied_bytes);
      check "promotion" Event.Promotion
        (s.Gc_stats.promote_count, s.Gc_stats.promoted_bytes);
      Alcotest.(check int)
        (Printf.sprintf "v%d global bytes = metrics" vs.Metrics.vproc)
        s.Gc_stats.global_copied_bytes (bytes Event.Global))
    (Metrics.snapshot c.Ctx.metrics).Metrics.vprocs;
  Alcotest.(check int) "vprocs' global bytes = context's"
    c.Ctx.stats.Gc_stats.global_copied_bytes
    (Ctx.gc_totals c).Gc_stats.global_copied_bytes;
  let agg = Metrics.aggregate c.Ctx.metrics in
  let timeline =
    count_by_kind
      (List.map (fun e -> e.Gc_trace.kind) (Gc_trace.events c.Ctx.trace))
  in
  Array.iter
    (fun (k, name) ->
      Alcotest.(check int)
        (name ^ " timeline events = pauses")
        (pauses agg k)
        timeline.(Event.kind_code k))
    Event.kinds;
  let evs = all_events c.Ctx.obs in
  let ring p = List.length (List.filter p evs) in
  Alcotest.(check int) "ring chunk acquires = metrics" agg.Metrics.chunk_acquires
    (ring (function Event.Chunk_acquire _ -> true | _ -> false));
  Alcotest.(check int) "ring steal attempts = metrics"
    agg.Metrics.steal_attempts
    (ring (function Event.Steal_attempt _ -> true | _ -> false));
  Alcotest.(check int) "ring steal successes = metrics"
    agg.Metrics.steal_successes
    (ring (function Event.Steal_success _ -> true | _ -> false));
  Alcotest.(check int) "ring requests = metrics"
    agg.Metrics.requests.Metrics.count
    (ring (function Event.Req_done _ -> true | _ -> false))

let test_every_collection_attributed () =
  let o = run_workload () in
  check_coll_ends o.Harness.Run_config.obs o.Harness.Run_config.metrics;
  (* The cause counters must cover every pause: 100% attribution.  (Runs
     with global collections are left out: a barrier wait counts its
     cause, a concurrent slice does not.) *)
  List.iter
    (fun (vs : Metrics.vproc_stats) ->
      let attributed =
        List.fold_left (fun acc (_, n) -> acc + n) 0 vs.Metrics.causes
      in
      Alcotest.(check int)
        (Printf.sprintf "vproc %d: every pause has a cause" vs.Metrics.vproc)
        (List.fold_left
           (fun acc k -> acc + pauses vs k)
           0
           [ Event.Minor; Event.Major; Event.Promotion; Event.Global ])
        attributed)
    (Metrics.snapshot o.Harness.Run_config.metrics).Metrics.vprocs;
  List.iter
    (fun mode ->
      let c = run_server mode in
      Alcotest.(check bool) "global collections ran" true
        (c.Ctx.stats.Gc_stats.global_count > 0);
      check_stores_agree c)
    [ Params.Stw; Params.Concurrent ]

let test_matrix_matches_copied_bytes () =
  (* Exact-byte cross-check: the NUMA traffic matrix total must equal
     the sum of every vproc's copied-byte totals across all collection
     kinds — the matrix is fed from the same evacuation copies the pause
     telemetry charges. *)
  let o = run_workload () in
  let r = o.Harness.Run_config.obs in
  let snap = Metrics.snapshot o.Harness.Run_config.metrics in
  let copied =
    List.fold_left
      (fun acc (vs : Metrics.vproc_stats) ->
        List.fold_left
          (fun acc k ->
            acc
            + int_of_float
                (Metrics.kind_stats vs k).Metrics.copied_bytes.Metrics.sum)
          acc
          [ Gc_trace.Minor; Gc_trace.Major; Gc_trace.Promotion; Gc_trace.Global ])
      0 snap.Metrics.vprocs
  in
  Alcotest.(check bool) "bytes were copied" true (copied > 0);
  Alcotest.(check int) "matrix total = copied bytes" copied
    (Obs.Recorder.matrix_total r);
  let n = Obs.Recorder.n_nodes r in
  let cells = ref 0 in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      cells := !cells + Obs.Recorder.matrix_get r ~src_node:s ~dst_node:d
    done
  done;
  Alcotest.(check int) "cells sum to the total" copied !cells

let test_batched_promotion_matrix_reconciles () =
  (* The batched promotion path feeds the same per-copy obs recording
     as singleton promotion: after a steal/message-heavy scheduler run
     (write buffers on — the default) the NUMA matrix total still
     equals the copied-byte telemetry across all kinds, and the
     promotion rows equal the mutators' promoted-byte counters. *)
  let rt = Test_sched.mk_rt ~n_vprocs:4 () in
  let c = Sched.ctx rt in
  ignore
    (Sched.run rt ~main:(fun m ->
         let ch = Sched.new_channel rt m in
         let consumers =
           List.init 3 (fun _ ->
               Sched.spawn rt m ~env:[||] (fun m' _ ->
                   let s = ref 0 in
                   for _ = 1 to 8 do
                     let v = Sched.recv rt m' ch in
                     s :=
                       !s + List.fold_left ( + ) 0 (Gc_util.read_list c m' v)
                   done;
                   Value.of_int !s))
         in
         Sched.yield rt m;
         for i = 1 to 24 do
           Sched.send rt m ch (Gc_util.build_list c m [ i; i + 1 ])
         done;
         List.iter (fun f -> ignore (Sched.await rt m f)) consumers;
         Value.unit));
  let snap = Metrics.snapshot c.Ctx.metrics in
  let copied_kind k =
    List.fold_left
      (fun acc (vs : Metrics.vproc_stats) ->
        acc
        + int_of_float
            (Metrics.kind_stats vs k).Metrics.copied_bytes.Metrics.sum)
      0 snap.Metrics.vprocs
  in
  let copied_all =
    List.fold_left
      (fun acc k -> acc + copied_kind k)
      0
      [ Gc_trace.Minor; Gc_trace.Major; Gc_trace.Promotion; Gc_trace.Global ]
  in
  let promoted =
    Array.fold_left
      (fun acc (mu : Ctx.mutator) ->
        acc + mu.Ctx.stats.Gc_stats.promoted_bytes)
      0 c.Ctx.muts
  in
  Alcotest.(check bool) "promotions happened" true (promoted > 0);
  Alcotest.(check bool) "batched promotions happened" true
    (Array.exists
       (fun (mu : Ctx.mutator) ->
         mu.Ctx.stats.Gc_stats.promote_batched_values > 0)
       c.Ctx.muts);
  Alcotest.(check int) "promotion telemetry = promoted bytes" promoted
    (copied_kind Gc_trace.Promotion);
  Alcotest.(check int) "matrix total = all copied bytes" copied_all
    (Obs.Recorder.matrix_total c.Ctx.obs)

let test_failed_steals_counted () =
  (* Steal-attempt exactness: an executed hunt pays one attempt per
     deque it probes — the empty ones on the way plus the victim — and
     nothing is recorded for the speculative hunts the scheduler's
     move selection re-runs every decision without any state change.
     A fan-out where every item starts on vproc 0 makes the three
     thieves' hunts walk over each other's empty deques, so executed
     failed probes must outnumber successes, and the flight recorder
     and the metrics counters must agree event for event. *)
  let rt = Test_sched.mk_rt ~n_vprocs:4 () in
  let c = Sched.ctx rt in
  ignore
    (Sched.run rt ~main:(fun m ->
         let futs =
           List.init 32 (fun _ ->
               Sched.spawn rt m ~env:[||] (fun m' _ ->
                   Ctx.charge_work c m' ~cycles:1_000_000.;
                   Sched.yield rt m';
                   Value.of_int 1))
         in
         List.iter (fun f -> ignore (Sched.await rt m f)) futs;
         Value.unit));
  let agg = Metrics.aggregate c.Ctx.metrics in
  Alcotest.(check bool) "steals happened" true (agg.Metrics.steal_successes > 0);
  Alcotest.(check bool) "failed probes counted as attempts" true
    (agg.Metrics.steal_attempts > agg.Metrics.steal_successes);
  let ring_attempts = ref 0 and ring_successes = ref 0 in
  for v = 0 to Obs.Recorder.n_vprocs c.Ctx.obs - 1 do
    Alcotest.(check int)
      (Printf.sprintf "vproc %d ring did not overwrite" v)
      0
      (Obs.Recorder.dropped c.Ctx.obs ~vproc:v);
    List.iter
      (fun (_, _, ev) ->
        match ev with
        | Event.Steal_attempt _ -> incr ring_attempts
        | Event.Steal_success _ -> incr ring_successes
        | _ -> ())
      (Obs.Recorder.events c.Ctx.obs ~vproc:v)
  done;
  Alcotest.(check int) "ring attempts = metrics attempts"
    agg.Metrics.steal_attempts !ring_attempts;
  Alcotest.(check int) "ring successes = metrics successes"
    agg.Metrics.steal_successes !ring_successes

let test_disabled_recorder_is_silent () =
  let o =
    let spec = Option.get (Workloads.Registry.find "synthetic") in
    let base =
      Harness.Run_config.default ~machine:Numa.Machines.tiny4 ~n_vprocs:2
    in
    Harness.Run_config.execute spec
      { base with Harness.Run_config.scale = 0.25; obs_enabled = false }
  in
  let r = o.Harness.Run_config.obs in
  let total = ref (Obs.Recorder.matrix_total r) in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    total := !total + List.length (Obs.Recorder.events r ~vproc:v)
  done;
  Alcotest.(check int) "nothing recorded when disabled" 0 !total

(* Gc_trace's offline analysis, the one gcprof and the BENCH_7 sweep
   share, over a hand-built recorder.  vproc 0 nests a minor inside a
   major and starts with a Coll_end whose begin the ring lost; vproc
   1's collections overlap vproc 0's; the dump ends inside a global.
   Two requests tie for the slowest (32 ns each) and collections cover
   30 and 20 ns of them, so the slow tail is 50/64 inside collections. *)
let test_slow_tail_analysis () =
  let r =
    Obs.Recorder.create ~n_vprocs:2 ~n_nodes:2 ~node_of_vproc:Fun.id ()
  in
  let begin_ kind = Event.Coll_begin { kind; cause = Cause.Nursery_full } in
  let end_ kind = Event.Coll_end { kind; cause = Cause.Nursery_full; bytes = 8 } in
  let req latency_ns = Event.Req_done { latency_ns } in
  List.iter
    (fun (v, t, ev) -> Obs.Recorder.record r ~vproc:v ~t_ns:t ev)
    [ (0, 5., end_ Event.Minor);
      (0, 10., begin_ Event.Major);
      (0, 12., begin_ Event.Minor);
      (0, 15., end_ Event.Minor);
      (0, 30., end_ Event.Major);
      (0, 40., req 32);
      (0, 75., begin_ Event.Major);
      (0, 90., end_ Event.Major);
      (0, 100., begin_ Event.Global);
      (1, 20., req 10);
      (1, 25., begin_ Event.Promotion);
      (1, 50., end_ Event.Promotion);
      (1, 55., req 5);
      (1, 70., begin_ Event.Minor);
      (1, 80., end_ Event.Minor);
      (1, 96., req 32) ];
  let tr, orphans = Gc_trace.of_recorder r in
  Alcotest.(check int) "orphan end and unfinished begin" 2 orphans;
  Alcotest.(check (list (pair int (pair string (pair (float 0.) (float 0.))))))
    "pairs per vproc and kind, in start order"
    [ (0, ("major", (10., 30.)));
      (0, ("minor", (12., 15.)));
      (1, ("promotion", (25., 50.)));
      (1, ("minor", (70., 80.)));
      (0, ("major", (75., 90.))) ]
    (List.map
       (fun e ->
         Gc_trace.
           ( e.vproc,
             (Event.kind_to_string e.kind, (e.t_start_ns, e.t_end_ns)) ))
       (Gc_trace.events tr));
  let slow = Gc_trace.slow_requests (Gc_trace.request_windows r) in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "the two slowest requests" [ (8., 40.); (64., 96.) ]
    (List.sort compare slow);
  Alcotest.(check (float 0.)) "slow-tail GC share" (50. /. 64.)
    (Gc_trace.gc_overlap_share tr slow)

let suite =
  ( "obs",
    [
      Alcotest.test_case "ring overwrites oldest first" `Quick
        test_ring_overwrite;
      Alcotest.test_case "cause codec round-trips" `Quick test_cause_codec;
      Alcotest.test_case "event codec round-trips" `Quick test_event_codec;
      Alcotest.test_case "recorder dump round-trips" `Quick
        test_recorder_dump_roundtrip;
      Alcotest.test_case "every collection attributed" `Quick
        test_every_collection_attributed;
      Alcotest.test_case "traffic matrix = copied bytes" `Quick
        test_matrix_matches_copied_bytes;
      Alcotest.test_case "batched promotion reconciles with the matrix" `Quick
        test_batched_promotion_matrix_reconciles;
      Alcotest.test_case "failed steals count as attempts" `Quick
        test_failed_steals_counted;
      Alcotest.test_case "disabled recorder records nothing" `Quick
        test_disabled_recorder_is_silent;
      Alcotest.test_case "slow-tail analysis of a recorder" `Quick
        test_slow_tail_analysis;
    ] )
