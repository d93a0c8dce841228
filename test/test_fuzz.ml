(* The model-differential fuzzer's own tier-1 coverage: a fixed small
   batch of random programs (the smoke version of the nightly campaign),
   determinism of generation and verdicts, the trace codec, the shrinker
   as a pure algorithm, and the end-to-end promise that an injected
   collector fault is caught and minimized to a tiny reproducer. *)

let default_vprocs = Fuzz.Engine.default_cfg.Fuzz.Engine.n_vprocs

let gen_program seed n_ops =
  Fuzz.Gen.program ~seed ~n_ops ~n_vprocs:default_vprocs ()

(* -- fixed smoke batch: the tier-1 slice of the fuzz campaign -------- *)

let test_smoke_batch () =
  match
    Fuzz.Driver.campaign ~shrink:false ~seed:7000 ~programs:6 ~n_ops:120 ()
  with
  | Ok n -> Alcotest.(check int) "all programs pass" 6 n
  | Error f ->
      Alcotest.failf "seed %d diverged at op %d: %s" f.Fuzz.Driver.seed
        f.Fuzz.Driver.op_index f.Fuzz.Driver.message

let test_sessions_profile () =
  (* The sessions weight profile must actually generate session
     lifecycles and generated channel programs, and both — open, serve,
     close with a recv parked; and the Chan_mix rendezvous model — must
     pass the differential checker under either global collector. *)
  let ops =
    Fuzz.Gen.program ~profile:Fuzz.Gen.Sessions ~seed:7100 ~n_ops:200
      ~n_vprocs:default_vprocs ()
  in
  let count p = List.length (List.filter p ops) in
  Alcotest.(check bool) "many session phases" true
    (count (function Fuzz.Op.Session_phase _ -> true | _ -> false) > 10);
  Alcotest.(check bool) "many channel programs" true
    (count (function Fuzz.Op.Chan_mix _ -> true | _ -> false) > 5);
  List.iter
    (fun mode ->
      let cfg =
        {
          Fuzz.Engine.default_cfg with
          Fuzz.Engine.params =
            {
              Fuzz.Engine.default_cfg.Fuzz.Engine.params with
              Manticore_gc.Params.global_gc_mode = mode;
            };
        }
      in
      match
        Fuzz.Driver.campaign ~cfg ~profile:Fuzz.Gen.Sessions ~shrink:false
          ~seed:7100 ~programs:3 ~n_ops:120 ()
      with
      | Ok n -> Alcotest.(check int) "all programs pass" 3 n
      | Error f ->
          Alcotest.failf "seed %d diverged at op %d: %s" f.Fuzz.Driver.seed
            f.Fuzz.Driver.op_index f.Fuzz.Driver.message)
    [ Manticore_gc.Params.Stw; Manticore_gc.Params.Concurrent ]

let test_collections_exercised () =
  (* The smoke batch is only meaningful if programs actually reach the
     collectors and the checker actually runs. *)
  let ops = gen_program 1234 300 in
  match Fuzz.Engine.run_trace ops with
  | Fuzz.Engine.Failed { op_index; message; _ } ->
      Alcotest.failf "diverged at op %d: %s" op_index message
  | Fuzz.Engine.Passed { checks; collections } ->
      Alcotest.(check bool) "many collections" true (collections > 10);
      Alcotest.(check bool) "checker ran at each" true (checks > collections)

(* -- determinism ----------------------------------------------------- *)

let test_generation_deterministic () =
  let a = gen_program 99 400 and b = gen_program 99 400 in
  Alcotest.(check (list string))
    "same seed, same program"
    (List.map Fuzz.Op.to_string a)
    (List.map Fuzz.Op.to_string b);
  let c = gen_program 100 400 in
  Alcotest.(check bool)
    "different seed, different program" true
    (List.map Fuzz.Op.to_string a <> List.map Fuzz.Op.to_string c)

let test_verdict_deterministic () =
  let ops = gen_program 4321 250 in
  let run () =
    match Fuzz.Engine.run_trace ops with
    | Fuzz.Engine.Passed { checks; collections } ->
        Printf.sprintf "passed %d %d" checks collections
    | Fuzz.Engine.Failed { op_index; message; _ } ->
        Printf.sprintf "failed %d %s" op_index message
  in
  Alcotest.(check string) "same verdict twice" (run ()) (run ())

(* -- trace codec ----------------------------------------------------- *)

let test_codec_roundtrip () =
  let ops = gen_program 555 500 in
  let text = Fuzz.Op.trace_to_string ~seed:555 ops in
  match Fuzz.Op.trace_of_string text with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok ops' ->
      Alcotest.(check (list string))
        "round-trips"
        (List.map Fuzz.Op.to_string ops)
        (List.map Fuzz.Op.to_string ops')

let test_codec_rejects_garbage () =
  (match Fuzz.Op.trace_of_string "minor 0\nfrobnicate 1 2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown op");
  match Fuzz.Op.trace_of_string "vec 0 not-a-number 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad operands"

(* -- the shrinker as a pure algorithm -------------------------------- *)

(* Synthetic checkers stand in for the engine: the shrinker only sees a
   [run : ops -> bool] oracle, so its behaviour is testable without any
   heap at all. *)

let is_minor = function Fuzz.Op.Minor _ -> true | _ -> false
let count p ops = List.length (List.filter p ops)

let test_shrink_to_witness () =
  (* Failure iff the trace still contains a specific single witness op:
     minimization must converge to exactly that op. *)
  let ops = gen_program 808 200 in
  let ops = ops @ [ Fuzz.Op.Global ] in
  let run ops = List.exists (fun o -> o = Fuzz.Op.Global) ops in
  let min, st = Fuzz.Shrink.minimize ~run ops in
  Alcotest.(check int) "single witness" 1 (List.length min);
  Alcotest.(check bool) "still fails" true (run min);
  Alcotest.(check bool) "stats add up" true
    (st.Fuzz.Shrink.kept + st.Fuzz.Shrink.dropped = List.length ops)

let test_shrink_conjunction () =
  (* Failure needs three Minor ops together — ddmin must keep all three
     and nothing else. *)
  let ops = gen_program 909 300 in
  let base = List.filter (fun o -> not (is_minor o)) ops in
  let ops =
    base @ [ Fuzz.Op.Minor { vproc = 0 } ] @ base
    @ [ Fuzz.Op.Minor { vproc = 1 }; Fuzz.Op.Minor { vproc = 2 } ]
  in
  let run ops = count is_minor ops >= 3 in
  let min, _ = Fuzz.Shrink.minimize ~run ops in
  Alcotest.(check int) "three witnesses" 3 (List.length min);
  Alcotest.(check bool) "still fails" true (run min)

let test_shrink_non_failing_is_identity () =
  let ops = gen_program 111 50 in
  let min, st = Fuzz.Shrink.minimize ~run:(fun _ -> false) ops in
  Alcotest.(check int) "untouched" (List.length ops) (List.length min);
  Alcotest.(check int) "one probe run" 1 st.Fuzz.Shrink.runs

let test_shrink_respects_budget () =
  let runs = ref 0 in
  let run ops =
    incr runs;
    List.length ops > 0
  in
  let _, st = Fuzz.Shrink.minimize ~max_runs:37 ~run (gen_program 222 400) in
  Alcotest.(check bool) "bounded" true (st.Fuzz.Shrink.runs <= 37);
  Alcotest.(check bool) "oracle calls = reported runs" true (!runs = st.Fuzz.Shrink.runs)

(* -- regression traces ------------------------------------------------ *)

(* A shrunk STW program: an entry major promotes an old object and,
   through one of its fields, a young one, then slides the young block
   down, leaving the young object's forwarding word live in the local
   heap.  Nothing else reaches the promoted pair, so only the keep pass
   evacuates its target before from-space is released; without it,
   later walks of the local heap read the object's size from a released
   chunk. *)
let stw_keep_trace =
  {|# seed 4349
vec 2 7 0,7
minor 2
vec 2 4 7,0,6,0
raw 1 2 230 404558872
raw 1 1 614 549638709
raw 1 5 225 684031888
setf 2 7 28 4
vec 0 4 7,6,3
raw 2 4 580 786475844
vec 2 7 3
fillvec 1 2 530 3
raw 0 6 614 828830718
promote 0 4
raw 1 1 187 576199101
raw 2 2 615 480610702
|}

let test_stw_keeps_forwarded_targets () =
  match Fuzz.Op.trace_of_string stw_keep_trace with
  | Error m -> Alcotest.failf "trace did not parse: %s" m
  | Ok ops -> (
      match Fuzz.Engine.run_trace ops with
      | Fuzz.Engine.Passed _ -> ()
      | Fuzz.Engine.Failed { op_index; message; _ } ->
          Alcotest.failf "diverged at op %d: %s" op_index message)

(* -- end to end: injected fault -> small replayable reproducer ------- *)

let chaos_cfg =
  { Fuzz.Engine.default_cfg with Fuzz.Engine.corrupt_copy = 3 }

let test_chaos_caught_and_shrunk () =
  match
    Fuzz.Driver.campaign ~cfg:chaos_cfg ~shrink:true ~seed:1 ~programs:3
      ~n_ops:200 ()
  with
  | Ok _ ->
      Alcotest.fail
        "corrupting every 3rd evacuation went undetected by the checker"
  | Error f -> (
      match f.Fuzz.Driver.minimized with
      | None -> Alcotest.fail "campaign did not shrink"
      | Some min ->
          Alcotest.(check bool)
            (Printf.sprintf "reproducer is small (%d ops)" (List.length min))
            true
            (List.length min <= 25);
          (* The minimized trace must replay: same cfg, still failing —
             and survive a codec round-trip on the way. *)
          let text = Fuzz.Op.trace_to_string ~seed:f.Fuzz.Driver.seed min in
          let replayed =
            match Fuzz.Op.trace_of_string text with
            | Ok ops -> Fuzz.Engine.run_trace ~cfg:chaos_cfg ops
            | Error m -> Alcotest.failf "reproducer did not re-parse: %s" m
          in
          Alcotest.(check bool)
            "reproducer still fails" true
            (Fuzz.Engine.failed replayed);
          (* ... and passes on a healthy runtime: the trace exposes the
             injected fault, not an engine artifact. *)
          Alcotest.(check bool)
            "reproducer passes without the fault" true
            (not (Fuzz.Engine.failed (Fuzz.Engine.run_trace min))))

let test_failure_carries_event_dump () =
  (* The dump-on-checker-failure path: a divergence must ship the flight
     recorder's state at the failure point, parseable post mortem. *)
  match
    Fuzz.Driver.campaign ~cfg:chaos_cfg ~shrink:false ~seed:1 ~programs:3
      ~n_ops:200 ()
  with
  | Ok _ -> Alcotest.fail "chaos campaign unexpectedly passed"
  | Error f -> (
      let events = f.Fuzz.Driver.events in
      Alcotest.(check bool) "dump non-empty" true (String.length events > 0);
      Alcotest.(check bool) "dump tagged obs-dump" true
        (String.length events >= 8 && String.sub events 0 8 = "obs-dump");
      match Obs.Recorder.of_string events with
      | Error m -> Alcotest.failf "dump did not re-parse: %s" m
      | Ok r ->
          let total = ref 0 in
          for v = 0 to Obs.Recorder.n_vprocs r - 1 do
            total := !total + List.length (Obs.Recorder.events r ~vproc:v)
          done;
          Alcotest.(check bool) "dump holds events" true (!total > 0))

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "smoke batch passes" `Quick test_smoke_batch;
      Alcotest.test_case "sessions profile passes" `Quick
        test_sessions_profile;
      Alcotest.test_case "collections exercised" `Quick
        test_collections_exercised;
      Alcotest.test_case "generation deterministic" `Quick
        test_generation_deterministic;
      Alcotest.test_case "verdict deterministic" `Quick
        test_verdict_deterministic;
      Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
      Alcotest.test_case "codec rejects garbage" `Quick
        test_codec_rejects_garbage;
      Alcotest.test_case "shrink: single witness" `Quick test_shrink_to_witness;
      Alcotest.test_case "shrink: conjunction" `Quick test_shrink_conjunction;
      Alcotest.test_case "shrink: non-failing untouched" `Quick
        test_shrink_non_failing_is_identity;
      Alcotest.test_case "shrink: budget respected" `Quick
        test_shrink_respects_budget;
      Alcotest.test_case "STW keeps forwarded local targets" `Quick
        test_stw_keeps_forwarded_targets;
      Alcotest.test_case "chaos fault caught and shrunk" `Quick
        test_chaos_caught_and_shrunk;
      Alcotest.test_case "failure carries the event dump" `Quick
        test_failure_carries_event_dump;
    ] )
