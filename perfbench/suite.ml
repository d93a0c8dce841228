(* The repository benchmark (see README.md).

   suite.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
     one measured run of one workload; the last line of stdout is
     {"correct", "attempted", "failed", "metrics"} with the end-to-end
     metrics (--trace 0) or the per-layer ones (--trace 1)
   suite.exe --seed N [--reps R] [--seconds S] [--out FILE] [--spans DIR]
     every workload, R times each in fresh child processes (workload
     order rotated between repetitions), then one traced run each
   suite.exe --compare BASE.json NEW.json
   suite.exe --smoke BENCHMARK.json
     self-test on the 4-core test machine *)

open Cmdliner
module J = Manticore_gc.Metrics.Json

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let catalog = Measure.end_to_end @ Measure.per_layer
let metric name = List.find (fun m -> m.Measure.name = name) catalog

(* --- one run ------------------------------------------------------ *)

(* Highest offered rate, by log-space bisection over 50-1000 krps to 2%,
   whose request p99 stays within 30 us (the server SLO of BENCH_7). *)
let max_rate_krps size ~seed =
  let verdicts = ref [] in
  let meets krps =
    let w = { Work.server_sweep with Work.prepare = Work.run_server ~rate:(krps *. 1e3) } in
    let j = Measure.job w size ~seed:(Work.derive seed 0) ~traced:false in
    verdicts := j.Measure.verdict :: !verdicts;
    Stats.percentile j.Measure.latencies 0.99 <= 30_000.
  in
  let rec bisect lo hi =
    if hi /. lo <= 1.02 then lo
    else
      let mid = sqrt (lo *. hi) in
      if meets mid then bisect mid hi else bisect lo mid
  in
  let rate =
    if not (meets 50.) then 0. else if meets 1000. then 1000. else bisect 50. 1000.
  in
  (rate, !verdicts)

let tally verdicts =
  List.fold_left
    (fun (a, f) (v : Work.verdict) -> (a + v.Work.attempted, f + v.Work.failed))
    (0, 0) verdicts

(* Host-side record of a job that only fills the measuring time. *)
type host = { run_s : float; setup_s : float; job_s : float; verdict : Work.verdict }

let host_of (j : Measure.job) =
  { run_s = j.Measure.run_s; setup_s = j.Measure.setup_s; job_s = j.Measure.job_s;
    verdict = j.Measure.verdict }

(* The first [w.jobs] jobs carry the virtual metrics (fixed by the seed).
   Then jobs repeat their inputs for as long as the measuring time lasts:
   untraced ones for host time, and in a traced run untraced-then-traced
   twins, at least [overhead_pairs] of them, whose difference is the
   tracing overhead. *)
let overhead_pairs = 3

let measure (w : Work.t) size ~seed ~seconds ~traced =
  let k = w.Work.jobs size in
  let start = Unix.gettimeofday () in
  let job i ~traced =
    Gc.compact ();
    Measure.job w size ~seed:(Work.derive seed (i mod k)) ~traced
  in
  let virt = List.init k (fun i -> job i ~traced) in
  (* Read before the filling jobs: their number depends on host speed. *)
  let rss = Measure.peak_rss_mb () in
  let rec fill i acc =
    if Unix.gettimeofday () -. start >= seconds && ((not traced) || i - k >= overhead_pairs)
    then List.rev acc
    else
      let u = host_of (job i ~traced:false) in
      let t = if traced then Some (host_of (job i ~traced:true)) else None in
      fill (i + 1) ((u, t) :: acc)
  in
  let filled = fill k [] in
  let hosts =
    List.map host_of virt @ List.concat_map (fun (u, t) -> u :: Option.to_list t) filled
  in
  let attempted, failed = tally (List.map (fun h -> h.verdict) hosts) in
  if not traced then
    ( {
        correct = failed = 0;
        attempted;
        failed;
        metrics =
          Measure.end_to_end_values ~virt
            ~run_s:(Array.of_list (List.map (fun h -> h.run_s) hosts))
            ~setup_s:(Array.of_list (List.map (fun h -> h.setup_s) hosts))
          @ [ ("peak_rss_mb", rss) ];
      },
      None )
  else begin
    List.iteri (Measure.emit_spans w) virt;
    let overhead =
      Stats.median
        (Array.of_list
           (List.filter_map (fun (u, t) -> Option.map (fun t -> t.job_s -. u.job_s) t) filled))
    in
    let layers = Layers.run ~reps:(match size with Work.Full -> 10 | Work.Smoke -> 1) in
    let rate, probes =
      if w.Work.name = Work.server_sweep.Work.name then max_rate_krps size ~seed
      else (0., [])
    in
    let probe_attempts, probe_failures = tally probes in
    let failed = failed + probe_failures in
    ( {
        correct = failed = 0 && layers.Layers.isolated;
        attempted = attempted + probe_attempts;
        failed;
        metrics =
          Measure.layer_values virt
          @ [ ("server.max_rate_krps", rate) ]
          @ layers.Layers.values
          @ [ ("trace.overhead_s", overhead) ];
      },
      (List.hd virt).Measure.chrome )
  end

let json_of_report r =
  J.Obj
    [ ("correct", J.Bool r.correct);
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, v) ->
               let unit = (metric name).Measure.unit in
               (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
             r.metrics) ) ]

let print_report (w : Work.t) r =
  Printf.printf "%s: %d attempted, %d failed%s\n" w.Work.name r.attempted r.failed
    (if r.correct then "" else " -- INCORRECT");
  List.iter
    (fun (name, v) -> Printf.printf "  %-28s %14.6g %s\n" name v (metric name).Measure.unit)
    r.metrics

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let run_one name ~seed ~seconds ~trace ~spans =
  match Work.find name with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.Work.name) Work.all));
      2
  | Some w ->
      Spans.reset ();
      let traced = trace <> 0 in
      let r, chrome = measure w Work.Full ~seed ~seconds ~traced in
      Option.iter
        (fun path ->
          write_file path (Spans.to_chrome ~collector:(Option.value chrome ~default:"")))
        spans;
      print_report w r;
      print_endline (J.to_string (json_of_report r));
      if r.correct then 0 else 1

(* --- every workload, in child processes ---------------------------- *)

let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
  in
  let out = lines [] in
  match (Unix.close_process_in ic, out) with
  | Unix.WEXITED 0, last :: _ -> (
      match J.parse last with
      | Ok j -> j
      | Error e -> failwith (Printf.sprintf "child %s: %s" (String.concat " " args) e))
  | _ -> failwith (Printf.sprintf "child %s failed" (String.concat " " args))

let num j key = match J.member key j with Some (J.Num v) -> v | _ -> nan

let metric_values j =
  match J.member "metrics" j with
  | Some (J.Obj kvs) -> List.map (fun (k, v) -> (k, num v "value")) kvs
  | _ -> []

let suite ~seed ~reps ~seconds ~out ~spans =
  let args w trace =
    [ "--workload"; w.Work.name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; string_of_int trace ]
  in
  let n = List.length Work.all in
  let runs = Hashtbl.create 16 in
  let failures = ref 0 and attempts = ref 0 in
  let count j =
    attempts := !attempts + int_of_float (num j "attempted");
    failures := !failures + int_of_float (num j "failed")
  in
  for r = 0 to reps - 1 do
    List.iteri
      (fun i _ ->
        let w = List.nth Work.all ((i + r) mod n) in
        Printf.eprintf "[suite] rep %d/%d %s\n%!" (r + 1) reps w.Work.name;
        let j = child (args w 0) in
        count j;
        Hashtbl.add runs w.Work.name (metric_values j))
      Work.all
  done;
  let traced =
    List.map
      (fun w ->
        Printf.eprintf "[suite] traced %s\n%!" w.Work.name;
        let spans_arg =
          match spans with
          | Some dir -> [ "--spans"; Filename.concat dir (w.Work.name ^ ".json") ]
          | None -> []
        in
        let j = child (args w 1 @ spans_arg) in
        count j;
        (w, metric_values j))
      Work.all
  in
  let workload_json (w, layers) =
    let reps_of = List.rev (Hashtbl.find_all runs w.Work.name) in
    let values name = List.map (fun m -> List.assoc name m) reps_of in
    Printf.printf "%s\n" w.Work.name;
    let e2e =
      List.map
        (fun m ->
          let vs = Array.of_list (values m.Measure.name) in
          let q1, q3 = Stats.quartiles vs in
          Printf.printf "  %-28s %12.6g %-8s [%.6g, %.6g]\n" m.Measure.name
            (Stats.median vs) m.Measure.unit q1 q3;
          ( m.Measure.name,
            J.Obj
              [ ("unit", J.Str m.Measure.unit);
                ("median", J.Num (Stats.median vs));
                ("q1", J.Num q1);
                ("q3", J.Num q3);
                ("values", J.Arr (Array.to_list (Array.map (fun v -> J.Num v) vs))) ] ))
        Measure.end_to_end
    in
    let per =
      List.map
        (fun (name, v) ->
          Printf.printf "  %-28s %12.6g %s\n" name v (metric name).Measure.unit;
          (name, J.Obj [ ("unit", J.Str (metric name).Measure.unit); ("value", J.Num v) ]))
        layers
    in
    (w.Work.name, J.Obj [ ("end_to_end", J.Obj e2e); ("per_layer", J.Obj per) ])
  in
  let json =
    J.Obj
      [ ("seed", J.Num (float_of_int seed));
        ("reps", J.Num (float_of_int reps));
        ("seconds", J.Num seconds);
        ("attempted", J.Num (float_of_int !attempts));
        ("failed", J.Num (float_of_int !failures));
        ("workloads", J.Obj (List.map workload_json traced)) ]
  in
  Printf.printf "%d attempted, %d failed\n" !attempts !failures;
  Option.iter (fun path -> write_file path (J.to_string json ^ "\n")) out;
  if !failures = 0 then 0 else 1

(* --- compare ------------------------------------------------------- *)

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let e2e_values j workload name =
  match Option.bind (J.member "workloads" j) (J.member workload) with
  | None -> None
  | Some w -> (
      match Option.bind (J.member "end_to_end" w) (J.member name) with
      | Some m -> (
          match J.member "values" m with
          | Some (J.Arr vs) ->
              Some (Array.of_list (List.map (function J.Num v -> v | _ -> nan) vs))
          | _ -> None)
      | None -> None)

(* Per workload and end-to-end metric: both medians and quartiles, the
   change against the metric's bound, and "unresolved" when either
   side's run-to-run spread is wider than the bound — unless every new
   run reads better than every base run. *)
let compare base_path new_path =
  let base = read_json base_path and next = read_json new_path in
  let regressed = ref 0 in
  Printf.printf "%-20s %-14s %24s %24s %8s  %s\n" "workload" "metric" "base median [q1,q3]"
    "new median [q1,q3]" "change" "verdict";
  List.iter
    (fun (w : Work.t) ->
      List.iter
        (fun (m : Measure.metric) ->
          let values j = e2e_values j w.Work.name m.Measure.name in
          match (values base, values next) with
          | Some b, Some n when Array.length b > 0 && Array.length n > 0 ->
              let bound = Option.value m.Measure.bound ~default:0. in
              let bm = Stats.median b and nm = Stats.median n in
              let beats y x = if m.Measure.higher_is_better then y > x else y < x in
              let change =
                if bm = 0. then 0.
                else
                  (if m.Measure.higher_is_better then bm -. nm else nm -. bm)
                  /. Float.abs bm
              in
              let all_better = Array.for_all (fun y -> Array.for_all (beats y) b) n in
              let verdict =
                if Float.max (Stats.spread b) (Stats.spread n) > bound then
                  if all_better then "better" else "unresolved"
                else if change > bound then (incr regressed; "REGRESSED")
                else if change < -.bound then "better"
                else "ok"
              in
              let show xs =
                let q1, q3 = Stats.quartiles xs in
                Printf.sprintf "%.5g [%.5g,%.5g]" (Stats.median xs) q1 q3
              in
              Printf.printf "%-20s %-14s %24s %24s %+7.1f%%  %s (bound %g%%)\n"
                w.Work.name m.Measure.name (show b) (show n) (100. *. change) verdict
                (100. *. bound)
          | _ ->
              Printf.printf "%-20s %-14s missing from one side\n" w.Work.name m.Measure.name)
        Measure.end_to_end)
    Work.all;
  if !regressed = 0 then 0 else 1

(* --- self-test ----------------------------------------------------- *)

let virtual_e2e = [ "makespan_ms"; "pause_top1pct_us"; "req_mean_us"; "req_p99_us" ]

(* BENCHMARK.json must name exactly this catalog and these workloads;
   every workload must pass verification, report every metric, and
   repeat its virtual metrics bit for bit; serving workloads must start
   on time; the span file must be a Chrome trace. *)
let smoke benchmark_path =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let spec = read_json benchmark_path in
  let entries key = match J.member key spec with Some (J.Arr xs) -> xs | _ -> [] in
  let field key e = match J.member key e with Some (J.Str s) -> s | _ -> "" in
  let declared key = List.map (field "name") (entries key) in
  if declared "workloads" <> List.map (fun w -> w.Work.name) Work.all then
    fail "BENCHMARK.json workloads differ from the suite's";
  List.iter
    (fun (key, catalog) ->
      if declared key <> List.map (fun m -> m.Measure.name) catalog then
        fail "BENCHMARK.json %s names differ from the suite's" key;
      List.iter
        (fun e ->
          match List.find_opt (fun m -> m.Measure.name = field "name" e) catalog with
          | None -> ()
          | Some m ->
              let better = if m.Measure.higher_is_better then "higher" else "lower" in
              let bound = match J.member "bound" e with Some (J.Num b) -> Some b | _ -> None in
              if field "unit" e <> m.Measure.unit || field "better" e <> better
                 || bound <> m.Measure.bound
              then fail "BENCHMARK.json entry %s differs from the suite's" m.Measure.name)
        (entries key))
    [ ("end_to_end", Measure.end_to_end); ("per_layer", Measure.per_layer) ];
  List.iter
    (fun (w : Work.t) ->
      let run traced =
        Spans.reset ();
        measure w Work.Smoke ~seed:1 ~seconds:0. ~traced
      in
      let (a, _), (b, _) = (run false, run false) in
      let (t, chrome), (t', _) = (run true, run true) in
      List.iter
        (fun (r, catalog) ->
          if not r.correct then fail "%s: run not correct" w.Work.name;
          List.iter
            (fun m ->
              if not (List.mem_assoc m.Measure.name r.metrics) then
                fail "%s: %s missing" w.Work.name m.Measure.name)
            catalog)
        [ (a, Measure.end_to_end); (t, Measure.per_layer) ];
      List.iter
        (fun (name, x, y) ->
          if Int64.bits_of_float x <> Int64.bits_of_float y then
            fail "%s: %s differs between runs (%.17g vs %.17g)" w.Work.name name x y)
        (List.map (fun n -> (n, List.assoc n a.metrics, List.assoc n b.metrics)) virtual_e2e
        @ List.map
            (fun m ->
              let name = m.Measure.name in
              (name, List.assoc name t.metrics, List.assoc name t'.metrics))
            Measure.job_layers);
      if w.Work.serving && List.assoc "server.gen_late_us" t.metrics >= 1. then
        fail "%s: generator started %.3f us late" w.Work.name
          (List.assoc "server.gen_late_us" t.metrics);
      match J.parse (Spans.to_chrome ~collector:(Option.value chrome ~default:"")) with
      | Ok j -> (
          match J.member "traceEvents" j with
          | Some (J.Arr evs)
            when List.exists (fun e -> J.member "ph" e = Some (J.Str "X")) evs -> ()
          | _ -> fail "%s: span file has no collector events" w.Work.name)
      | Error e -> fail "%s: span file is not JSON: %s" w.Work.name e)
    Work.all;
  match !problems with
  | [] ->
      print_endline "smoke: OK";
      0
  | ps ->
      List.iter (Printf.eprintf "smoke: %s\n") (List.rev ps);
      1

(* --- command line -------------------------------------------------- *)

let main workload seed seconds trace spans reps out compare_mode smoke_mode files =
  match (compare_mode, smoke_mode, workload, files) with
  | true, _, _, [ base; next ] -> compare base next
  | _, true, _, [ spec ] -> smoke spec
  | true, _, _, _ | _, true, _, _ ->
      prerr_endline "--compare takes BASE.json NEW.json; --smoke takes BENCHMARK.json";
      2
  | false, false, Some name, [] -> run_one name ~seed ~seconds ~trace ~spans
  | false, false, None, [] -> suite ~seed ~reps ~seconds ~out ~spans
  | _ ->
      prerr_endline "unexpected positional arguments";
      2

let () =
  let open Arg in
  let workload =
    value & opt (some string) None
    & info [ "workload" ] ~docv:"NAME" ~doc:"Measure one workload (default: all of them)."
  in
  let seed = value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Input seed." in
  let seconds =
    value & opt float 0.
    & info [ "seconds" ] ~docv:"S"
        ~doc:"Keep measuring host time for at least S seconds per workload run."
  in
  let trace =
    value & opt int 0
    & info [ "trace" ] ~docv:"0|1"
        ~doc:"1: the traced run, reporting per-layer metrics instead of end-to-end ones."
  in
  let spans =
    value & opt (some string) None
    & info [ "spans" ] ~docv:"PATH"
        ~doc:
          "Write the traced run's spans as Chrome trace-event JSON (a file with \
           --workload, a directory of one file per workload otherwise)."
  in
  let reps =
    value & opt int 5
    & info [ "reps" ] ~docv:"R"
        ~doc:"Untraced runs of every workload, each in a fresh process."
  in
  let out =
    value & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the results as JSON."
  in
  let compare_mode =
    value & flag
    & info [ "compare" ] ~doc:"Compare two result files (BASE.json NEW.json) metric by metric."
  in
  let smoke_mode =
    value & flag
    & info [ "smoke" ] ~doc:"Self-test against BENCHMARK.json on the test machine."
  in
  let files = value & pos_all string [] & info [] ~docv:"FILE" in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "suite" ~doc:"The repository benchmark: five workloads on both clocks.")
          Term.(
            const main $ workload $ seed $ seconds $ trace $ spans $ reps $ out $ compare_mode
            $ smoke_mode $ files)))
