(* CI smoke validator: check that a --metrics-json export parses, has
   the snapshot shape, and covers every collection kind — or, with
   --chrome, that a Chrome trace-event export is well-formed and every
   collection event carries a valid cause and NUMA node in its args.
   --promote, --server and --global judge the gates of the
   BENCH_6/BENCH_7/BENCH_8 artifacts; --compare fails when any leaf of
   two exports of the same bench differs; --openmetrics validates a
   telemetry stream of OpenMetrics exposition blocks (msim --telemetry).

   Usage: validate_metrics.exe FILE
            [--require-all-kinds | --chrome | --openmetrics | --promote
             | --server | --global | --compare BASELINE] *)

open Manticore_gc
module J = Metrics.Json

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let validate_chrome path body =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s: INVALID chrome trace: %s\n" path m;
        exit 1)
      fmt
  in
  match J.parse body with
  | Error m -> fail "%s" m
  | Ok j ->
      (match J.member "displayTimeUnit" j with
      | Some (J.Str "ms") -> ()
      | _ -> fail "displayTimeUnit missing or not \"ms\"");
      let evs =
        match J.member "traceEvents" j with
        | Some (J.Arr evs) -> evs
        | _ -> fail "traceEvents missing or not an array"
      in
      let ph e = match J.member "ph" e with Some (J.Str s) -> s | _ -> "?" in
      let xs = List.filter (fun e -> ph e = "X") evs in
      if xs = [] then fail "no collection (ph=X) events";
      List.iter
        (fun e ->
          (match J.member "ts" e with
          | Some (J.Num ts) when ts >= 0. -> ()
          | _ -> fail "X event without a non-negative numeric ts");
          (match J.member "dur" e with
          | Some (J.Num d) when d >= 0. -> ()
          | _ -> fail "X event without a non-negative numeric dur");
          (match J.member "name" e with
          | Some (J.Str n)
            when List.mem n
                   [ "minor"; "major"; "promotion"; "global"; "barrier" ] ->
              ()
          | _ -> fail "X event name is not a collection kind");
          match J.member "args" e with
          | Some (J.Obj _ as args) -> (
              (match J.member "bytes" args with
              | Some (J.Num b) when b >= 0. -> ()
              | _ -> fail "args without a numeric bytes field");
              (match J.member "node" args with
              | Some (J.Num nd) when nd >= 0. -> ()
              | _ -> fail "args without a non-negative node field");
              match J.member "cause" args with
              | Some (J.Str c) when Obs.Gc_cause.of_string c <> None -> ()
              | Some (J.Str c) -> fail "unknown cause %S" c
              | _ -> fail "args without a cause field")
          | _ -> fail "X event without args")
        xs;
      Printf.printf "%s: OK (%d collection events, all with cause+node args)\n"
        path (List.length xs)

(* --openmetrics: validate a telemetry stream — one or more OpenMetrics
   text exposition blocks, each terminated by "# EOF", appended to one
   file by Metrics.stream_to.  Checks the line grammar (TYPE/HELP
   comments, metric-name charset, float sample values, label syntax),
   the OpenMetrics naming rules the exporter relies on (counter samples
   end in _total, summaries expose only _count/_sum/quantile series,
   quantile values are ordered), and that gcsim_virtual_time_ns is
   present and non-decreasing across blocks. *)
let validate_openmetrics path body =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s: INVALID openmetrics: %s\n" path m;
        exit 1)
      fmt
  in
  let lines = String.split_on_char '\n' body in
  (* Split into blocks on the "# EOF" terminator. *)
  let blocks, last =
    List.fold_left
      (fun (blocks, cur) line ->
        if String.trim line = "# EOF" then (List.rev cur :: blocks, [])
        else (blocks, line :: cur))
      ([], []) lines
  in
  if List.exists (fun l -> String.trim l <> "") last then
    fail "trailing content after the last \"# EOF\" terminator";
  let blocks = List.rev blocks in
  if blocks = [] then fail "no exposition block (missing \"# EOF\")";
  let name_ok n =
    n <> ""
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9')
           || c = '_' || c = ':')
         n
  in
  (* Parse "name{k=\"v\",...}" into (name, labels). *)
  let parse_series s =
    match String.index_opt s '{' with
    | None -> (s, [])
    | Some i ->
        if s.[String.length s - 1] <> '}' then fail "unclosed label set %S" s;
        let name = String.sub s 0 i in
        let inner = String.sub s (i + 1) (String.length s - i - 2) in
        (* Labels: split on ',' outside quotes (values escape '"'). *)
        let labels = ref [] in
        let buf = Buffer.create 16 in
        let in_q = ref false and esc = ref false in
        let flush () =
          let l = Buffer.contents buf in
          Buffer.clear buf;
          if l <> "" then
            match String.index_opt l '=' with
            | None -> fail "label without '=' in %S" s
            | Some j ->
                let k = String.sub l 0 j in
                let v = String.sub l (j + 1) (String.length l - j - 1) in
                if not (name_ok k) then fail "bad label name %S" k;
                if
                  String.length v < 2
                  || v.[0] <> '"'
                  || v.[String.length v - 1] <> '"'
                then fail "unquoted label value in %S" s;
                labels := (k, v) :: !labels
        in
        String.iter
          (fun c ->
            if !esc then begin
              Buffer.add_char buf c;
              esc := false
            end
            else if c = '\\' then begin
              Buffer.add_char buf c;
              esc := true
            end
            else if c = '"' then begin
              Buffer.add_char buf c;
              in_q := not !in_q
            end
            else if c = ',' && not !in_q then flush ()
            else Buffer.add_char buf c)
          inner;
        if !in_q then fail "unterminated label value in %S" s;
        flush ();
        (name, List.rev !labels)
  in
  let last_vtime = ref neg_infinity in
  let n_samples = ref 0 in
  List.iteri
    (fun bi block ->
      let types = Hashtbl.create 16 in
      (* (family, labels-minus-quantile) -> (quantile, value) list, to
         check that quantile values are monotone in the quantile. *)
      let quantiles = Hashtbl.create 16 in
      let vtime = ref None in
      List.iter
        (fun line ->
          let line = String.trim line in
          if line = "" then ()
          else if String.length line >= 1 && line.[0] = '#' then begin
            match String.split_on_char ' ' line with
            | "#" :: "TYPE" :: fam :: ty :: [] ->
                if not (name_ok fam) then
                  fail "block %d: bad family name %S" bi fam;
                if not (List.mem ty [ "gauge"; "counter"; "summary" ]) then
                  fail "block %d: unknown type %S for %s" bi ty fam;
                if Hashtbl.mem types fam then
                  fail "block %d: duplicate TYPE for %s" bi fam;
                Hashtbl.add types fam ty
            | "#" :: "HELP" :: fam :: _ ->
                if not (name_ok fam) then
                  fail "block %d: bad family name %S in HELP" bi fam
            | _ -> fail "block %d: bad comment line %S" bi line
          end
          else begin
            (* Sample: series value *)
            let series, value =
              match String.rindex_opt line ' ' with
              | None -> fail "block %d: sample without value %S" bi line
              | Some i ->
                  ( String.sub line 0 i,
                    String.sub line (i + 1) (String.length line - i - 1) )
            in
            let v =
              match float_of_string_opt value with
              | Some v -> v
              | None -> fail "block %d: non-numeric value %S" bi line
            in
            let name, labels = parse_series series in
            if not (name_ok name) then
              fail "block %d: bad metric name %S" bi name;
            incr n_samples;
            (* Find the declaring family: the name itself, or the name
               minus a _count/_sum/_total suffix. *)
            let strip suf n =
              let ls = String.length suf and ln = String.length n in
              if ln > ls && String.sub n (ln - ls) ls = suf then
                Some (String.sub n 0 (ln - ls))
              else None
            in
            let fam, suffix =
              match Hashtbl.find_opt types name with
              | Some _ -> (name, "")
              | None -> (
                  match
                    List.find_map
                      (fun suf ->
                        match strip suf name with
                        | Some base when Hashtbl.mem types base ->
                            Some (base, suf)
                        | _ -> None)
                      [ "_count"; "_sum"; "_total" ]
                  with
                  | Some (base, suf) -> (base, suf)
                  | None -> fail "block %d: sample %S without a TYPE" bi name)
            in
            (match Hashtbl.find_opt types fam with
            | Some "counter" ->
                if suffix <> "_total" then
                  fail "block %d: counter sample %S must end in _total" bi
                    name
            | Some "summary" ->
                if suffix = "_total" then
                  fail "block %d: summary sample %S ends in _total" bi name;
                if suffix = "" then begin
                  match List.assoc_opt "quantile" labels with
                  | None ->
                      fail
                        "block %d: bare summary sample %S without a quantile \
                         label"
                        bi name
                  | Some q ->
                      let q = String.sub q 1 (String.length q - 2) in
                      let qv =
                        match float_of_string_opt q with
                        | Some qv when qv >= 0. && qv <= 1. -> qv
                        | _ -> fail "block %d: bad quantile %S on %s" bi q fam
                      in
                      let key =
                        ( fam,
                          List.filter (fun (k, _) -> k <> "quantile") labels )
                      in
                      let prev =
                        Option.value ~default:[]
                          (Hashtbl.find_opt quantiles key)
                      in
                      Hashtbl.replace quantiles key ((qv, v) :: prev)
                end
            | Some _ (* gauge *) | None -> ());
            if name = "gcsim_virtual_time_ns" then vtime := Some v
          end)
        block;
      (match !vtime with
      | None -> fail "block %d: missing gcsim_virtual_time_ns" bi
      | Some v ->
          if v < !last_vtime then
            fail "block %d: virtual time went backwards (%.0f after %.0f)" bi
              v !last_vtime;
          last_vtime := v);
      Hashtbl.iter
        (fun (fam, _) qs ->
          let qs = List.sort compare qs in
          ignore
            (List.fold_left
               (fun acc (q, v) ->
                 (match acc with
                 | Some (pq, pv) when v < pv ->
                     fail
                       "block %d: %s quantile %.3f value below quantile %.3f"
                       bi fam q pq
                 | _ -> ());
                 Some (q, v))
               None qs))
        quantiles)
    blocks;
  Printf.printf "%s: OK (%d exposition block(s), %d samples, virtual time \
                 non-decreasing)\n"
    path (List.length blocks) !n_samples

(* A metrics snapshot export: it parses, has at least one vproc, and
   the exporter round-trips it. *)
let valid_snapshot body =
  match Metrics.snapshot_of_json body with
  | Error m -> Error m
  | Ok snap when snap.Metrics.vprocs = [] -> Error "snapshot has no vprocs"
  | Ok snap -> (
      match Metrics.snapshot_of_json (Metrics.snapshot_to_json snap) with
      | Ok snap2 when snap2 = snap -> Ok snap
      | _ -> Error "snapshot does not round-trip")

(* BENCH_6.json: the promotion write buffer, batched vs singleton.
   The snapshot part must be a valid metrics export; every scenario
   must cut both the promotion-cycle count and the total promotion
   pause by at least 2x, and each recorded reduction must be the ratio
   of its singleton and batched numbers. *)
let validate_promote path body =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s: INVALID promote bench: %s\n" path m;
        exit 1)
      fmt
  in
  (match valid_snapshot body with
  | Error m -> fail "snapshot part: %s" m
  | Ok _ -> ());
  match J.parse body with
  | Error m -> fail "%s" m
  | Ok j ->
      (match J.member "bench" j with
      | Some (J.Str "promote") -> ()
      | _ -> fail "bench field missing or not \"promote\"");
      let scenarios =
        match J.member "scenarios" j with
        | Some (J.Obj ((_ :: _) as ss)) -> ss
        | _ -> fail "scenarios missing or empty"
      in
      List.iter
        (fun (name, sc) ->
          let num k =
            match J.member k sc with
            | Some (J.Num v) -> v
            | _ -> fail "scenario %s without numeric %s" name k
          in
          let reduction key what =
            let r = num key in
            let expect = num ("singleton_" ^ what) /. num ("batched_" ^ what) in
            if Float.abs (r -. expect) > 1e-6 *. r then
              fail "scenario %s: %s is not singleton_%s / batched_%s" name key
                what what;
            if r < 2. then
              fail "scenario %s: %s only %.2fx, need >= 2x" name key r
          in
          reduction "cycle_reduction" "cycles";
          reduction "pause_reduction" "pause_ns")
        scenarios;
      Printf.printf "%s: OK (promote bench, %d scenarios, >= 2x cycle and \
                     pause reduction)\n"
        path (List.length scenarios)

(* BENCH_7.json: a --server rate sweep.  The snapshot part must be a
   valid metrics export with request latencies recorded; the sweep part
   must have ordered percentiles per rate, a GC-bound rate that matches
   the recorded shares, and the SLO attained at the lightest rate and
   burning at the heaviest — the regression gates for the latency-SLO
   experiment. *)
let validate_server path body =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s: INVALID server bench: %s\n" path m;
        exit 1)
      fmt
  in
  (match valid_snapshot body with
  | Error m -> fail "snapshot part: %s" m
  | Ok snap ->
      let requests =
        List.fold_left
          (fun acc vs -> acc + vs.Metrics.requests.Metrics.count)
          0 snap.Metrics.vprocs
      in
      if requests = 0 then fail "no request latencies recorded");
  match J.parse body with
  | Error m -> fail "%s" m
  | Ok j ->
      (match J.member "bench" j with
      | Some (J.Str "server") -> ()
      | _ -> fail "bench field missing or not \"server\"");
      let rates =
        match J.member "rates" j with
        | Some (J.Obj ((_ :: _) as rs)) -> rs
        | _ -> fail "rates missing or empty"
      in
      let num r k =
        match J.member k r with
        | Some (J.Num v) -> v
        | _ -> fail "rate entry without numeric %s" k
      in
      List.iter
        (fun (name, r) ->
          if num r "rate_rps" <= 0. then fail "rate %s: non-positive rate" name;
          if num r "n_requests" <= 0. then fail "rate %s: no requests" name;
          let p50 = num r "p50_ns" and p90 = num r "p90_ns" in
          let p99 = num r "p99_ns" and p999 = num r "p999_ns" in
          if not (p50 <= p90 && p90 <= p99 && p99 <= p999) then
            fail "rate %s: percentiles out of order" name;
          if num r "pause_p99_ns" < 0. then fail "rate %s: bad pause" name;
          let s = num r "gc_overlap_share_slow" in
          if s < 0. || s > 1. then fail "rate %s: share out of [0,1]" name;
          if num r "slo_burn_rate" < 0. then fail "rate %s: bad burn rate" name;
          let wr = num r "slo_window_requests" in
          let ov = num r "slo_over_threshold" in
          if wr < 0. || ov < 0. || ov > wr then
            fail "rate %s: inconsistent SLO window counts" name)
        rates;
      (* The GC-bound rate is the first swept rate whose slow tail
         spends at least half its in-flight time under a collection. *)
      let bound =
        List.find_opt (fun (_, r) -> num r "gc_overlap_share_slow" >= 0.5) rates
      in
      (match (bound, J.member "gc_bound_rate" j) with
      | None, _ -> fail "no GC-bound rate: the sweep never stressed the collector"
      | Some (_, r), Some (J.Num b) when b = num r "rate_rps" -> ()
      | Some (_, r), _ ->
          fail "gc_bound_rate is not %.0f, the first rate with \
                gc_overlap_share_slow >= 0.5"
            (num r "rate_rps"));
      (* The declared objective and its gate: attained at the lightest
         swept rate, burning at the heaviest. *)
      (match J.member "slo" j with
      | Some (J.Obj _ as o) ->
          let snum k =
            match J.member k o with
            | Some (J.Num v) -> v
            | _ -> fail "slo object without numeric %s" k
          in
          let p = snum "percentile" in
          if p <= 0. || p >= 1. then fail "slo percentile out of (0,1)";
          if snum "threshold_ns" <= 0. then fail "non-positive slo threshold";
          if snum "epochs" < 1. then fail "non-positive slo window"
      | _ -> fail "missing slo declaration");
      let burns =
        List.map (fun (_, r) -> num r "slo_burn_rate") rates
      in
      (match burns with
      | light :: _ ->
          if light > 1. then
            fail "SLO already burning at the lightest rate (burn %.2f)" light;
          let heavy = List.nth burns (List.length burns - 1) in
          if heavy <= 1. then
            fail "SLO not burning at the heaviest rate (burn %.2f)" heavy
      | [] -> ());
      Printf.printf "%s: OK (server sweep, %d rates, GC-bound, SLO gate)\n"
        path (List.length rates)

(* BENCH_8.json: the STW-vs-concurrent global-collection comparison.
   Both modes must have run real cycles over identical programs
   (checksums equal), and the concurrent collector must hold the
   whole-machine p99.9 pause at least 5x below stop-the-world — the
   bounded-pause regression gate. *)
let validate_global path body =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s: INVALID global bench: %s\n" path m;
        exit 1)
      fmt
  in
  match J.parse body with
  | Error m -> fail "%s" m
  | Ok j ->
      (match J.member "bench" j with
      | Some (J.Str "global") -> ()
      | _ -> fail "bench field missing or not \"global\"");
      (match J.member "checksums_equal" j with
      | Some (J.Bool true) -> ()
      | _ -> fail "modes did not compute identical checksums");
      let mode name =
        match J.member name j with
        | Some (J.Obj _ as o) -> o
        | _ -> fail "missing %s mode object" name
      in
      let num o k =
        match J.member k o with
        | Some (J.Num v) -> v
        | _ -> fail "mode without numeric %s" k
      in
      let check_mode name =
        let o = mode name in
        if num o "global_cycles" < 1. then
          fail "%s mode ran no global cycles" name;
        if num o "pause_p999_ns" <= 0. then fail "%s mode: bad p99.9" name;
        (* The embedded snapshot must itself be a valid export with
           global pauses recorded. *)
        (match J.member "metrics" o with
        | Some snap_json -> (
            match valid_snapshot (J.to_string snap_json) with
            | Error m -> fail "%s metrics snapshot: %s" name m
            | Ok snap ->
                let globals =
                  List.fold_left
                    (fun acc vs ->
                      acc
                      + (Metrics.kind_stats vs Gc_trace.Global).Metrics
                          .pause_ns.Metrics.count)
                    0 snap.Metrics.vprocs
                in
                if globals = 0 then
                  fail "%s snapshot has no global pauses" name)
        | None -> fail "%s mode without embedded metrics" name);
        num o "pause_p999_ns"
      in
      let stw_p999 = check_mode "stw" in
      let conc_p999 = check_mode "concurrent" in
      ignore (check_mode "concurrent_serial" : float);
      (match J.member "conc_parallel_slices" j with
      | Some (J.Num s) when s >= 1. -> ()
      | _ -> fail "missing or non-positive conc_parallel_slices");
      let ratio =
        match J.member "pause_p999_ratio" j with
        | Some (J.Num r) -> r
        | _ -> fail "missing pause_p999_ratio"
      in
      if Float.abs (ratio -. (stw_p999 /. conc_p999)) > 1e-6 *. ratio then
        fail "pause_p999_ratio does not match the mode p99.9s";
      if ratio < 5. then
        fail "concurrent p99.9 pause only %.1fx below STW, need >= 5x" ratio;
      (* The serial-points gate: the barrier-kind p99.9 of the dirty-only
         parallel collector must sit >= 5x below the serial-concurrent
         ablation's (1ns floor on the denominator, as in the bench). *)
      let b999 name = num (mode name) "barrier_p999_ns" in
      let b_serial = b999 "concurrent_serial" in
      let b_conc = b999 "concurrent" in
      if b999 "stw" < 0. then fail "stw mode: negative barrier p99.9";
      let b_ratio =
        match J.member "barrier_p999_ratio" j with
        | Some (J.Num r) -> r
        | _ -> fail "missing barrier_p999_ratio"
      in
      let expect = b_serial /. Float.max b_conc 1. in
      if Float.abs (b_ratio -. expect) > 1e-6 *. Float.max b_ratio 1. then
        fail "barrier_p999_ratio does not match the mode barrier p99.9s";
      if b_ratio < 5. then
        fail "dirty-only ratify barrier p99.9 only %.1fx below serial, need \
             >= 5x"
          b_ratio;
      Printf.printf
        "%s: OK (global bench, concurrent p99.9 pause %.1fx below STW, \
         barrier p99.9 %.1fx below serial)\n"
        path ratio b_ratio

(* --compare BASELINE: walk both JSON trees in lockstep and fail when
   the shapes diverge or any shared numeric leaf differs at all.  The
   simulator is deterministic, so a regenerated bench artifact matches
   its committed baseline exactly; the report lists the leaves that
   drifted furthest, by relative size. *)
let validate_compare path body base_path =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s vs %s: REGRESSION: %s\n" path base_path m;
        exit 1)
      fmt
  in
  let base_body =
    match String.trim (read_file base_path) with
    | b -> b
    | exception Sys_error m ->
        Printf.eprintf "%s: cannot read baseline: %s\n" base_path m;
        exit 1
  in
  let parse what b =
    match J.parse b with Ok j -> j | Error m -> fail "%s: %s" what m
  in
  let cur = parse path body and base = parse base_path base_body in
  let leaves = ref 0 in
  let drifted = ref [] in
  let rec walk ctx a b =
    match (a, b) with
    | J.Num x, J.Num y ->
        incr leaves;
        if x <> y then
          drifted :=
            (ctx, y, x, Float.abs (x -. y) /. Float.max (Float.abs y) 1e-9)
            :: !drifted
    | J.Str x, J.Str y ->
        if x <> y then fail "%s: %S became %S" ctx y x
    | J.Bool x, J.Bool y ->
        if x <> y then fail "%s: %b became %b" ctx y x
    | J.Null, J.Null -> ()
    | J.Arr xs, J.Arr ys ->
        if List.length xs <> List.length ys then
          fail "%s: array length %d became %d" ctx (List.length ys)
            (List.length xs);
        List.iteri
          (fun i (x, y) -> walk (Printf.sprintf "%s[%d]" ctx i) x y)
          (List.combine xs ys)
    | J.Obj xs, J.Obj ys ->
        List.iter
          (fun (k, y) ->
            match List.assoc_opt k xs with
            | Some x -> walk (ctx ^ "." ^ k) x y
            | None -> fail "%s.%s: field disappeared" ctx k)
          ys;
        List.iter
          (fun (k, _) ->
            if List.assoc_opt k ys = None then
              fail "%s.%s: field appeared" ctx k)
          xs
    | _ -> fail "%s: value changed JSON type" ctx
  in
  walk "$" cur base;
  (match !drifted with
  | [] -> ()
  | ds ->
      let ds =
        List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) ds
      in
      List.iteri
        (fun i (ctx, was, now, rel) ->
          if i < 10 then
            Printf.eprintf "  %s: %.17g -> %.17g (%.3g%% drift)\n" ctx was now
              (100. *. rel))
        ds;
      fail "%d of %d numeric leaves drifted" (List.length ds) !leaves);
  Printf.printf "%s: OK (matches %s exactly on %d numeric leaves)\n" path
    base_path !leaves

let () =
  let path, mode =
    match Sys.argv with
    | [| _; p |] -> (p, `Metrics false)
    | [| _; p; "--require-all-kinds" |] -> (p, `Metrics true)
    | [| _; p; "--chrome" |] -> (p, `Chrome)
    | [| _; p; "--openmetrics" |] -> (p, `Openmetrics)
    | [| _; p; "--promote" |] -> (p, `Promote)
    | [| _; p; "--server" |] -> (p, `Server)
    | [| _; p; "--global" |] -> (p, `Global)
    | [| _; p; "--compare"; b |] -> (p, `Compare b)
    | _ ->
        prerr_endline
          "usage: validate_metrics.exe FILE [--require-all-kinds | --chrome \
           | --openmetrics | --promote | --server | --global | --compare \
           BASELINE]";
        exit 2
  in
  let body =
    match String.trim (read_file path) with
    | body -> body
    | exception Sys_error m ->
        (* e.g. a missing or unreadable file: report it like any other
           invalid input instead of dying with a backtrace *)
        Printf.eprintf "%s: cannot read metrics file: %s\n" path m;
        exit 1
  in
  match mode with
  | `Chrome -> validate_chrome path body
  | `Openmetrics -> validate_openmetrics path body
  | `Promote -> validate_promote path body
  | `Server -> validate_server path body
  | `Global -> validate_global path body
  | `Compare base -> validate_compare path body base
  | `Metrics require_all -> (
  match valid_snapshot body with
  | Error m ->
      Printf.eprintf "%s: INVALID metrics JSON: %s\n" path m;
      exit 1
  | Ok snap ->
      let n = List.length snap.Metrics.vprocs in
      let count kind =
        List.fold_left
          (fun acc vs ->
            acc + (Metrics.kind_stats vs kind).Metrics.pause_ns.Metrics.count)
          0 snap.Metrics.vprocs
      in
      let kinds =
        [
          ("minor", count Gc_trace.Minor);
          ("major", count Gc_trace.Major);
          ("promotion", count Gc_trace.Promotion);
          ("global", count Gc_trace.Global);
        ]
      in
      let missing = List.filter (fun (_, c) -> c = 0) kinds in
      if require_all && missing <> [] then begin
        Printf.eprintf "%s: no pauses recorded for: %s\n" path
          (String.concat ", " (List.map fst missing));
        exit 1
      end;
      Printf.printf "%s: OK (%d vprocs; pauses: %s)\n" path n
        (String.concat ", "
           (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) kinds)))
