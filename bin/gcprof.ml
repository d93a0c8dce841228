(* Offline analyzer for flight-recorder dumps (obs-dump v1, written by
   `msim --events`, `experiments <exp> --events` or a fuzzer fail-dir).

   Prints pause-attribution tables (collections by kind x cause), the
   per-vproc collection timeline and summary, scheduler/chunk/allocation
   counters and the NUMA traffic heatmap; [--chrome FILE] additionally
   exports the reconstructed collections as Chrome trace-event JSON and
   [--cycles] appends the per-concurrent-cycle critical-path report
   (phase blame summing to 100% of each cycle's wall time, straggler
   vprocs per handshake/ratify round, slow requests linked back to the
   cycle+phase they overlapped).

   Parsing is strict: a truncated or corrupt dump exits 2 with a
   diagnostic instead of silently analyzing the readable prefix;
   [--partial] is the salvage escape hatch.

   Exit codes: 0 ok; 2 unreadable or unparsable dump. *)

open Cmdliner
module Event = Obs.Event
module Cause = Obs.Gc_cause
module Trace = Manticore_gc.Gc_trace

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  if s = "" || s.[String.length s - 1] <> '\n' then output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s\n" path

let n_kinds = Array.length Event.kinds

(* Position of [x] in [arr], or [Array.length arr] when absent. *)
let index_in arr x =
  let rec go i = if i = Array.length arr || arr.(i) = x then i else go (i + 1) in
  go 0

(* Every collection's cause rides in its [Coll_end] event, so attribution
   survives ring overwrite of the matching [Coll_begin]. *)
let attribution r =
  let counts = Array.make_matrix n_kinds Cause.n_codes 0 in
  let bytes = Array.make_matrix n_kinds Cause.n_codes 0 in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    List.iter
      (fun (_, _, ev) ->
        match ev with
        | Event.Coll_end { kind; cause; bytes = b } ->
            let k = Event.kind_code kind and c = Cause.code cause in
            counts.(k).(c) <- counts.(k).(c) + 1;
            bytes.(k).(c) <- bytes.(k).(c) + b
        | _ -> ())
      (Obs.Recorder.events r ~vproc:v)
  done;
  (counts, bytes)

let print_attribution r =
  let counts, bytes = attribution r in
  let total = Array.fold_left (Array.fold_left ( + )) 0 counts in
  let attributed = total in
  print_string "pause attribution (recorded collections by kind x cause):\n";
  Printf.printf "  %-10s %-22s %8s %12s\n" "kind" "cause" "count" "bytes";
  Array.iteri
    (fun k (_, name) ->
      for c = 0 to Cause.n_codes - 1 do
        if counts.(k).(c) > 0 then
          Printf.printf "  %-10s %-22s %8d %12d\n" name (Cause.code_name c)
            counts.(k).(c) bytes.(k).(c)
      done)
    Event.kinds;
  let total_bytes = Array.fold_left (Array.fold_left ( + )) 0 bytes in
  Printf.printf "  %-10s %-22s %8d %12d\n" "total" "" total total_bytes;
  if total = 0 then print_string "cause attribution: no collections recorded\n"
  else
    Printf.printf "cause attribution: %d%% of %d recorded collections carry a cause\n"
      (100 * attributed / total)
      total

let print_counters r =
  let attempts = ref 0
  and successes = ref 0
  and acquires = ref 0
  and fresh = ref 0
  and releases = ref 0
  and samples = ref 0
  and sampled_bytes = ref 0
  and phases = ref 0 in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    List.iter
      (fun (_, _, ev) ->
        match ev with
        | Event.Steal_attempt _ -> incr attempts
        | Event.Steal_success _ -> incr successes
        | Event.Chunk_acquire { fresh = f; _ } ->
            incr acquires;
            if f then incr fresh
        | Event.Chunk_release _ -> incr releases
        | Event.Global_phase _ | Event.Conc_phase _ -> incr phases
        | Event.Alloc_sample { bytes } ->
            incr samples;
            sampled_bytes := !sampled_bytes + bytes
        | Event.Req_done _ | Event.Coll_begin _ | Event.Coll_end _
        | Event.Conc_slices _ | Event.Conc_ratify _ | Event.Conc_round _
        | Event.Conc_cycle _ -> ())
      (Obs.Recorder.events r ~vproc:v)
  done;
  Printf.printf "scheduler: %d steal attempts, %d successes%s\n" !attempts
    !successes
    (if !attempts = 0 then ""
     else Printf.sprintf " (%d%% hit rate)" (100 * !successes / !attempts));
  Printf.printf "chunks: %d acquires (%d fresh, %d reused), %d releases\n"
    !acquires !fresh (!acquires - !fresh) !releases;
  Printf.printf "global-GC phase markers: %d\n" !phases;
  Printf.printf "alloc samples: %d (1 in %d, ~%d bytes sampled)\n" !samples
    Obs.Recorder.sample_every
    !sampled_bytes

(* --- Concurrent-collection phase attribution ------------------------ *)

(* [Conc_phase] events are emitted once per slice by the concurrent
   global collector, carrying the slice's duration split by phase; sum
   them per vproc x phase.  Only the incremental phases appear in
   Conc_phase events (the STW phase markers are separate, duration-free
   Global_phase events); [Retarget] is the overlapped conservative-keep
   slice. *)
let conc_phases =
  [| Event.Mark; Event.Claim; Event.Evacuate; Event.Handshake; Event.Retarget |]

let print_conc_phases r =
  let n_vprocs = Obs.Recorder.n_vprocs r in
  let n_phases = Array.length conc_phases in
  let sums = Array.make_matrix n_vprocs n_phases 0 in
  let total = ref 0 in
  for v = 0 to n_vprocs - 1 do
    List.iter
      (fun (_, _, ev) ->
        match ev with
        | Event.Conc_phase { phase; dur_ns; _ } ->
            let p = index_in conc_phases phase in
            if p < n_phases then begin
              sums.(v).(p) <- sums.(v).(p) + dur_ns;
              total := !total + dur_ns
            end
        | _ -> ())
      (Obs.Recorder.events r ~vproc:v)
  done;
  if !total = 0 then
    print_string
      "concurrent collection: no slices recorded (STW mode, or no global \
       collection ran)\n"
  else begin
    let us ns = float_of_int ns /. 1_000. in
    print_string "concurrent collection phase attribution (slice time, us):\n";
    Printf.printf "  %-6s" "vproc";
    Array.iter
      (fun p -> Printf.printf " %10s" (Event.phase_to_string p))
      conc_phases;
    Printf.printf " %10s\n" "total";
    let col_totals = Array.make n_phases 0 in
    for v = 0 to n_vprocs - 1 do
      let row_total = Array.fold_left ( + ) 0 sums.(v) in
      Array.iteri (fun p d -> col_totals.(p) <- col_totals.(p) + d) sums.(v);
      if row_total > 0 then begin
        Printf.printf "  %-6d" v;
        Array.iter (fun d -> Printf.printf " %10.1f" (us d)) sums.(v);
        Printf.printf " %10.1f\n" (us row_total)
      end
    done;
    Printf.printf "  %-6s" "all";
    Array.iter (fun d -> Printf.printf " %10.1f" (us d)) col_totals;
    Printf.printf " %10.1f\n" (us !total)
  end

(* --- Parallel slices and dirty-only ratify -------------------------- *)

(* [Conc_slices] marks a scheduler turn that dispatched assist slices
   beside the lead one; [Conc_ratify] carries each cycle's
   ratified-vs-skipped vproc split.  Together they attribute the two
   de-serialized paths of the concurrent collector. *)
let print_conc_parallel r =
  let turns = ref 0
  and slices = ref 0
  and max_par = ref 0
  and cycles = ref 0
  and ratified = ref 0
  and skipped = ref 0 in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    List.iter
      (fun (_, _, ev) ->
        match ev with
        | Event.Conc_slices { count; _ } ->
            incr turns;
            slices := !slices + count;
            if count > !max_par then max_par := count
        | Event.Conc_ratify { ratified = rr; skipped = s; _ } ->
            incr cycles;
            ratified := !ratified + rr;
            skipped := !skipped + s
        | _ -> ())
      (Obs.Recorder.events r ~vproc:v)
  done;
  if !turns > 0 then
    Printf.printf
      "parallel evacuation: %d multi-slice turns, %d slices total (mean \
       %.1f/turn, max %d)\n"
      !turns !slices
      (float_of_int !slices /. float_of_int !turns)
      !max_par;
  if !cycles > 0 then
    Printf.printf
      "dirty-only ratify: %d cycles stopped %d vprocs, skipped %d quiescent \
       (%.0f%% skipped)\n"
      !cycles !ratified !skipped
      (100.
      *. float_of_int !skipped
      /. float_of_int (max 1 (!ratified + !skipped)))

(* --- Request latencies (server workload) --------------------------- *)

let print_request_latencies r tr =
  let ws = Trace.request_windows r in
  let n = List.length ws in
  if n = 0 then
    print_string "request latencies: none recorded (not a server run)\n"
  else begin
    let lats =
      Array.of_list (List.map (fun (lo, hi) -> hi -. lo) ws)
    in
    Array.sort compare lats;
    let us x = x /. 1_000. in
    Printf.printf
      "request latencies: %d requests\n\
      \  p50 %8.1fus  p90 %8.1fus  p99 %8.1fus  p99.9 %8.1fus  max %8.1fus\n"
      n
      (us (Trace.percentile lats 0.50))
      (us (Trace.percentile lats 0.90))
      (us (Trace.percentile lats 0.99))
      (us (Trace.percentile lats 0.999))
      (us lats.(Array.length lats - 1));
    let slow = Trace.slow_requests ws in
    let n_slow = List.length slow in
    let slow_lat = List.fold_left (fun a (lo, hi) -> a +. (hi -. lo)) 0. slow in
    Printf.printf
      "slow requests (latency >= p99): %d, mean %.1fus, %.0f%% of their \
       in-flight time overlaps GC\n"
      n_slow
      (us (slow_lat /. float_of_int (max 1 n_slow)))
      (100. *. Trace.gc_overlap_share tr slow);
    (* Which collections those windows overlap, by kind x cause: the
       bridge from a latency SLO miss back to its GC origin. *)
    let counts = Array.make_matrix n_kinds Cause.n_codes 0 in
    let overlap_ns = Array.make_matrix n_kinds Cause.n_codes 0. in
    List.iter
      (fun c ->
        let touched =
          List.fold_left
            (fun acc (lo, hi) ->
              let s = Float.max lo c.Trace.t_start_ns
              and e = Float.min hi c.Trace.t_end_ns in
              if e > s then acc +. (e -. s) else acc)
            0. slow
        in
        if touched > 0. then begin
          let k = Event.kind_code c.Trace.kind
          and cc = Cause.code c.Trace.cause in
          counts.(k).(cc) <- counts.(k).(cc) + 1;
          overlap_ns.(k).(cc) <- overlap_ns.(k).(cc) +. touched
        end)
      (Trace.events tr);
    let any = ref false in
    Array.iteri
      (fun k (_, name) ->
        for c = 0 to Cause.n_codes - 1 do
          if counts.(k).(c) > 0 then begin
            if not !any then begin
              any := true;
              Printf.printf "  %-10s %-22s %8s %12s %7s\n" "kind" "cause"
                "pauses" "overlap_us" "share"
            end;
            Printf.printf "  %-10s %-22s %8d %12.1f %6.1f%%\n" name
              (Cause.code_name c) counts.(k).(c)
              (us overlap_ns.(k).(c))
              (100. *. overlap_ns.(k).(c) /. Float.max 1. slow_lat)
          end
        done)
      Event.kinds;
    if not !any then
      print_string "  (no collections overlap the slow requests)\n"
  end

(* --- Per-cycle critical-path blame (--cycles) ----------------------- *)

(* Everything the recorder knows about one concurrent cycle, keyed by
   the cycle id the collector threads through its Conc_* events. *)
type cycle_info = {
  mutable c_end_ns : float;  (* lead clock at ratify exit (Conc_cycle) *)
  mutable c_dur_ns : int;
  mutable c_slices : int;
  mutable c_closed : bool;  (* saw the Conc_cycle terminator *)
  mutable c_ivals : (Event.global_phase * int * float * float) list;
      (* (phase, vproc, t0, t1) slice intervals, from Conc_phase *)
  mutable c_rounds : (bool * int * int) list;  (* (exit?, straggler, wait) *)
  mutable c_ratified : int;
  mutable c_skipped : int;
}

let gather_cycles r =
  let tbl = Hashtbl.create 8 in
  let get cycle =
    match Hashtbl.find_opt tbl cycle with
    | Some c -> c
    | None ->
        let c =
          {
            c_end_ns = 0.;
            c_dur_ns = 0;
            c_slices = 0;
            c_closed = false;
            c_ivals = [];
            c_rounds = [];
            c_ratified = 0;
            c_skipped = 0;
          }
        in
        Hashtbl.add tbl cycle c;
        c
  in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    List.iter
      (fun (_, t_ns, ev) ->
        match ev with
        | Event.Conc_phase { cycle; phase; dur_ns } ->
            let c = get cycle in
            c.c_ivals <-
              (phase, v, t_ns -. float_of_int dur_ns, t_ns) :: c.c_ivals
        | Event.Conc_round { cycle; exit; straggler; wait_ns } ->
            let c = get cycle in
            c.c_rounds <- (exit, straggler, wait_ns) :: c.c_rounds
        | Event.Conc_ratify { cycle; ratified; skipped } ->
            let c = get cycle in
            c.c_ratified <- ratified;
            c.c_skipped <- skipped
        | Event.Conc_cycle { cycle; dur_ns; slices } ->
            let c = get cycle in
            c.c_end_ns <- t_ns;
            c.c_dur_ns <- dur_ns;
            c.c_slices <- slices;
            c.c_closed <- true
        | _ -> ())
      (Obs.Recorder.events r ~vproc:v)
  done;
  List.sort compare (Hashtbl.fold (fun id c acc -> (id, c) :: acc) tbl [])

(* Blame priority when slices overlap in virtual time: barrier work
   first (it serializes everyone), then the handshake and retarget
   paths that gate progress, then mark/claim bookkeeping, with bulk
   evacuation last — the most parallel phase absorbs overlap least. *)
let blame_phases =
  [|
    Event.Exit; Event.Handshake; Event.Retarget; Event.Mark; Event.Claim;
    Event.Evacuate;
  |]

let blame_rank = index_in blame_phases

(* Sweep the cycle window's elementary segments, assigning each to the
   highest-priority phase whose slice interval covers it (or to
   mutator-only execution when none does).  The segments partition the
   window, so the shares sum to the wall time exactly — the printed
   self-check is computed, not assumed. *)
let cycle_blame c =
  let lo = c.c_end_ns -. float_of_int c.c_dur_ns and hi = c.c_end_ns in
  let ivals =
    List.filter_map
      (fun (p, _, s, e) ->
        let s = Float.max lo s and e = Float.min hi e in
        if e > s then Some (p, s, e) else None)
      c.c_ivals
  in
  let cuts =
    List.sort_uniq compare
      (lo :: hi :: List.concat_map (fun (_, s, e) -> [ s; e ]) ivals)
  in
  let n_cats = Array.length blame_phases + 1 in
  let shares = Array.make n_cats 0. in
  let rec sweep = function
    | s :: (e :: _ as rest) ->
        let mid = (s +. e) /. 2. in
        let cat =
          List.fold_left
            (fun acc (p, is, ie) ->
              if is <= mid && mid < ie then min acc (blame_rank p) else acc)
            (n_cats - 1) ivals
        in
        shares.(cat) <- shares.(cat) +. (e -. s);
        sweep rest
    | _ -> ()
  in
  sweep cuts;
  shares

let print_cycles r =
  let cycles = gather_cycles r in
  let closed = List.filter (fun (_, c) -> c.c_closed) cycles in
  let open_cycles = List.length cycles - List.length closed in
  if cycles = [] then
    print_string
      "concurrent cycle report: no concurrent cycles recorded (STW mode, or \
       no global collection ran)\n"
  else begin
    Printf.printf "concurrent cycle report: %d cycle(s) reconstructed%s\n"
      (List.length closed)
      (if open_cycles > 0 then
         Printf.sprintf
           " (%d more without a cycle-end event: in flight at dump, or lost \
            to ring overwrite)"
           open_cycles
       else "");
    let us ns = ns /. 1_000. in
    List.iter
      (fun (id, c) ->
        let wall = float_of_int c.c_dur_ns in
        Printf.printf
          "cycle %d: wall %.1fus (ending at %.1fus), %d slices, ratified %d \
           / skipped %d\n"
          id (us wall) (us c.c_end_ns) c.c_slices c.c_ratified c.c_skipped;
        let shares = cycle_blame c in
        let total = Array.fold_left ( +. ) 0. shares in
        print_string "  phase blame:";
        Array.iteri
          (fun i p ->
            if shares.(i) > 0. then
              Printf.printf " %s %.1fus (%.0f%%)" (Event.phase_to_string p)
                (us shares.(i))
                (100. *. shares.(i) /. Float.max 1. total))
          blame_phases;
        let mut = shares.(Array.length blame_phases) in
        if mut > 0. then
          Printf.printf " mutator-only %.1fus (%.0f%%)" (us mut)
            (100. *. mut /. Float.max 1. total);
        print_newline ();
        Printf.printf
          "  attribution self-check: %.0f%% of cycle wall time attributed \
           (%.1fus of %.1fus)\n"
          (if wall > 0. then 100. *. total /. wall else 100.)
          (us total) (us wall);
        (* Handshake round: the vproc whose handshake slice finished
           last bounded the root-scan wave. *)
        (match
           List.fold_left
             (fun acc (p, v, _, e) ->
               if p = Event.Handshake then
                 match acc with
                 | Some (_, e') when e' >= e -> acc
                 | _ -> Some (v, e)
               else acc)
             None c.c_ivals
         with
        | Some (v, e) ->
            Printf.printf
              "  handshake round: straggler vproc %d (last handshake done at \
               %.1fus)\n"
              v (us e)
        | None -> ());
        List.iter
          (fun (exit, straggler, wait_ns) ->
            Printf.printf "  ratify %s round: straggler vproc %d, spread %.1fus\n"
              (if exit then "exit" else "entry")
              straggler
              (us (float_of_int wait_ns)))
          (List.rev c.c_rounds))
      closed;
    (* Link the slow tail back to the cycle (and dominant phase) each
       request overlapped — the per-cycle refinement of the kind x cause
       table above. *)
    let slow = List.sort compare (Trace.slow_requests (Trace.request_windows r)) in
    if slow <> [] then begin
      let linked = ref 0 in
      let lines = Buffer.create 256 in
      List.iter
        (fun (rlo, rhi) ->
          (* The cycle this request overlapped most. *)
          let best =
            List.fold_left
              (fun acc (id, c) ->
                let clo = c.c_end_ns -. float_of_int c.c_dur_ns in
                let s = Float.max rlo clo and e = Float.min rhi c.c_end_ns in
                let ov = e -. s in
                match acc with
                | Some (_, _, ov') when ov' >= ov -> acc
                | _ when ov > 0. -> Some (id, c, ov)
                | _ -> acc)
              None closed
          in
          match best with
          | None -> ()
          | Some (id, c, ov) ->
              incr linked;
              (* Dominant phase inside the overlapped stretch: same
                 sweep, restricted to the request's window. *)
              let clipped =
                {
                  c with
                  c_end_ns = Float.min rhi c.c_end_ns;
                  c_dur_ns =
                    int_of_float
                      (Float.min rhi c.c_end_ns
                      -. Float.max rlo (c.c_end_ns -. float_of_int c.c_dur_ns));
                }
              in
              let shares = cycle_blame clipped in
              let dom = ref (Array.length blame_phases) in
              Array.iteri
                (fun i _ -> if shares.(i) > shares.(!dom) then dom := i)
                (Array.make (Array.length blame_phases) ());
              let dom_name =
                if !dom >= Array.length blame_phases then "mutator-only"
                else Event.phase_to_string blame_phases.(!dom)
              in
              Buffer.add_string lines
                (Printf.sprintf
                   "  lat %.1fus done@%.1fus -> cycle %d, dominant phase %s \
                    (%.0f%% of the request overlapped it)\n"
                   ((rhi -. rlo) /. 1_000.)
                   (rhi /. 1_000.) id dom_name
                   (100. *. ov /. Float.max 1. (rhi -. rlo))))
        slow;
      Printf.printf
        "slow requests (>= p99) vs cycles: %d of %d overlap a concurrent \
         cycle\n"
        !linked (List.length slow);
      print_string (Buffer.contents lines)
    end
  end

let traffic_matrix r =
  let n = Obs.Recorder.n_nodes r in
  Array.init n (fun s ->
      Array.init n (fun d -> Obs.Recorder.matrix_get r ~src_node:s ~dst_node:d))

let main dump_path chrome tail partial cycles =
  let text =
    try read_file dump_path
    with Sys_error m ->
      Printf.eprintf "cannot read dump: %s\n" m;
      exit 2
  in
  match Obs.Recorder.of_string ~partial text with
  | Error m ->
      Printf.eprintf "cannot parse dump %s: %s\n" dump_path m;
      exit 2
  | Ok r ->
      let n_vprocs = Obs.Recorder.n_vprocs r in
      let dropped = ref 0 in
      for v = 0 to n_vprocs - 1 do
        dropped := !dropped + Obs.Recorder.dropped r ~vproc:v
      done;
      Printf.printf "%s: %d vprocs on %d nodes, %d events surviving%s\n"
        dump_path n_vprocs (Obs.Recorder.n_nodes r)
        (let n = ref 0 in
         for v = 0 to n_vprocs - 1 do
           n := !n + List.length (Obs.Recorder.events r ~vproc:v)
         done;
         !n)
        (if !dropped > 0 then
           Printf.sprintf " (%d overwritten in-ring)" !dropped
         else "");
      if !dropped > 0 then begin
        print_string "per-vproc ring drops:";
        for v = 0 to n_vprocs - 1 do
          let d = Obs.Recorder.dropped r ~vproc:v in
          if d > 0 then Printf.printf " vproc %d: %d" v d
        done;
        print_newline ();
        Printf.printf
          "warning: %d event(s) were overwritten in-ring before the dump; \
           every attribution below is computed from wrapped rings and may \
           undercount early activity\n"
          !dropped
      end;
      print_newline ();
      print_attribution r;
      print_newline ();
      let tr, orphans = Trace.of_recorder r in
      if orphans > 0 then
        Printf.printf
          "(%d begin/end orphans skipped: pair lost to ring overwrite or dump \
           point)\n"
          orphans;
      print_string (Trace.summary tr);
      print_newline ();
      print_string (Trace.render_timeline tr ~n_vprocs);
      print_newline ();
      print_conc_phases r;
      print_conc_parallel r;
      print_newline ();
      print_request_latencies r tr;
      print_newline ();
      if cycles then begin
        print_cycles r;
        print_newline ()
      end;
      print_counters r;
      print_newline ();
      print_string
        (Harness.Ascii_plot.heatmap ~title:"NUMA traffic matrix (bytes copied)"
           ~row_label:"src" ~col_label:"dst" (traffic_matrix r));
      if tail then begin
        print_newline ();
        print_string (Obs.Recorder.dump_tail r)
      end;
      Option.iter (fun path -> write_file path (Trace.to_chrome_json tr)) chrome

let dump_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DUMP" ~doc:"Flight-recorder dump file (obs-dump v1).")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Write the reconstructed collections as Chrome trace-event JSON \
           (args carry bytes, cause and NUMA node); load in about:tracing or \
           Perfetto.")

let tail_arg =
  Arg.(
    value & flag
    & info [ "tail" ] ~doc:"Also print the raw per-vproc event tails.")

let partial_arg =
  Arg.(
    value & flag
    & info [ "partial" ]
        ~doc:
          "Salvage mode: analyze the readable prefix of a truncated or \
           corrupt dump instead of exiting with an error.")

let cycles_arg =
  Arg.(
    value & flag
    & info [ "cycles" ]
        ~doc:
          "Per-concurrent-cycle critical-path report: phase blame summing to \
           100% of each cycle's wall time, the straggler vproc bounding each \
           handshake/ratify round, and every >= p99 request linked to the \
           cycle and phase it overlapped.")

let () =
  let info =
    Cmd.info "gcprof"
      ~doc:"Analyze a Manticore-GC flight-recorder dump post mortem."
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const main $ dump_arg $ chrome_arg $ tail_arg $ partial_arg
            $ cycles_arg)))
