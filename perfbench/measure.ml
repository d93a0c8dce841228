(* One measured iteration ("job") of a workload, and the metrics a run
   reports over its jobs.  Everything is read from the simulator's
   public state after the run phase: the collector's event trace for
   exact pauses, the flight recorder for exact request latencies, and
   the Gc_stats / Metrics / Sched / Cost_model / Recorder counters for
   the per-layer numbers. *)

open Manticore_gc
open Runtime

(* --- metric catalog ------------------------------------------------ *)

type metric = {
  name : string;
  unit : string;
  higher_is_better : bool;
  bound : float option;  (* end-to-end only: allowed worsening share *)
}

let e2e name unit bound = { name; unit; higher_is_better = false; bound = Some bound }
let layer ?(higher = false) name unit =
  { name; unit; higher_is_better = higher; bound = None }

let end_to_end =
  [ e2e "makespan_ms" "ms" 0.08;
    e2e "pause_top1pct_us" "us" 0.2;
    e2e "req_mean_us" "us" 0.2;
    e2e "req_p99_us" "us" 0.2;
    e2e "host_s" "s" 0.25;
    e2e "setup_s" "s" 0.25;
    e2e "peak_rss_mb" "MB" 0.25 ]

(* Counters read after every job. *)
let job_layers =
  [ layer ~higher:true "numa.l2_hit_rate" "fraction";
    layer ~higher:true "numa.l3_hit_rate" "fraction";
    layer "numa.dram_mb" "MB";
    layer "numa.gc_remote_share" "fraction";
    layer "sim_mem.chunk_acquires" "count";
    layer "sim_mem.allocated_mb" "MB";
    layer "alloc.nursery_mb" "MB";
    layer "alloc.global_mb" "MB";
    layer "minor.count" "count";
    layer "minor.pause_ms" "ms";
    layer "minor.pause_p99_us" "us";
    layer "minor.survival" "fraction";
    layer "major.count" "count";
    layer "major.pause_ms" "ms";
    layer "major.copied_mb" "MB";
    layer "promote.cycles" "count";
    layer ~higher:true "promote.batched_per_cycle" "count";
    layer "promote.mb" "MB";
    layer "promote.pause_ms" "ms";
    layer "global.cycles" "count";
    layer "global.pause_ms" "ms";
    layer "global.pause_max_us" "us";
    layer "global.copied_mb" "MB";
    layer "barrier.wait_ms" "ms";
    layer "barrier.p99_us" "us";
    layer "conc.ratified" "count";
    layer ~higher:true "conc.ratify_skip_share" "fraction";
    layer "gc.share" "fraction";
    layer "gc.pauses" "count";
    layer "gc.pause_max_us" "us";
    layer "sched.spawns" "count";
    layer "sched.steal_attempts" "count";
    layer ~higher:true "sched.steal_success_rate" "fraction";
    layer "sched.inline_runs" "count";
    layer "sched.sends" "count";
    layer "sched.steal_promoted_mb" "MB";
    layer "obs.events" "count";
    layer "obs.dropped" "count";
    layer "server.gen_late_us" "us";
    layer ~higher:true "server.requests" "count" ]

(* Measured once per traced run. *)
let run_layers =
  [ layer ~higher:true "server.max_rate_krps" "krps";
    layer "numa.access_host_ns" "ns";
    layer "sim_mem.chunk_host_ns" "ns";
    layer "heap.classify_host_ns" "ns";
    layer "alloc.vector_host_ns" "ns";
    layer "minor.host_us" "us";
    layer "promote.host_us" "us";
    layer "global.stw_host_ms" "ms";
    layer "conc.cycle_host_ms" "ms";
    layer "sched.spawn_await_host_us" "us";
    layer "sched.channel_host_us" "us";
    layer "obs.record_host_ns" "ns";
    layer "trace.overhead_s" "s" ]

let per_layer = job_layers @ run_layers

(* --- one job ------------------------------------------------------ *)

(* A traced job's phase: host CPU seconds, virtual ns, and the counters
   at its end. *)
type phase = {
  phase : string;
  h0 : float;
  h1 : float;
  v0 : float;
  v1 : float;
  after : (string * float) list;
}

type job = {
  setup_s : float;  (* host CPU: Ctx.create + Sched.create + Pval.register *)
  run_s : float;  (* host CPU: the run phase *)
  job_s : float;  (* host CPU: the whole job, telemetry included *)
  makespan_ns : float;
  pauses : float array array;  (* exact, per kind: minor major promotion global barrier *)
  latencies : float array;  (* per request; one per job on batch workloads *)
  verdict : Work.verdict;
  counters : (string * float) list;
  phases : phase list;  (* traced jobs: set-up, run, verification *)
  chrome : string option;  (* traced jobs: the collector trace *)
}

let kind_index = function
  | Gc_trace.Minor -> 0 | Major -> 1 | Promotion -> 2 | Global -> 3 | Barrier -> 4

let pauses_of (ctx : Ctx.t) =
  let by_kind = Array.make 5 [] in
  List.iter
    (fun (e : Gc_trace.event) ->
      let k = kind_index e.Gc_trace.kind in
      by_kind.(k) <- (e.Gc_trace.t_end_ns -. e.Gc_trace.t_start_ns) :: by_kind.(k))
    (Gc_trace.events ctx.Ctx.trace);
  Array.map Array.of_list by_kind

(* Request latencies from the recorder's [Req_done] events.  The rings
   keep only the newest events, so they are drained from the
   post-collection observer (collections recur every few requests)
   well before a ring can wrap; an overwritten event is an error, never
   a silently shorter sample. *)
let latency_drain (ctx : Ctx.t) =
  let r = ctx.Ctx.obs in
  let seen = Array.make (Obs.Recorder.n_vprocs r) 0 in
  let out = ref [] in
  let drain ~min_new =
    Array.iteri
      (fun v s ->
        let total = Obs.Recorder.total_events r ~vproc:v in
        if total - s >= max 1 min_new then begin
          (match Obs.Recorder.events r ~vproc:v with
          | (first, _, _) :: _ when first > s ->
              failwith "request latencies lost to flight-recorder overwrite"
          | evs ->
              List.iter
                (fun (seq, _, ev) ->
                  match ev with
                  | Obs.Event.Req_done { latency_ns } when seq >= s ->
                      out := float_of_int latency_ns :: !out
                  | _ -> ())
                evs);
          seen.(v) <- total
        end)
      seen
  in
  Ctx.set_on_collection ctx (Some (fun _ _ -> drain ~min_new:1024));
  fun () ->
    drain ~min_new:1;
    Ctx.set_on_collection ctx None;
    Array.of_list (List.rev !out)

let sum = Array.fold_left ( +. ) 0.

let counters (env : Work.env) ~makespan_ns ~pauses =
  let c = env.Work.ctx in
  let st = Gc_stats.total (Array.map (fun (m : Ctx.mutator) -> m.Ctx.stats) c.Ctx.muts) in
  let g = c.Ctx.stats in
  let agg = Metrics.aggregate c.Ctx.metrics in
  let sch = Sched.stats env.Work.rt in
  let cost = c.Ctx.cost and obs = c.Ctx.obs in
  let nv = Ctx.n_vprocs c in
  let nodes = Numa.Topology.n_nodes (Numa.Cost_model.topology cost) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let f = float_of_int in
  let mb b = f b /. 1e6 and ms ns = ns /. 1e6 and us ns = ns /. 1e3 in
  let vprocs = List.init nv Fun.id in
  let hosting = List.sort_uniq compare (List.map (Numa.Cost_model.vproc_node cost) vprocs) in
  let mean xs g = ratio (List.fold_left (fun a x -> a +. g x) 0. xs) (f (List.length xs)) in
  let copied = Obs.Recorder.matrix_total obs in
  let diagonal =
    List.fold_left
      (fun a n -> a + Obs.Recorder.matrix_get obs ~src_node:n ~dst_node:n)
      0 (List.init nodes Fun.id)
  in
  let per_vproc get = List.fold_left (fun a v -> a + get obs ~vproc:v) 0 vprocs in
  [ ("numa.l2_hit_rate", mean vprocs (fun v -> Numa.Cost_model.l2_hit_rate cost ~vproc:v));
    ("numa.l3_hit_rate", mean hosting (fun n -> Numa.Cost_model.l3_hit_rate cost ~node:n));
    ( "numa.dram_mb",
      List.fold_left
        (fun a n -> a +. Numa.Cost_model.bank_total_bytes cost ~node:n)
        0. (List.init nodes Fun.id)
      /. 1e6 );
    ("numa.gc_remote_share", ratio (f (copied - diagonal)) (f copied));
    ("sim_mem.chunk_acquires", f agg.Metrics.chunk_acquires);
    ( "sim_mem.allocated_mb",
      mb (Sim_mem.Page_alloc.allocated_bytes c.Ctx.store.Heap.Store.pa) );
    ("alloc.nursery_mb", mb st.Gc_stats.alloc_bytes);
    ("alloc.global_mb", mb st.Gc_stats.global_alloc_bytes);
    ("minor.count", f st.Gc_stats.minor_count);
    ("minor.pause_ms", ms (sum pauses.(0)));
    ("minor.pause_p99_us", us (Stats.percentile pauses.(0) 0.99));
    ("minor.survival", ratio (f st.Gc_stats.minor_copied_bytes) (f st.Gc_stats.alloc_bytes));
    ("major.count", f st.Gc_stats.major_count);
    ("major.pause_ms", ms (sum pauses.(1)));
    ("major.copied_mb", mb st.Gc_stats.major_copied_bytes);
    ("promote.cycles", f st.Gc_stats.promote_count);
    ( "promote.batched_per_cycle",
      ratio (f st.Gc_stats.promote_batched_values) (f st.Gc_stats.promote_count) );
    ("promote.mb", mb st.Gc_stats.promoted_bytes);
    ("promote.pause_ms", ms (sum pauses.(2)));
    ("global.cycles", f g.Gc_stats.global_count);
    ("global.pause_ms", ms (sum pauses.(3)));
    ("global.pause_max_us", us (Stats.max_of pauses.(3)));
    ("global.copied_mb", mb g.Gc_stats.global_copied_bytes);
    ("barrier.wait_ms", ms (sum pauses.(4)));
    ("barrier.p99_us", us (Stats.percentile pauses.(4) 0.99));
    ("conc.ratified", f agg.Metrics.ratified);
    ( "conc.ratify_skip_share",
      ratio
        (f agg.Metrics.ratify_skipped)
        (f (agg.Metrics.ratified + agg.Metrics.ratify_skipped)) );
    ("gc.share", ratio st.Gc_stats.gc_ns (makespan_ns *. f nv));
    ("gc.pauses", f (Array.fold_left (fun a k -> a + Array.length k) 0 pauses));
    ("gc.pause_max_us", us (Stats.max_of (Array.map Stats.max_of pauses)));
    ("sched.spawns", f sch.Sched.spawns);
    ("sched.steal_attempts", f agg.Metrics.steal_attempts);
    ( "sched.steal_success_rate",
      ratio (f agg.Metrics.steal_successes) (f agg.Metrics.steal_attempts) );
    ("sched.inline_runs", f sch.Sched.inline_runs);
    ("sched.sends", f sch.Sched.sends);
    ("sched.steal_promoted_mb", mb sch.Sched.steal_promoted_bytes);
    ("obs.events", f (per_vproc Obs.Recorder.total_events));
    ("obs.dropped", f (per_vproc Obs.Recorder.dropped));
    ("server.gen_late_us", us env.Work.gen_late_ns);
    ("server.requests", f agg.Metrics.requests.Metrics.count) ]

let virtual_clock (ctx : Ctx.t) =
  Array.fold_left (fun a (m : Ctx.mutator) -> Float.max a m.Ctx.now_ns) 0. ctx.Ctx.muts

(* Run one job: inputs (untimed), set-up, run, telemetry, verification.
   A traced job also snapshots the counters at each phase boundary and
   keeps the collector trace for the span file. *)
let job (w : Work.t) size ~seed ~traced =
  let go = w.Work.prepare size ~seed in
  let h0 = Sys.time () in
  let env = Work.create (w.Work.shape size) ~sched_seed:(Work.sched_seed seed) in
  let h1 = Sys.time () in
  let ctx = env.Work.ctx in
  Gc_trace.enable ctx.Ctx.trace;
  let latencies = latency_drain ctx in
  let phases = ref [] in
  let phase name ~h0 ~h1 ~v0 after =
    if traced then
      phases :=
        { phase = name; h0; h1; v0; v1 = virtual_clock ctx; after = after () } :: !phases
  in
  let snapshot ~makespan_ns () = counters env ~makespan_ns ~pauses:(pauses_of ctx) in
  phase "setup" ~h0 ~h1 ~v0:0. (snapshot ~makespan_ns:0.);
  let v2 = virtual_clock ctx in
  let h2 = Sys.time () in
  let verify = go env in
  let h3 = Sys.time () in
  let makespan_ns = Sched.elapsed_ns env.Work.rt in
  let requests = latencies () in
  let pauses = pauses_of ctx in
  let at_end = counters env ~makespan_ns ~pauses in
  phase "run" ~h0:h2 ~h1:h3 ~v0:v2 (fun () -> at_end);
  let chrome = if traced then Some (Gc_trace.to_chrome_json ctx.Ctx.trace) else None in
  let v4 = virtual_clock ctx in
  let h4 = Sys.time () in
  let verdict = verify () in
  let h5 = Sys.time () in
  phase "verify" ~h0:h4 ~h1:h5 ~v0:v4 (snapshot ~makespan_ns);
  {
    setup_s = h1 -. h0;
    run_s = h3 -. h2;
    job_s = Sys.time () -. h0;
    makespan_ns;
    pauses;
    latencies = (if w.Work.serving then requests else [| makespan_ns |]);
    verdict;
    counters = at_end;
    phases = List.rev !phases;
    chrome;
  }

(* --- metrics over a run's jobs ----------------------------------- *)

let pool jobs get = Array.concat (List.map get jobs)

(* [virt] are the run's first [w.jobs] jobs (fixed by the seed);
   [run_s] and [setup_s] are the host CPU seconds of every job, including
   those that only fill the measuring time.  [host_s] is the best of
   them: on a shared host, neighbours slow whole seconds of a run by up
   to 60%, and the fastest job is the one they disturbed least. *)
let end_to_end_values ~virt ~run_s ~setup_s =
  let latencies = pool virt (fun j -> j.latencies) in
  let pauses = pool virt (fun j -> Array.concat (Array.to_list j.pauses)) in
  let makespans = Array.of_list (List.map (fun j -> j.makespan_ns) virt) in
  [ ("makespan_ms", Stats.median makespans /. 1e6);
    ("pause_top1pct_us", Stats.top_mean pauses 0.01 /. 1e3);
    ("req_mean_us", Stats.mean latencies /. 1e3);
    ("req_p99_us", Stats.percentile latencies 0.99 /. 1e3);
    ("host_s", Array.fold_left Float.min infinity run_s);
    ("setup_s", Stats.median setup_s) ]

(* The traced job's phases as spans: host CPU for every job, virtual
   time for the first (the one whose collector trace is kept), each
   carrying the counters that moved during the phase. *)
let emit_spans (w : Work.t) i j =
  ignore
    (List.fold_left
       (fun before p ->
         let args =
           List.filter_map
             (fun (k, v) ->
               let d = v -. Option.value (List.assoc_opt k before) ~default:0. in
               if d <> 0. then Some (k, d) else None)
             p.after
         in
         let name = Printf.sprintf "%s/%s#%d" w.Work.name p.phase i in
         Spans.add ~cat:"job" ~name ~t0:p.h0 ~t1:p.h1 args;
         if i = 0 then
           Spans.add ~clock:Spans.Virtual ~cat:"job" ~name ~t0:p.v0 ~t1:p.v1 args;
         p.after)
       [] j.phases)

let layer_values jobs =
  List.map
    (fun m ->
      ( m.name,
        Stats.median
          (Array.of_list (List.map (fun j -> List.assoc m.name j.counters) jobs)) ))
    job_layers

(* Peak resident set of this process (Linux). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then Scanf.sscanf line "VmHWM: %d kB" Fun.id
    else find ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.
