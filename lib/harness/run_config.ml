open Manticore_gc
open Sim_mem

type t = {
  machine : Numa.Topology.t;
  cache_scale : int;
  bw_scale : int;
  n_vprocs : int;
  policy : Page_policy.t;
  scale : float;
  params : Params.t;
  eager_promotion : bool;
  near_steal : bool;  (* Near_first steal policy instead of random *)
  trace : bool;
  census : bool;
  obs_enabled : bool;
  seed : int;
  telemetry : (string * float) option;
      (* stream OpenMetrics blocks to (path, every interval_ns) *)
  slo : Metrics.slo option;  (* declared request-latency objective *)
}

let harness_params =
  {
    Params.default with
    Params.capacity_bytes = 512 * 1024 * 1024;
    local_heap_bytes = 64 * 1024;
    chunk_bytes = 20 * 1024;
    nursery_min_bytes = 8 * 1024;
    global_budget_per_vproc = 256 * 1024;
  }

let default ~machine ~n_vprocs =
  {
    machine;
    cache_scale = 32;
    bw_scale = 16;
    n_vprocs;
    policy = Page_policy.Local;
    scale = 1.0;
    params = harness_params;
    eager_promotion = false;
    near_steal = false;
    trace = false;
    census = false;
    obs_enabled = true;
    seed = 0x5eed;
    telemetry = None;
    slo = None;
  }

type outcome = {
  checksum : float;
  elapsed_ns : float;
  gc : Gc_stats.t;
  sched : Runtime.Sched.stats;
  metrics : Metrics.t;
  obs : Obs.Recorder.t;
  timeline : string option;
  chrome_trace : string option;
  census_report : string option;
}

let execute_with t run =
  let machine = Numa.Machines.with_scaled_caches t.cache_scale t.machine in
  let ctx =
    Ctx.create ~params:t.params ~cap_scale:(float_of_int t.bw_scale) ~machine
      ~n_vprocs:t.n_vprocs ~policy:t.policy ()
  in
  let rt =
    Runtime.Sched.create ~eager_promotion:t.eager_promotion
      ~steal_policy:
        (if t.near_steal then Runtime.Sched.Near_first
         else Runtime.Sched.Random_victim)
      ~seed:t.seed ctx
  in
  if t.trace then Gc_trace.enable ctx.Ctx.trace;
  Obs.Recorder.set_enabled ctx.Ctx.obs t.obs_enabled;
  Metrics.set_slo ctx.Ctx.metrics t.slo;
  Option.iter
    (fun (path, interval_ns) ->
      Metrics.stream_to ctx.Ctx.metrics ~path ~interval_ns)
    t.telemetry;
  let checksum = run ctx rt in
  Metrics.stream_close ctx.Ctx.metrics ~now_ns:(Runtime.Sched.elapsed_ns rt);
  {
    checksum;
    elapsed_ns = Runtime.Sched.elapsed_ns rt;
    gc = Ctx.gc_totals ctx;
    sched = Runtime.Sched.stats rt;
    metrics = ctx.Ctx.metrics;
    obs = ctx.Ctx.obs;
    timeline =
      (if t.trace then
         Some
           (Gc_trace.render_timeline ctx.Ctx.trace ~n_vprocs:t.n_vprocs
           ^ Gc_trace.summary ctx.Ctx.trace)
       else None);
    chrome_trace =
      (if t.trace then Some (Gc_trace.to_chrome_json ctx.Ctx.trace) else None);
    census_report =
      (if t.census then Some (Heap.Census.render (Ctx.census ctx)) else None);
  }

let execute spec t =
  execute_with t (fun _ctx rt -> Workloads.Registry.run spec rt ~scale:t.scale)

(* The server workload at an explicit operating point: the registry
   entry only covers its default load, while the latency experiments
   sweep arrival rates.  Raises [Failure] on a checksum mismatch or a
   dropped request. *)
let execute_server t ~rate_rps ~n_requests =
  let load =
    {
      Workloads.Server.rate_rps;
      n_requests;
      n_sessions = max 2 (t.n_vprocs / 2);
      seed = 0xC0FFEE;
    }
  in
  execute_with t (fun ctx rt ->
      let sum = ref 0. in
      ignore
        (Runtime.Sched.run rt ~main:(fun m ->
             sum := Workloads.Server.run_load rt m load;
             Heap.Value.unit));
      let expected = Workloads.Server.expected_load load in
      if Float.abs (!sum -. expected) > 1e-6 then
        failwith
          (Printf.sprintf
             "server: checksum %.9g failed validation at %.0f rps" !sum
             rate_rps);
      let agg = Metrics.aggregate ctx.Ctx.metrics in
      if agg.Metrics.requests.Metrics.count <> n_requests then
        failwith
          (Printf.sprintf "server: %d of %d requests completed at %.0f rps"
             agg.Metrics.requests.Metrics.count n_requests rate_rps);
      !sum)

let metrics_block o =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Format.asprintf "%a" Metrics.pp_summary (Metrics.snapshot o.metrics));
  if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '\n' then
    Buffer.add_char b '\n';
  Buffer.add_string b (Metrics.window_report o.metrics);
  (* Ring health: a wrapped ring silently truncates any analysis built
     on it, so surface the per-vproc drop counters next to the table. *)
  let n = Obs.Recorder.n_vprocs o.obs in
  let drops = ref [] in
  for v = n - 1 downto 0 do
    let d = Obs.Recorder.dropped o.obs ~vproc:v in
    if d > 0 then drops := (v, d) :: !drops
  done;
  if !drops <> [] then
    Buffer.add_string b
      (Printf.sprintf "obs ring drops: %d event(s) overwritten (%s)\n"
         (List.fold_left (fun a (_, d) -> a + d) 0 !drops)
         (String.concat ", "
            (List.map (fun (v, d) -> Printf.sprintf "v%02d: %d" v d) !drops)));
  Buffer.contents b

let pp ppf t =
  Format.fprintf ppf "%s x%d %a scale=%g"
    t.machine.Numa.Topology.name t.n_vprocs Page_policy.pp t.policy t.scale
