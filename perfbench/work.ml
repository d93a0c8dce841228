(* The benchmark's five workloads.  Each one builds its own context and
   scheduler through the simulator's public constructors, runs under
   [Sched.run], and verifies the program's output afterwards.  Inputs
   are made here from the seed; the simulator receives only the
   generated inputs. *)

open Heap
open Manticore_gc
open Runtime

(* [Full] is the measured configuration; [Smoke] is the same program on
   the 4-core test machine at tiny scale, for the self-test. *)
type size = Full | Smoke

type shape = {
  machine : Numa.Topology.t;
  n_vprocs : int;
  policy : Sim_mem.Page_policy.t;
  params : Params.t;
}

type env = {
  ctx : Ctx.t;
  rt : Sched.t;
  d : Pml.Pval.descs;
  mutable gen_late_ns : float;
      (* serving: the main fiber's clock at [run_load] entry minus the
         arrival plan's first time, floored at 0 *)
}

type verdict = { attempted : int; failed : int }

type t = {
  name : string;
  serving : bool;
  jobs : size -> int;
      (* iterations per run whose virtual metrics are reported; each
         gets its own inputs, so medians and pooled percentiles do not
         hang on one input's luck *)
  shape : size -> shape;
  prepare : size -> seed:int -> env -> unit -> verdict;
      (* [prepare size ~seed] makes the inputs; applied to a fresh env it
         runs the program and returns the verification still to do *)
}

(* The evaluation harness's machine scaling and heap parameters
   (DESIGN.md §6), shared by every workload. *)
let harness = Harness.Run_config.default ~machine:Numa.Machines.amd48 ~n_vprocs:1

let shape size ~n_vprocs ?(policy = Sim_mem.Page_policy.Local)
    ?(params = harness.Harness.Run_config.params) () =
  let machine, n_vprocs =
    match size with
    | Full -> (Numa.Machines.amd48, n_vprocs)
    | Smoke -> (Numa.Machines.tiny4, 4)
  in
  {
    machine =
      Numa.Machines.with_scaled_caches harness.Harness.Run_config.cache_scale
        machine;
    n_vprocs;
    policy;
    params;
  }

(* The set-up that [setup_s] times. *)
let create sh ~sched_seed =
  let ctx =
    Ctx.create ~params:sh.params
      ~cap_scale:(float_of_int harness.Harness.Run_config.bw_scale)
      ~machine:sh.machine ~n_vprocs:sh.n_vprocs ~policy:sh.policy ()
  in
  let rt = Sched.create ~seed:sched_seed ctx in
  let d = Pml.Pval.register ctx in
  { ctx; rt; d; gen_late_ns = 0. }

(* Every seed the simulator sees is derived from the benchmark seed. *)
let derive seed salt = Hashtbl.hash (seed, salt) land 0x3FFFFFFF
let sched_seed seed = derive seed "sched"
let pass ok = { attempted = 1; failed = (if ok then 0 else 1) }

(* --- quicksort-local --------------------------------------------- *)

(* Distinct seeded values, arranged so that every partition's middle
   element — the pivot [Quicksort.qsort] takes — is that partition's
   median.  With random pivots the makespan swings by ~15% between
   seeds (the critical path follows the larger side of each split),
   which would hide any collector change; the arrangement keeps the
   values, the partition traffic and the fork-join shape seeded while
   fixing the split ratios.  [partition3] is order-preserving, so each
   side's arrangement survives the partition. *)
let balanced_input st n =
  let sorted = Array.init n (fun i -> (25 * i) + Random.State.int st 25) in
  let rec arrange lo hi =
    let len = hi - lo in
    if len <= 1 then Array.sub sorted lo len
    else begin
      let mid = lo + (len / 2) in
      let l = arrange lo mid and g = arrange (mid + 1) hi in
      let out = Array.make len sorted.(mid) in
      let nl = Array.length l and ng = Array.length g in
      let i = ref 0 and j = ref 0 in
      for k = 0 to len - 1 do
        if k <> len / 2 then begin
          let left = nl - !i and right = ng - !j in
          if right = 0 || (left > 0 && Random.State.int st (left + right) < left)
          then (out.(k) <- l.(!i); incr i)
          else (out.(k) <- g.(!j); incr j)
        end
      done;
      out
    end
  in
  arrange 0 n

let quicksort_local =
  let scale = function Full -> 1.0 | Smoke -> 0.05 in
  {
    name = "quicksort-local";
    serving = false;
    jobs = (function Full -> 10 | Smoke -> 1);
    shape = (fun size -> shape size ~n_vprocs:16 ());
    prepare =
      (fun size ~seed ->
        let n = Workloads.Quicksort.size_of_scale (scale size) in
        let input = balanced_input (Random.State.make [| seed |]) n in
        fun env ->
          let sorted =
            Sched.run env.rt ~main:(fun m ->
                let arr =
                  Pml.Par.tabulate env.rt m env.d ~env:[||] ~n ~grain:512
                    ~f:(fun _ _ i -> Value.of_int input.(i))
                in
                Workloads.Quicksort.qsort env.rt env.d m arr n)
          in
          fun () ->
            let got =
              Pml.Pval.arr_to_int_array env.ctx (Ctx.mutator env.ctx 0) sorted
            in
            let want = Array.copy input in
            Array.sort compare want;
            pass (got = want));
  }

(* --- smvm-interleaved -------------------------------------------- *)

let smvm_interleaved =
  let scale = function Full -> 4.0 | Smoke -> 0.1 in
  let spec = Option.get (Workloads.Registry.find "smvm") in
  {
    name = "smvm-interleaved";
    serving = false;
    jobs = (function Full -> 10 | Smoke -> 1);
    shape =
      (fun size ->
        shape size ~n_vprocs:48 ~policy:Sim_mem.Page_policy.Interleaved ());
    (* The matrix is fixed by the scale; the seed drives the scheduler's
       steal-victim stream. *)
    prepare =
      (fun size ~seed:_ env ->
        let boxed =
          Sched.run env.rt ~main:(fun m -> spec.fiber env.rt env.d m ~scale:(scale size))
        in
        fun () ->
          let v = Pml.Pval.unbox_float env.ctx (Ctx.mutator env.ctx 0) boxed in
          pass (spec.check ~scale:(scale size) v));
  }

(* --- serving ------------------------------------------------------ *)

let rate_rps = 200_000.

let load size ~seed ~rate =
  {
    Workloads.Server.rate_rps = rate;
    n_requests = (match size with Full -> 4096 | Smoke -> 256);
    n_sessions = 4;
    seed = derive seed "arrivals";
  }

(* Run the open-loop server inside the current fiber and record how late
   the generator started against the arrival plan. *)
let serve env m load =
  let plan0 = (Workloads.Server.arrival_plan load).(0) in
  env.gen_late_ns <- Float.max 0. (m.Ctx.now_ns -. plan0);
  Workloads.Server.run_load env.rt m load

let server_verdict env load sum =
  let completed =
    (Metrics.aggregate env.ctx.Ctx.metrics).Metrics.requests.Metrics.count
  in
  let n = load.Workloads.Server.n_requests in
  {
    attempted = 1 + n;
    failed =
      (if Float.abs (sum -. Workloads.Server.expected_load load) > 1e-6 then 1
       else 0)
      + max 0 (n - completed);
  }

let run_server ~rate size ~seed env =
  let load = load size ~seed ~rate in
  let sum = ref nan in
  ignore
    (Sched.run env.rt ~main:(fun m ->
         sum := serve env m load;
         Value.unit));
  fun () -> server_verdict env load !sum

let server_shape size = shape size ~n_vprocs:8 ()

let server_sweep =
  {
    name = "server-sweep";
    serving = true;
    jobs = (function Full -> 20 | Smoke -> 1);
    shape = server_shape;
    prepare = run_server ~rate:rate_rps;
  }

(* --- ballast-serve ------------------------------------------------ *)

(* Two builder fibers each keep [segments] chains of [cells] promoted
   cons cells live and rebuild the oldest chain, round-robin, until the
   server has answered its last request: a steady ~2 MB live set under
   steady churn, so global cycles recur throughout the service instead
   of clustering at one build's end.  Two builders leave six of the
   eight vprocs to the server, which then queues behind collections
   rather than behind the builders.  The main fiber starts serving at
   once, so arrivals are on time. *)
let builders = 2
let segments = 8
let ballast_cells = function Full -> 5_000 | Smoke -> 500

let build_chain env (m : Ctx.mutator) ~cells =
  let c = env.ctx in
  Roots.protect m.Ctx.roots (Value.of_int 0) (fun keep ->
      for i = 1 to cells do
        Roots.set keep (Alloc.alloc_vector c m [| Value.of_int i; Roots.get keep |]);
        if i mod 100 = 0 then begin
          Roots.set keep (Promote.value c m (Roots.get keep));
          Sched.tick env.rt m
        end
      done;
      Promote.value c m (Roots.get keep))

let builder env ~cells ~serving (m : Ctx.mutator) _ =
  let c = env.ctx in
  let slots = Array.init segments (fun _ -> Roots.add m.Ctx.roots (Value.of_int 0)) in
  let next = ref 0 in
  let first = ref true in
  while !first || !serving do
    Roots.set slots.(!next) (build_chain env m ~cells);
    next := (!next + 1) mod segments;
    if !next = 0 then first := false
  done;
  let v = Alloc.alloc_vector c m (Array.map Roots.get slots) in
  Array.iter (Roots.remove m.Ctx.roots) slots;
  v

(* Walk every chain through whatever the cycles left behind: each must
   still sum to 1 + ... + cells. *)
let chains_ok env all ~cells =
  let c = env.ctx in
  let m = Ctx.mutator c 0 in
  if Concurrent_gc.active c then Concurrent_gc.finish c;
  let field v i = Ctx.get_field c m (Value.to_ptr (Ctx.resolve c m v)) i in
  let want = cells * (cells + 1) / 2 in
  let ok = ref true in
  for b = 0 to builders - 1 do
    let slots = field all b in
    for s = 0 to segments - 1 do
      let sum = ref 0 and cursor = ref (field slots s) in
      while Value.is_ptr !cursor do
        sum := !sum + Value.to_int (field !cursor 0);
        cursor := field !cursor 1
      done;
      if !sum <> want then ok := false
    done
  done;
  !ok

let ballast_serve ~mode ~name ~jobs =
  {
    name;
    serving = true;
    jobs = (function Full -> jobs | Smoke -> 1);
    shape =
      (fun size ->
        shape size ~n_vprocs:8
          ~params:
            {
              harness.Harness.Run_config.params with
              Params.local_heap_bytes = 32 * 1024;
              chunk_bytes = 8 * 1024;
              nursery_min_bytes = 4 * 1024;
              global_budget_per_vproc = 8 * 1024;
              global_gc_mode = mode;
              conc_parallel_slices = 2;
            }
          ());
    prepare =
      (fun size ~seed env ->
        let load = load size ~seed ~rate:rate_rps in
        let cells = ballast_cells size in
        let sum = ref nan in
        let all =
          Sched.run env.rt ~main:(fun m ->
              let serving = ref true in
              let futs =
                List.init builders (fun _ ->
                    Sched.spawn env.rt m ~env:[||] (builder env ~cells ~serving))
              in
              sum := serve env m load;
              serving := false;
              let heads =
                List.map (fun f -> Roots.add m.Ctx.roots (Sched.await env.rt m f)) futs
              in
              let v =
                Alloc.alloc_vector env.ctx m (Array.of_list (List.map Roots.get heads))
              in
              List.iter (Roots.remove m.Ctx.roots) heads;
              v)
        in
        fun () ->
          let v = server_verdict env load !sum in
          let ok = chains_ok env all ~cells in
          { attempted = v.attempted + 1; failed = v.failed + if ok then 0 else 1 });
  }

(* Stop-the-world global cycles land mid-service. *)
let ballast_serve_stw = ballast_serve ~mode:Params.Stw ~name:"ballast-serve-stw" ~jobs:10

(* The concurrent collector with two parallel evacuation slices: the
   same layer used the opposite way.  Its request latencies vary more
   from one input to the next, hence more jobs. *)
let ballast_serve_conc =
  ballast_serve ~mode:Params.Concurrent ~name:"ballast-serve-conc" ~jobs:15

let all =
  [ quicksort_local; smvm_interleaved; server_sweep; ballast_serve_stw;
    ballast_serve_conc ]

let find name = List.find_opt (fun w -> w.name = name) all
