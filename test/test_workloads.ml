(* The paper's benchmarks: correctness against plain-OCaml oracles, and
   determinism across vproc counts and placement policies. *)

open Manticore_gc
open Runtime

let params =
  {
    Params.default with
    Params.capacity_bytes = 128 * 1024 * 1024;
    local_heap_bytes = 64 * 1024;
    chunk_bytes = 16 * 1024;
    nursery_min_bytes = 8 * 1024;
    global_budget_per_vproc = 256 * 1024;
  }

let run_workload ?(n_vprocs = 4) ?(policy = Sim_mem.Page_policy.Local)
    ?(machine = Numa.Machines.amd48) name ~scale =
  let spec =
    match Workloads.Registry.find name with
    | Some s -> s
    | None -> Alcotest.failf "unknown workload %s" name
  in
  let ctx = Ctx.create ~params ~machine ~n_vprocs ~policy () in
  let rt = Sched.create ctx in
  let v = Workloads.Registry.run spec rt ~scale in
  (match Ctx.check_invariants ctx with
  | Ok _ -> ()
  | Error errs -> Alcotest.failf "invariants: %s" (String.concat "; " errs));
  (v, rt)

(* Registry.run already validates each checksum against its oracle, so
   these tests assert successful completion plus cross-configuration
   determinism. *)

let test_correct name scale () = ignore (run_workload name ~scale)

let test_deterministic_across_vprocs name scale () =
  let v1, _ = run_workload ~n_vprocs:1 name ~scale in
  let v8, _ = run_workload ~n_vprocs:8 name ~scale in
  Alcotest.(check (float 1e-9)) "vproc-count independent" v1 v8

let test_deterministic_across_policies name scale () =
  let vl, _ = run_workload ~policy:Sim_mem.Page_policy.Local name ~scale in
  let vi, _ = run_workload ~policy:Sim_mem.Page_policy.Interleaved name ~scale in
  let vs, _ = run_workload ~policy:(Sim_mem.Page_policy.Single_node 0) name ~scale in
  Alcotest.(check (float 1e-9)) "interleaved same result" vl vi;
  Alcotest.(check (float 1e-9)) "single-node same result" vl vs

let test_parallel_speedup name scale () =
  (* More vprocs must reduce simulated time substantially. *)
  let _, rt1 = run_workload ~n_vprocs:1 name ~scale in
  let _, rt8 = run_workload ~n_vprocs:8 name ~scale in
  let t1 = Sched.elapsed_ns rt1 and t8 = Sched.elapsed_ns rt8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 vprocs faster (t1=%.0f t8=%.0f)" t1 t8)
    true
    (t8 < t1 /. 1.5)

let gc_params =
  (* A tight chunk budget so the run must trigger global collections. *)
  { params with Params.global_budget_per_vproc = 48 * 1024 }

let test_gc_exercised () =
  (* Quicksort under a tight budget must trigger minor, major, global
     collections and promotions — the full §3 machinery. *)
  let spec = Option.get (Workloads.Registry.find "quicksort") in
  let ctx =
    Ctx.create ~params:gc_params ~machine:Numa.Machines.amd48 ~n_vprocs:4
      ~policy:Sim_mem.Page_policy.Local ()
  in
  let rt = Sched.create ctx in
  ignore (Workloads.Registry.run spec rt ~scale:0.25);
  let c = Sched.ctx rt in
  let agg = Ctx.gc_totals c in
  Alcotest.(check bool) "minors" true (agg.Gc_stats.minor_count > 0);
  Alcotest.(check bool) "majors" true (agg.Gc_stats.major_count > 0);
  Alcotest.(check bool) "promotions" true (agg.Gc_stats.promote_count > 0);
  Alcotest.(check bool) "globals" true (c.Ctx.stats.Gc_stats.global_count > 0);
  Alcotest.(check int) "run total counts the global collections"
    c.Ctx.stats.Gc_stats.global_count agg.Gc_stats.global_count

let test_barnes_hut_physics () =
  (* Momentum-free sanity: the checksum stays within the box bound and
     the simulation is deterministic. *)
  let v1, _ = run_workload "barnes-hut" ~scale:0.1 in
  let v2, _ = run_workload ~n_vprocs:8 "barnes-hut" ~scale:0.1 in
  Alcotest.(check (float 1e-9)) "deterministic" v1 v2;
  Alcotest.(check bool) "plausible" true
    (Workloads.Barnes_hut.plausible ~scale:0.1 v1)

let test_plummer_properties () =
  let ps = Workloads.Plummer.generate ~n:500 ~seed:7 in
  Alcotest.(check int) "count" 500 (Array.length ps);
  let total_mass = Array.fold_left (fun a p -> a +. p.Workloads.Plummer.mass) 0. ps in
  Alcotest.(check (float 1e-9)) "unit mass" 1.0 total_mass;
  Array.iter
    (fun p ->
      Alcotest.(check bool) "in box" true
        (Float.abs p.Workloads.Plummer.x < 1. && Float.abs p.Workloads.Plummer.y < 1.))
    ps;
  (* Plummer: the core is denser than the halo. *)
  let inner =
    Array.fold_left
      (fun a p ->
        if
          (p.Workloads.Plummer.x *. p.Workloads.Plummer.x)
          +. (p.Workloads.Plummer.y *. p.Workloads.Plummer.y) < 0.25
        then a + 1
        else a)
      0 ps
  in
  Alcotest.(check bool) "centrally concentrated" true (inner > 250)

let quick name f = Alcotest.test_case name `Quick f

let suite =
  ( "workloads",
    [
      quick "dmm correct" (test_correct "dmm" 0.25);
      quick "raytracer correct" (test_correct "raytracer" 0.25);
      quick "quicksort correct" (test_correct "quicksort" 0.1);
      quick "smvm correct" (test_correct "smvm" 0.25);
      quick "synthetic correct" (test_correct "synthetic" 0.25);
      quick "barnes-hut runs" (test_correct "barnes-hut" 0.1);
      quick "nqueens correct" (test_correct "nqueens" 0.5);
      quick "mandelbrot correct" (test_correct "mandelbrot" 0.5);
      quick "treeadd correct" (test_correct "treeadd" 0.5);
      quick "nqueens deterministic" (test_deterministic_across_vprocs "nqueens" 0.5);
      quick "treeadd deterministic" (test_deterministic_across_vprocs "treeadd" 0.5);
      quick "nqueens speeds up" (test_parallel_speedup "nqueens" 1.5);
      quick "dmm deterministic" (test_deterministic_across_vprocs "dmm" 0.25);
      quick "quicksort deterministic"
        (test_deterministic_across_vprocs "quicksort" 0.1);
      quick "smvm deterministic" (test_deterministic_across_vprocs "smvm" 0.25);
      quick "smvm policy-independent results"
        (test_deterministic_across_policies "smvm" 0.25);
      quick "quicksort policy-independent results"
        (test_deterministic_across_policies "quicksort" 0.05);
      quick "quicksort speeds up" (test_parallel_speedup "quicksort" 0.1);
      quick "smvm speeds up" (test_parallel_speedup "smvm" 0.25);
      quick "barnes-hut speeds up" (test_parallel_speedup "barnes-hut" 0.1);
      quick "all collectors exercised" test_gc_exercised;
      quick "barnes-hut physics sanity" test_barnes_hut_physics;
      quick "plummer distribution" test_plummer_properties;
    ] )
