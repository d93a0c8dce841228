(* Quickstart: run a parallel computation on a simulated 48-core NUMA
   machine with the Manticore-style memory system.

   Build and run:  dune exec examples/quickstart.exe  *)

open Heap
open Manticore_gc
open Runtime

let () =
  (* 1. Pick a machine (the paper's AMD box) and build the heap context:
     one local heap per vproc, a chunked global heap, and the NUMA cost
     model.  Page placement is "local" — the paper's default. *)
  let ctx =
    Ctx.create ~machine:Numa.Machines.amd48 ~n_vprocs:16
      ~policy:Sim_mem.Page_policy.Local ()
  in
  let rt = Sched.create ctx in
  let d = Pml.Pval.register ctx in

  (* 2. Run a fiber.  Everything it allocates lives in the simulated
     heap and is managed by the minor/major/global collectors. *)
  let result =
    Sched.run rt ~main:(fun m ->
        (* A parallel array of 10,000 squares, built by parallel
           tabulate: work is pushed to the vproc-local deque and idle
           vprocs steal it. *)
        let squares =
          Pml.Par.tabulate rt m d ~env:[||] ~n:10_000 ~grain:64
            ~f:(fun _m _env i -> Value.of_int (i * i))
        in
        (* Reduce in parallel too: sum of squares. *)
        Roots.protect m.Ctx.roots squares (fun cell ->
            let total =
              Pml.Par.reduce_f rt m
                ~env:[| Roots.get cell |]
                ~lo:0 ~hi:10_000 ~grain:256
                ~leaf:(fun m env lo hi ->
                  let arr = env.(0) in
                  let s = ref 0. in
                  for i = lo to hi - 1 do
                    s :=
                      !s
                      +. float_of_int
                           (Value.to_int (Pml.Pval.arr_get ctx m arr i))
                  done;
                  !s)
                ( +. )
            in
            Pml.Pval.box_float ctx m total))
  in

  (* 3. Read the result and the run's statistics. *)
  let total = Pml.Pval.unbox_float ctx (Ctx.mutator ctx 0) result in
  Printf.printf "sum of squares 0..9999 = %.0f (expected %.0f)\n" total
    (let n = 10_000. in n *. (n -. 1.) *. ((2. *. n) -. 1.) /. 6.);
  Printf.printf "simulated time: %.3f ms on 16 vprocs\n"
    (Sched.elapsed_ns rt /. 1e6);
  let s = Sched.stats rt in
  Printf.printf "scheduler: %d spawns, %d steals, %d inline runs\n"
    s.Sched.spawns (Metrics.aggregate ctx.Ctx.metrics).Metrics.steal_successes
    s.Sched.inline_runs;
  Format.printf "collector: @[%a@]@." Gc_stats.pp (Ctx.gc_totals ctx);
  match Ctx.check_invariants ctx with
  | Ok summary ->
      Printf.printf "heap invariants hold: %d live objects (%d local, %d global)\n"
        summary.Invariants.objects summary.Invariants.local_objects
        summary.Invariants.global_objects
  | Error errs -> List.iter print_endline errs
