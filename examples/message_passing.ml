(* CML-style message passing (paper §2.1, §3.1): explicit threads talk
   over synchronous channels.  Sending a message promotes it to the
   global heap — the sharing point that keeps the no-pointers-between-
   local-heaps invariant without write barriers — and a blocked receiver
   is represented by an object proxy (footnote 1).

   A four-stage pipeline: generator -> squarer -> filter -> sink.

   Run:  dune exec examples/message_passing.exe  *)

open Heap
open Manticore_gc
open Runtime

let n_items = 40

let () =
  let ctx =
    Ctx.create ~machine:Numa.Machines.amd48 ~n_vprocs:8
      ~policy:Sim_mem.Page_policy.Local ()
  in
  let rt = Sched.create ctx in
  let _descs = Pml.Pval.register ctx in
  let result =
    Sched.run rt ~main:(fun m ->
        let c1 = Sched.new_channel rt m in
        let c2 = Sched.new_channel rt m in
        let c3 = Sched.new_channel rt m in
        (* Stage 1: generate pairs (i, i+1) as heap values. *)
        let _gen =
          Sched.spawn rt m ~env:[||] (fun m _ ->
              for i = 1 to n_items do
                let msg =
                  Pml.Pval.tuple ctx m [| Value.of_int i; Value.of_int (i + 1) |]
                in
                Sched.send rt m c1 msg
              done;
              Value.unit)
        in
        (* Stage 2: square the first component. *)
        let _sq =
          Sched.spawn rt m ~env:[||] (fun m _ ->
              for _ = 1 to n_items do
                let msg = Sched.recv rt m c1 in
                let a = Value.to_int (Pml.Pval.field ctx m msg 0) in
                let b = Value.to_int (Pml.Pval.field ctx m msg 1) in
                let out =
                  Pml.Pval.tuple ctx m [| Value.of_int (a * a); Value.of_int b |]
                in
                Sched.send rt m c2 out
              done;
              Value.unit)
        in
        (* Stage 3: keep even squares only. *)
        let _filter =
          Sched.spawn rt m ~env:[||] (fun m _ ->
              for _ = 1 to n_items do
                let msg = Sched.recv rt m c2 in
                let a = Value.to_int (Pml.Pval.field ctx m msg 0) in
                if a mod 2 = 0 then
                  Sched.send rt m c3 (Pml.Pval.tuple ctx m [| Value.of_int a |])
              done;
              (* Sentinel to let the sink stop. *)
              Sched.send rt m c3 (Pml.Pval.tuple ctx m [| Value.of_int (-1) |]);
              Value.unit)
        in
        (* Sink runs in the main fiber. *)
        let total = ref 0 in
        let stop = ref false in
        while not !stop do
          let msg = Sched.recv rt m c3 in
          let a = Value.to_int (Pml.Pval.field ctx m msg 0) in
          if a < 0 then stop := true else total := !total + a
        done;
        Value.of_int !total)
  in
  let expect =
    List.fold_left
      (fun acc i -> if i * i mod 2 = 0 then acc + (i * i) else acc)
      0
      (List.init n_items (fun i -> i + 1))
  in
  Printf.printf "pipeline sum of even squares: %d (expected %d)\n"
    (Value.to_int result) expect;
  let s = Sched.stats rt in
  Printf.printf "channel sends: %d; messages promoted by senders\n" s.Sched.sends;
  let gc = Ctx.gc_totals ctx in
  Printf.printf "promotions: %d (%d bytes crossed into the global heap)\n"
    gc.Gc_stats.promote_count gc.Gc_stats.promoted_bytes;
  Printf.printf "simulated time: %.1f us\n" (Sched.elapsed_ns rt /. 1e3)
