open Heap
open Manticore_gc
open Runtime

(* A latency-SLO server: [n_sessions] long-lived session fibers each own
   a mixed-lifetime object graph (per-request churn that dies young, a
   rolling live window that ages into the old generation, and rooted
   session state that survives until shutdown).  Requests arrive
   open-loop — a dispatcher walks a precomputed Poisson arrival plan and
   spawns one fiber per request without waiting for completions, so a
   slow server builds a backlog instead of slowing the generator down.
   Request handling is CML all the way: the request fiber [send]s on the
   session's request channel and [recv]s the response; the session
   [sync]s over its request and control channels.

   Determinism: the arrival plan depends only on [load.seed], each
   response depends only on the request's content, and both the request
   sum and the session state are commutative aggregates — so the final
   checksum and the request count are identical across steal policies
   and promotion ablations, even though per-request latencies differ. *)

type load = {
  rate_rps : float;
  n_requests : int;
  n_sessions : int;
  seed : int;
}

let default_load ~scale =
  {
    rate_rps = 100_000.;
    n_requests = max 16 (int_of_float (96. *. scale));
    n_sessions = max 2 (int_of_float (4. *. scale));
    seed = 0xC0FFEE;
  }

(* Request [id]'s payload and the response it must produce.  Pure
   functions of the id, so [expected_load] can fold them analytically. *)
let payload_ints id = [ id; (id * 7) mod 97; (id * 13) mod 89 ]
let response_of id = List.fold_left ( + ) 0 (payload_ints id)

let arrival_plan load =
  (* Exponential inter-arrivals (a Poisson process) from a dedicated
     generator seeded only by the load — never by the scheduler seed, so
     the same load always produces the same plan under any policy. *)
  let st = Random.State.make [| load.seed; load.n_requests |] in
  let iat_ns = 1e9 /. load.rate_rps in
  let t = ref 0. in
  Array.init load.n_requests (fun _ ->
      let u = 1. -. Random.State.float st 1. in
      t := !t +. (-.Float.log u *. iat_ns);
      !t)

let session_churn = 24 (* short-lived cells allocated per request *)
let session_window = 8 (* requests before the live window is dropped *)
let session_cycles = 6_000. (* per-request compute *)

let session rt c (m : Ctx.mutator) ~req_ch ~ctl_ch ~resp_ch =
  let live = Roots.add m.Ctx.roots Pml.Pval.nil in
  let acc = ref 0 in
  let handled = ref 0 in
  let running = ref true in
  while !running do
    Sched.tick rt m;
    let arm, msg =
      Sched.sync rt m [ Sched.Recv_evt req_ch; Sched.Recv_evt ctl_ch ]
    in
    if arm = 1 then running := false
    else begin
      let xs = Pml.Pval.ints_of_list c m msg in
      let id = match xs with id :: _ -> id | [] -> 0 in
      (* Short-lived churn: allocated and dropped within the request. *)
      for i = 1 to session_churn do
        ignore (Pml.Pval.cons c m (Value.of_int i) Pml.Pval.nil)
      done;
      (* Medium-lived window: survives across requests, dies in bulk. *)
      Roots.set live (Pml.Pval.cons c m (Value.of_int id) (Roots.get live));
      incr handled;
      if !handled mod session_window = 0 then Roots.set live Pml.Pval.nil;
      Ctx.charge_work c m ~cycles:session_cycles;
      acc := !acc + List.fold_left ( + ) 0 xs;
      let resp =
        Pml.Pval.list_of_ints c m [ List.fold_left ( + ) 0 xs ]
      in
      Sched.send rt m resp_ch resp
    end
  done;
  Roots.remove m.Ctx.roots live;
  Value.of_int !acc

let run_load rt (m : Ctx.mutator) load =
  let c = Sched.ctx rt in
  let plan = arrival_plan load in
  let req_chs = Array.init load.n_sessions (fun _ -> Sched.new_channel rt m) in
  let ctl_chs = Array.init load.n_sessions (fun _ -> Sched.new_channel rt m) in
  let resp_chs = Array.init load.n_sessions (fun _ -> Sched.new_channel rt m) in
  let sessions =
    Array.init load.n_sessions (fun s ->
        Sched.spawn rt m ~env:[||] (fun m _ ->
            session rt c m ~req_ch:req_chs.(s) ~ctl_ch:ctl_chs.(s)
              ~resp_ch:resp_chs.(s)))
  in
  (* Open-loop dispatch: advance to each scheduled arrival and spawn the
     request fiber without awaiting it — completions never gate the
     generator, so overload shows up as latency, not as a lower rate. *)
  let requests =
    Array.init load.n_requests (fun i ->
        let a = plan.(i) in
        if m.Ctx.now_ns < a then Ctx.charge_ns m (a -. m.Ctx.now_ns);
        Sched.tick rt m;
        let s = i mod load.n_sessions in
        let msg = Pml.Pval.list_of_ints c m (payload_ints i) in
        Sched.spawn rt m ~env:[| msg |] (fun m env ->
            Sched.send rt m req_chs.(s) env.(0);
            let resp = Sched.recv rt m resp_chs.(s) in
            let v =
              List.fold_left ( + ) 0 (Pml.Pval.ints_of_list c m resp)
            in
            Ctx.request_done c m ~latency_ns:(m.Ctx.now_ns -. a);
            Value.of_int v))
  in
  let resp_sum =
    Array.fold_left
      (fun acc f -> acc + Value.to_int (Sched.await rt m f))
      0 requests
  in
  (* Graceful shutdown: one control token per session, then reap. *)
  Array.iter (fun ch -> Sched.send rt m ch (Value.of_int 0)) ctl_chs;
  let state_sum =
    Array.fold_left
      (fun acc f -> acc + Value.to_int (Sched.await rt m f))
      0 sessions
  in
  Array.iter (fun ch -> Sched.close_channel rt ch) req_chs;
  Array.iter (fun ch -> Sched.close_channel rt ch) ctl_chs;
  Array.iter (fun ch -> Sched.close_channel rt ch) resp_chs;
  float_of_int (resp_sum + state_sum)

let expected_load load =
  (* Responses and session state are the same commutative sum: each
     request contributes its payload total to both. *)
  let total = ref 0 in
  for i = 0 to load.n_requests - 1 do
    total := !total + response_of i
  done;
  float_of_int (2 * !total)

let main rt _d (m : Ctx.mutator) ~scale =
  let c = Sched.ctx rt in
  Pml.Pval.box_float c m (run_load rt m (default_load ~scale))

let expected ~scale = expected_load (default_load ~scale)
