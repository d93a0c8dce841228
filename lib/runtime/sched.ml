open Heap
open Manticore_gc

type stats = {
  mutable spawns : int;
  mutable steals : int;
  mutable inline_runs : int;
  mutable fibers_completed : int;
  mutable sends : int;
  mutable yields : int;
  mutable steal_promoted_bytes : int;
}

type work_item = {
  wid : int;
  fn : Ctx.mutator -> Value.t array -> Value.t;
  mutable env : Roots.cell array;
  mutable env_owner : int; (* vproc whose root set holds the env cells *)
  pushed_ns : float;
  fut : future;
  mutable on_queue : int option; (* vproc whose deque currently holds it *)
}

and future = {
  fid : int;
  mutable fstate : fstate;
  mutable waiters : waiter list;
  mutable done_ns : float;
}

and fstate =
  | Queued of work_item
  | Running
  | Done of {
      owner : int;
      cell : Roots.cell;
      err : (exn * Printexc.raw_backtrace) option;
    }

and waiter = { w_vproc : int; w_k : (Value.t, unit) Effect.Deep.continuation }

type task = { ready_ns : float; go : unit -> unit }

type vproc = {
  v_id : int;
  mut : Ctx.mutator;
  deque : work_item Deque.t;
  runnable : task Queue.t;
  mutable wbuf : Promote.batch option;
      (* open promotion write buffer: runs of promotions within one
         scheduler turn share a single batched cycle *)
}

exception Closed

(* Blocked channel partners.  A plain send/recv uses a fresh claim ref;
   the arms of one [sync] choice share a claim ref, so committing any arm
   atomically invalidates its siblings (the two-phase commit of Parallel
   CML, simplified by the cooperative scheduler).  The fail path releases
   the entry's rooted resources and discontinues the parked fiber — it is
   how [close_channel] tears down a channel with fibers still blocked. *)
type reader = {
  r_vproc : int;
  r_proxy : Roots.cell; (* in the receiver's proxy list *)
  r_claim : bool ref;
  r_resume : Value.t -> unit; (* deliver the message, reschedule the fiber *)
  r_fail : exn -> unit; (* release resources, discontinue the fiber *)
}

type writer = {
  s_vproc : int;
  s_val : Roots.cell; (* promoted message, rooted with the runtime *)
  s_claim : bool ref;
  s_resume : unit -> unit;
  s_fail : exn -> unit;
}

type chan = {
  ch_id : int;
  ch_obj : Roots.cell; (* the global-heap channel object *)
  readers : reader Queue.t;
  writers : writer Queue.t;
  mutable ch_open : bool;
}

type steal_policy = Random_victim | Near_first

type t = {
  c : Ctx.t;
  vprocs : vproc array;
  quantum_ns : float;
  eager_promotion : bool;
  batch_promotions : bool;
  steal_policy : steal_policy;
  rng : Random.State.t;
  st : stats;
  mutable next_wid : int;
  mutable next_fid : int;
  mutable next_chid : int;
  mutable channels : chan list; (* open channels, unrooted on close *)
  mutable turn_start_ns : float;
  mutable finished_ns : float;
}

type arm =
  | Arm_send of chan * Value.t (* message already promoted *)
  | Arm_recv of chan * Roots.cell (* pre-built proxy for blocking *)

type _ Effect.t +=
  | Ef_yield : unit Effect.t
  | Ef_await : future -> Value.t Effect.t
  | Ef_send : chan * Value.t -> unit Effect.t
  | Ef_recv : chan * Roots.cell -> Value.t Effect.t
  | Ef_sync : arm list -> (int * Value.t) Effect.t

let ctx t = t.c
let stats t = t.st
let n_vprocs t = Array.length t.vprocs
let elapsed_ns t = t.finished_ns

let create ?(quantum_ns = 50_000.) ?(eager_promotion = false)
    ?(batch_promotions = true) ?(steal_policy = Random_victim)
    ?(seed = 0x5eed) c =
  let t =
    {
      c;
      eager_promotion;
      batch_promotions;
      steal_policy;
      vprocs =
        Array.init (Ctx.n_vprocs c) (fun i ->
            {
              v_id = i;
              mut = Ctx.mutator c i;
              deque = Deque.create ();
              runnable = Queue.create ();
              wbuf = None;
            });
      quantum_ns;
      rng = Random.State.make [| seed |];
      st =
        {
          spawns = 0;
          steals = 0;
          inline_runs = 0;
          fibers_completed = 0;
          sends = 0;
          yields = 0;
          steal_promoted_bytes = 0;
        };
      next_wid = 0;
      next_fid = 0;
      next_chid = 0;
      channels = [];
      turn_start_ns = 0.;
      finished_ns = 0.;
    }
  in
  (* The paper's safe-point trick: a pending global collection zeroes the
     allocation limit; here the allocating fiber yields and the scheduler
     runs the collection between turns, when every fiber is parked at a
     rooted suspension point. *)
  Ctx.set_safe_point_hook c (fun _ _ -> Effect.perform Ef_yield);
  t

(* Park/resume tracing plus a state dump at deadlock, for debugging
   lost-wakeup bugs: SCHED_DEADLOCK_DEBUG=1 prints every channel
   park/commit/fail, future completion and collector step to stderr. *)
let deadlock_debug = Sys.getenv_opt "SCHED_DEADLOCK_DEBUG" <> None

let dbg fmt =
  if deadlock_debug then Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr (fmt ^^ "\n%!")

let enqueue_task (v : vproc) ~ready_ns go = Queue.add { ready_ns; go } v.runnable

(* Resume a parked fiber with a heap value.  The value must ride in a
   root cell, not in the closure: the task may sit in the runnable queue
   across collections, and a closure-captured Value.t is invisible to
   the collector. *)
let enqueue_resume (vp : vproc) ~ready_ns k v =
  let cell = Roots.add vp.mut.Ctx.roots v in
  enqueue_task vp ~ready_ns (fun () ->
      let v = Roots.get cell in
      Roots.remove vp.mut.Ctx.roots cell;
      Effect.Deep.continue k v)

(* Pop entries until an unclaimed one appears; claimed entries are the
   dead siblings of already-committed choices and are dropped (their
   proxies are unregistered by the committing path). *)
let rec take_unclaimed q claimed_of =
  match Queue.take_opt q with
  | None -> None
  | Some e -> if !(claimed_of e) then take_unclaimed q claimed_of else Some e

let take_reader ch = take_unclaimed ch.readers (fun r -> r.r_claim)
let take_writer ch = take_unclaimed ch.writers (fun w -> w.s_claim)

(* ------------------------------------------------------------------ *)
(* The promotion write buffer                                          *)
(* ------------------------------------------------------------------ *)

(* Publish [v]'s open write buffer (one batched promotion cycle). *)
let flush_wbuf (v : vproc) =
  match v.wbuf with
  | None -> ()
  | Some b ->
      v.wbuf <- None;
      Promote.batch_end b

(* Turn boundary: every buffer must be published before the scheduler
   picks the next move (and before any stop-the-world collection). *)
let flush_wbufs t = Array.iter flush_wbuf t.vprocs

(* Promote one value on [v], through its open write buffer when
   batching is enabled — consecutive promotions within one scheduler
   turn (runs of [send]s, future hand-offs) then share a single
   cycle.  The buffer is opened lazily at the first promotion of the
   turn and published by {!flush_wbufs} when the turn ends. *)
let wb_promote t (v : vproc) ~reason value =
  if not t.batch_promotions then Promote.value ~reason t.c v.mut value
  else begin
    let b =
      match v.wbuf with
      | Some b -> b
      | None ->
          let b = Promote.batch_begin ~reason t.c v.mut in
          v.wbuf <- Some b;
          b
    in
    Promote.batch_add b value
  end

(* Hand a Done future's value to [to_vproc], promoting it out of the
   owner's local heap first if it must cross vprocs.  The promotion is
   the owner's work. *)
let share t ~to_vproc (f : future) =
  match f.fstate with
  | Done { err = Some (e, bt); _ } -> Printexc.raise_with_backtrace e bt
  | Done { owner; cell; err = None } ->
      let v = Roots.get cell in
      let v =
        if to_vproc <> owner && Promote.is_local t.c t.vprocs.(owner).mut v
        then begin
          let g =
            wb_promote t t.vprocs.(owner) ~reason:Obs.Gc_cause.Pval_sync v
          in
          Roots.set cell g;
          g
        end
        else v
      in
      (* OCaml-side hand-off: the recipient acquires [v] without a heap
         read, so taint it explicitly for the dirty-only ratify. *)
      Ctx.conc_taint t.c t.vprocs.(to_vproc).mut v;
      v
  | _ -> invalid_arg "Sched.share: future not done"

let wake_waiters t (f : future) now =
  let ws = List.rev f.waiters in
  f.waiters <- [];
  List.iter
    (fun w ->
      match f.fstate with
      | Done { err = Some (e, bt); _ } ->
          enqueue_task t.vprocs.(w.w_vproc) ~ready_ns:now (fun () ->
              Effect.Deep.discontinue_with_backtrace w.w_k e bt)
      | Done _ ->
          let v = share t ~to_vproc:w.w_vproc f in
          enqueue_resume t.vprocs.(w.w_vproc) ~ready_ns:now w.w_k v
      | _ -> assert false)
    ws

let complete t (v : vproc) (f : future) result =
  let cell, err =
    match result with
    | Ok value -> (Roots.add v.mut.Ctx.roots value, None)
    | Error e -> (Roots.add v.mut.Ctx.roots Value.unit, Some e)
  in
  f.fstate <- Done { owner = v.v_id; cell; err };
  f.done_ns <- v.mut.Ctx.now_ns;
  t.st.fibers_completed <- t.st.fibers_completed + 1;
  dbg "v%d complete f%d (err=%b, %d waiters)" v.v_id f.fid (err <> None)
    (List.length f.waiters);
  wake_waiters t f v.mut.Ctx.now_ns

(* Claim a queued item's environment for executor [v], promoting it if it
   crosses vprocs (lazy promotion at the steal, charged to the victim).
   The env cells of one steal are a natural write-buffer batch: all of
   them are published in a single promotion cycle. *)
let claim_env t (v : vproc) (item : work_item) =
  if item.env_owner <> v.v_id then begin
    let victim = t.vprocs.(item.env_owner) in
    let before = victim.mut.Ctx.stats.Gc_stats.promoted_bytes in
    let vals =
      Array.map (fun c -> Ctx.resolve t.c victim.mut (Roots.get c)) item.env
    in
    let moved =
      if t.batch_promotions then
        Promote.batch ~reason:Obs.Gc_cause.Steal t.c victim.mut vals
      else
        Array.map
          (fun value -> Promote.value ~reason:Obs.Gc_cause.Steal t.c victim.mut value)
          vals
    in
    t.st.steal_promoted_bytes <-
      t.st.steal_promoted_bytes
      + (victim.mut.Ctx.stats.Gc_stats.promoted_bytes - before);
    let cells =
      Array.mapi
        (fun i c ->
          Roots.remove victim.mut.Ctx.roots c;
          Roots.add v.mut.Ctx.roots moved.(i))
        item.env
    in
    item.env <- cells;
    item.env_owner <- v.v_id;
    (* The thief pays the handshake: a couple of remote line transfers. *)
    let topo = Numa.Cost_model.topology t.c.Ctx.cost in
    Ctx.charge_ns v.mut
      (4. *. topo.Numa.Topology.latency.(v.mut.Ctx.node).(victim.mut.Ctx.node))
  end

let take_env t (v : vproc) (item : work_item) =
  (* Resolve forwarding: a cell may alias a value another path promoted. *)
  let vals = Array.map (fun c -> Ctx.resolve t.c v.mut (Roots.get c)) item.env in
  Array.iter (fun c -> Roots.remove v.mut.Ctx.roots c) item.env;
  item.env <- [||];
  vals

(* Resume a parked fiber with an (arm index, value) pair; the value rides
   in a root cell like in {!enqueue_resume}. *)
let enqueue_resume_pair (vp : vproc) ~ready_ns k i v =
  let cell = Roots.add vp.mut.Ctx.roots v in
  enqueue_task vp ~ready_ns (fun () ->
      let v = Roots.get cell in
      Roots.remove vp.mut.Ctx.roots cell;
      Effect.Deep.continue k (i, v))

(* Deliver [gmsg] to a blocked reader: claim its proxy (a remote store
   into the global heap), mark the choice committed, reschedule it.  The
   proxy cell must be resolved: a concurrent global collection may have
   evacuated the proxy object after the reader parked, and writing the
   state into the stale from-space copy would lose the update. *)
let commit_reader t (v : vproc) (r : reader) gmsg =
  r.r_claim := true;
  let paddr = Value.to_ptr (Ctx.resolve t.c v.mut (Roots.get r.r_proxy)) in
  Ctx.touch t.c v.mut ~addr:paddr ~bytes:16;
  Proxy.set_state t.c.Ctx.store paddr 1;
  Roots.remove t.vprocs.(r.r_vproc).mut.Ctx.proxies r.r_proxy;
  (* The message reaches the reader's vproc OCaml-side (no heap read):
     taint it explicitly for the dirty-only ratify. *)
  Ctx.conc_taint t.c t.vprocs.(r.r_vproc).mut gmsg;
  r.r_resume gmsg

(* Take a blocked writer's message and reschedule it. *)
let commit_writer t (v : vproc) (w : writer) =
  w.s_claim := true;
  let gmsg = Roots.get w.s_val in
  Roots.remove t.c.Ctx.global_roots w.s_val;
  (* Same OCaml-side hand-off as [commit_reader], toward [v]. *)
  Ctx.conc_taint t.c v.mut gmsg;
  w.s_resume ();
  gmsg

(* When one arm of a parked choice commits, every sibling arm's resources
   die: the recv arms' pre-built proxies and the send arms' rooted
   messages.  Each cleanup tracks whether its resource was already
   consumed (by the commit path, or by an earlier release), so releasing
   is idempotent and any other root-accounting error propagates instead
   of being swallowed. *)
type cleanup = { mutable consumed : bool; undo : unit -> unit }

let release_choice (cleanups : cleanup list) =
  List.iter
    (fun c ->
      if not c.consumed then begin
        c.consumed <- true;
        c.undo ()
      end)
    cleanups

(* Execute a work item to completion (modulo suspensions) on vproc [v]
   under a fresh handler. *)
let start_fiber t (v : vproc) (item : work_item) =
  (match item.fut.fstate with
  | Queued _ -> ()
  | _ -> failwith "Sched.start_fiber: work item executed twice");
  item.fut.fstate <- Running;
  item.on_queue <- None;
  claim_env t v item;
  let env = take_env t v item in
  let effc : type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option
      = function
    | Ef_yield ->
        Some
          (fun k ->
            t.st.yields <- t.st.yields + 1;
            enqueue_task v ~ready_ns:v.mut.Ctx.now_ns (fun () ->
                Effect.Deep.continue k ()))
    | Ef_await f ->
        Some
          (fun k ->
            match f.fstate with
            | Done _ -> (
                match share t ~to_vproc:v.v_id f with
                | value -> Effect.Deep.continue k value
                | exception e -> Effect.Deep.discontinue k e)
            | Running | Queued _ ->
                (* A queued item stays on its deque for an idle vproc to
                   claim; this fiber sleeps until the completion wakes
                   it. *)
                dbg "v%d await f%d: park" v.v_id f.fid;
                f.waiters <- { w_vproc = v.v_id; w_k = k } :: f.waiters)
    | Ef_send (ch, gmsg) ->
        Some
          (fun k ->
            (* [send] checked [ch_open] before its tick, but the channel
               can be closed while this fiber is parked at that safe
               point (e.g. by the peer, with a concurrent global cycle
               yielding at every allocation).  Parking on a closed
               channel would lose the fiber — [close_channel]'s fail
               sweep has already run — so re-check at the park site and
               fail exactly as that sweep would have. *)
            if not ch.ch_open then
              Effect.Deep.discontinue k Closed
            else begin
            t.st.sends <- t.st.sends + 1;
            match take_reader ch with
            | Some r ->
                dbg "v%d send ch%d: commit to reader@v%d" v.v_id ch.ch_id
                  r.r_vproc;
                commit_reader t v r gmsg;
                Effect.Deep.continue k ()
            | None ->
                dbg "v%d send ch%d: park" v.v_id ch.ch_id;
                let cell = Roots.add t.c.Ctx.global_roots gmsg in
                Queue.add
                  {
                    s_vproc = v.v_id;
                    s_val = cell;
                    s_claim = ref false;
                    s_resume =
                      (fun () ->
                        dbg "v%d send ch%d: resumed" v.v_id ch.ch_id;
                        enqueue_task v ~ready_ns:v.mut.Ctx.now_ns (fun () ->
                            Effect.Deep.continue k ()));
                    s_fail =
                      (fun e ->
                        dbg "v%d send ch%d: failed" v.v_id ch.ch_id;
                        Roots.remove t.c.Ctx.global_roots cell;
                        enqueue_task v ~ready_ns:v.mut.Ctx.now_ns (fun () ->
                            Effect.Deep.discontinue k e));
                  }
                  ch.writers
            end)
    | Ef_recv (ch, proxy_cell) ->
        Some
          (fun k ->
            (* Same closed-while-yielded race as [Ef_send]; the parked
               proxy was pre-built by [recv], so release it like
               [r_fail] would. *)
            if not ch.ch_open then begin
              Roots.remove v.mut.Ctx.proxies proxy_cell;
              Effect.Deep.discontinue k Closed
            end
            else begin
            match take_writer ch with
            | Some w ->
                dbg "v%d recv ch%d: commit from writer@v%d" v.v_id ch.ch_id
                  w.s_vproc;
                let gmsg = commit_writer t v w in
                (* The pre-made proxy is not needed: drop it. *)
                Roots.remove v.mut.Ctx.proxies proxy_cell;
                Effect.Deep.continue k gmsg
            | None ->
                dbg "v%d recv ch%d: park" v.v_id ch.ch_id;
                Queue.add
                  {
                    r_vproc = v.v_id;
                    r_proxy = proxy_cell;
                    r_claim = ref false;
                    r_resume =
                      (fun msg ->
                        dbg "v%d recv ch%d: resumed" v.v_id ch.ch_id;
                        enqueue_resume v ~ready_ns:v.mut.Ctx.now_ns k msg);
                    r_fail =
                      (fun e ->
                        dbg "v%d recv ch%d: failed" v.v_id ch.ch_id;
                        Roots.remove v.mut.Ctx.proxies proxy_cell;
                        enqueue_task v ~ready_ns:v.mut.Ctx.now_ns (fun () ->
                            Effect.Deep.discontinue k e));
                  }
                  ch.readers
            end)
    | Ef_sync arms ->
        Some
          (fun k ->
            (* An arm's channel closed while this fiber was parked at a
               safe point between [sync]'s setup and here: fail the whole
               choice with [Closed], as [close_channel] fails a parked
               choice holding an arm on the closing channel.  The recv
               arms' pre-built proxies are the only live resources (send
               messages are rooted only once parked). *)
            if
              List.exists
                (function
                  | Arm_send (ch, _) | Arm_recv (ch, _) -> not ch.ch_open)
                arms
            then begin
              List.iter
                (function
                  | Arm_recv (_, pc) -> Roots.remove v.mut.Ctx.proxies pc
                  | Arm_send _ -> ())
                arms;
              Effect.Deep.discontinue k Closed
            end
            else begin
            (* Poll: commit the first arm with an available partner. *)
            let rec poll i = function
              | [] -> None
              | Arm_send (ch, gmsg) :: rest -> (
                  match take_reader ch with
                  | Some r ->
                      t.st.sends <- t.st.sends + 1;
                      commit_reader t v r gmsg;
                      Some (i, Value.unit)
                  | None -> poll (i + 1) rest)
              | Arm_recv (ch, _) :: rest -> (
                  match take_writer ch with
                  | Some w -> Some (i, commit_writer t v w)
                  | None -> poll (i + 1) rest)
            in
            match poll 0 arms with
            | Some (i, value) ->
                (* Release the unused pre-built proxies of recv arms. *)
                List.iter
                  (function
                    | Arm_recv (_, pc) -> Roots.remove v.mut.Ctx.proxies pc
                    | Arm_send _ -> ())
                  arms;
                Effect.Deep.continue k (i, value)
            | None ->
                (* Park on every arm under one shared claim; collect the
                   per-arm cleanups run when any arm commits. *)
                let claim = ref false in
                let cleanups = ref [] in
                List.iteri
                  (fun i arm ->
                    match arm with
                    | Arm_send (ch, gmsg) ->
                        let cell = Roots.add t.c.Ctx.global_roots gmsg in
                        let cl =
                          {
                            consumed = false;
                            undo =
                              (fun () -> Roots.remove t.c.Ctx.global_roots cell);
                          }
                        in
                        cleanups := cl :: !cleanups;
                        Queue.add
                          {
                            s_vproc = v.v_id;
                            s_val = cell;
                            s_claim = claim;
                            s_resume =
                              (fun () ->
                                (* [commit_writer] took this arm's cell. *)
                                cl.consumed <- true;
                                release_choice !cleanups;
                                enqueue_task v ~ready_ns:v.mut.Ctx.now_ns
                                  (fun () ->
                                    Effect.Deep.continue k (i, Value.unit)));
                            s_fail =
                              (fun e ->
                                (* This arm's cell is still unconsumed:
                                   releasing the choice drops it along
                                   with every sibling's resource. *)
                                release_choice !cleanups;
                                enqueue_task v ~ready_ns:v.mut.Ctx.now_ns
                                  (fun () -> Effect.Deep.discontinue k e));
                          }
                          ch.writers
                    | Arm_recv (ch, pc) ->
                        let cl =
                          {
                            consumed = false;
                            undo = (fun () -> Roots.remove v.mut.Ctx.proxies pc);
                          }
                        in
                        cleanups := cl :: !cleanups;
                        Queue.add
                          {
                            r_vproc = v.v_id;
                            r_proxy = pc;
                            r_claim = claim;
                            r_resume =
                              (fun msg ->
                                (* [commit_reader] unregistered this proxy. *)
                                cl.consumed <- true;
                                release_choice !cleanups;
                                enqueue_resume_pair v ~ready_ns:v.mut.Ctx.now_ns
                                  k i msg);
                            r_fail =
                              (fun e ->
                                release_choice !cleanups;
                                enqueue_task v ~ready_ns:v.mut.Ctx.now_ns
                                  (fun () -> Effect.Deep.discontinue k e));
                          }
                          ch.readers)
                  arms
            end)
    | _ -> None
  in
  Effect.Deep.match_with
    (fun () -> item.fn v.mut env)
    ()
    {
      retc = (fun result -> complete t v item.fut (Ok result));
      exnc =
        (fun e ->
          complete t v item.fut (Error (e, Printexc.get_raw_backtrace ())));
      effc;
    }

(* ------------------------------------------------------------------ *)
(* Fiber API                                                           *)
(* ------------------------------------------------------------------ *)

let spawn t (m : Ctx.mutator) ~env fn =
  let v = t.vprocs.(m.Ctx.id) in
  let fut =
    { fid = t.next_fid; fstate = Running; waiters = []; done_ns = 0. }
  in
  t.next_fid <- t.next_fid + 1;
  (* Eager promotion (the ablation of §3.1's lazy scheme): pay the
     promotion at every spawn instead of only at actual steals. *)
  let env =
    if t.eager_promotion then
      if t.batch_promotions then Promote.batch t.c m env
      else Array.map (fun v -> Promote.value t.c m v) env
    else env
  in
  let item =
    {
      wid = t.next_wid;
      fn;
      env = Array.map (fun value -> Roots.add m.Ctx.roots value) env;
      env_owner = m.Ctx.id;
      pushed_ns = m.Ctx.now_ns;
      fut;
      on_queue = Some m.Ctx.id;
    }
  in
  t.next_wid <- t.next_wid + 1;
  fut.fstate <- Queued item;
  Deque.push v.deque item;
  t.st.spawns <- t.st.spawns + 1;
  Ctx.charge_work t.c m ~cycles:40.;
  fut

(* Claim a queued item (possibly from another vproc's deque) and run it
   inline in the current fiber. *)
let resolve_queued t (m : Ctx.mutator) (item : work_item) =
  let me = t.vprocs.(m.Ctx.id) in
  let claimed =
    match item.on_queue with
    | None -> false
    | Some q ->
        let found = Deque.remove t.vprocs.(q).deque (fun i -> i.wid = item.wid) in
        (match found with Some _ -> item.on_queue <- None | None -> ());
        found <> None
  in
  if claimed then begin
    (match item.fut.fstate with
    | Queued _ -> ()
    | _ -> failwith "Sched.resolve_queued: work item executed twice");
    if item.env_owner <> m.Ctx.id then begin
      t.st.steals <- t.st.steals + 1;
      (* The inline claim probed the victim's deque: one executed
         attempt, immediately successful. *)
      Ctx.steal_probe t.c m ~victim:item.env_owner ~success:true
    end
    else t.st.inline_runs <- t.st.inline_runs + 1;
    item.fut.fstate <- Running;
    claim_env t me item;
    let env = take_env t me item in
    (* Run inside the current fiber: effects reach the current handler. *)
    (match item.fn m env with
    | result -> complete t me item.fut (Ok result)
    | exception e ->
        complete t me item.fut (Error (e, Printexc.get_raw_backtrace ())))
  end

(* Is there a vproc with nothing to do whose virtual clock is behind
   ours?  If so, it would have stolen a queued item before our await even
   happened in real time, so the awaiter must sleep rather than claim the
   item inline (turn-based simulation runs the awaiter's turn first, but
   virtual-time causality belongs to the thief). *)
let exists_earlier_idle t (m : Ctx.mutator) =
  let n = Array.length t.vprocs in
  let rec go i =
    if i >= n then false
    else begin
      let v = t.vprocs.(i) in
      (v.v_id <> m.Ctx.id
      && Queue.is_empty v.runnable
      && Deque.is_empty v.deque
      && v.mut.Ctx.now_ns < m.Ctx.now_ns)
      || go (i + 1)
    end
  in
  go 0

let rec await t (m : Ctx.mutator) (f : future) =
  match f.fstate with
  | Done _ -> share t ~to_vproc:m.Ctx.id f
  | Running -> Effect.perform (Ef_await f)
  | Queued item ->
      if exists_earlier_idle t m then Effect.perform (Ef_await f)
      else begin
        resolve_queued t m item;
        await t m f
      end

let tick t (m : Ctx.mutator) =
  if
    t.c.Ctx.global_gc_pending
    || m.Ctx.now_ns -. t.turn_start_ns > t.quantum_ns
  then Effect.perform Ef_yield

let yield _t _m = Effect.perform Ef_yield

(* ------------------------------------------------------------------ *)
(* Channels                                                            *)
(* ------------------------------------------------------------------ *)

let new_channel t (m : Ctx.mutator) =
  (* The channel is materialized as a small global object so that channel
     metadata traffic exists in the simulated heap.  Its root lives only
     as long as the channel: [close_channel] (or the end of [run])
     removes it, so long-running programs don't accrete one permanent
     global root per channel ever created. *)
  let local = Alloc.alloc_raw t.c m ~words:2 in
  let g = Promote.value ~reason:Obs.Gc_cause.Pval_sync t.c m local in
  let ch =
    {
      ch_id = t.next_chid;
      ch_obj = Roots.add t.c.Ctx.global_roots g;
      readers = Queue.create ();
      writers = Queue.create ();
      ch_open = true;
    }
  in
  t.next_chid <- t.next_chid + 1;
  t.channels <- ch :: t.channels;
  ch

let unroot_channel t ch =
  ch.ch_open <- false;
  Roots.remove t.c.Ctx.global_roots ch.ch_obj

let close_channel t ch =
  if ch.ch_open then begin
    dbg "close ch%d (readers=%d writers=%d)" ch.ch_id (Queue.length ch.readers)
      (Queue.length ch.writers);
    unroot_channel t ch;
    t.channels <- List.filter (fun c -> c.ch_id <> ch.ch_id) t.channels;
    (* Fail every fiber still parked on the channel: release its rooted
       resources and discontinue it with [Closed].  Claiming before
       failing keeps a sync choice with several arms on this channel
       from failing twice, and marks the choice dead for
       [take_unclaimed] on any other channel holding a sibling arm. *)
    Queue.iter
      (fun r ->
        if not !(r.r_claim) then begin
          r.r_claim := true;
          r.r_fail Closed
        end)
      ch.readers;
    Queue.iter
      (fun w ->
        if not !(w.s_claim) then begin
          w.s_claim := true;
          w.s_fail Closed
        end)
      ch.writers;
    Queue.clear ch.readers;
    Queue.clear ch.writers
  end

let check_open ch = if not ch.ch_open then raise Closed

let send t (m : Ctx.mutator) ch value =
  check_open ch;
  (* Root the message across the tick's possible collection. *)
  let value =
    Roots.protect m.Ctx.roots value (fun cv ->
        tick t m;
        Ctx.resolve t.c m (Roots.get cv))
  in
  (* The sender promotes the message — the sharing point of §3.1.  A run
     of consecutive sends within one turn shares a batched cycle. *)
  let gmsg =
    wb_promote t t.vprocs.(m.Ctx.id) ~reason:Obs.Gc_cause.Pval_sync value
  in
  Ctx.touch t.c m ~addr:(Value.to_ptr (Roots.get ch.ch_obj)) ~bytes:16;
  Effect.perform (Ef_send (ch, gmsg))

let recv t (m : Ctx.mutator) ch =
  check_open ch;
  tick t m;
  (* Pre-build the proxy that will stand for this fiber if it blocks (the
     handler must not allocate). *)
  let stub = Alloc.alloc_raw t.c m ~words:1 in
  let dest = Forward.global_dest t.c m ~on_copy:(fun _ _ -> ()) in
  let paddr = dest.Forward.alloc_dst ((Proxy.size_words + 1) * 8) in
  Proxy.init t.c.Ctx.store ~addr:paddr ~owner:m.Ctx.id ~referent:stub;
  Ctx.touch t.c m ~addr:paddr ~bytes:(8 * (Proxy.size_words + 1));
  let pcell = Roots.add m.Ctx.proxies (Value.of_ptr paddr) in
  Ctx.touch t.c m ~addr:(Value.to_ptr (Roots.get ch.ch_obj)) ~bytes:16;
  Effect.perform (Ef_recv (ch, pcell))

(* First-class synchronous events with choice — the Parallel CML
   primitives the paper's explicit threading builds on (§2.1, [RRX09]). *)
type event = Send_evt of chan * Value.t | Recv_evt of chan

let mk_proxy t (m : Ctx.mutator) =
  let stub = Alloc.alloc_raw t.c m ~words:1 in
  let dest = Forward.global_dest t.c m ~on_copy:(fun _ _ -> ()) in
  let paddr = dest.Forward.alloc_dst ((Proxy.size_words + 1) * 8) in
  Proxy.init t.c.Ctx.store ~addr:paddr ~owner:m.Ctx.id ~referent:stub;
  Ctx.touch t.c m ~addr:paddr ~bytes:(8 * (Proxy.size_words + 1));
  Roots.add m.Ctx.proxies (Value.of_ptr paddr)

let sync t (m : Ctx.mutator) (events : event list) =
  if events = [] then invalid_arg "Sched.sync: empty choice";
  List.iter (function Send_evt (ch, _) | Recv_evt ch -> check_open ch) events;
  (* Root every message across the tick's possible collection, promote
     them (the sender side of each arm shares its message, §3.1), and
     pre-build the blocking proxies for receive arms. *)
  let cells =
    List.map
      (function
        | Send_evt (ch, v) -> (ch, `S, Roots.add m.Ctx.roots v)
        | Recv_evt ch -> (ch, `R, Roots.add m.Ctx.roots Value.unit))
      events
  in
  tick t m;
  (* The send arms of one choice are a natural write-buffer batch: all
     their messages publish in a single promotion cycle. *)
  let gmsgs =
    match
      List.filter_map
        (fun (_, kind, cell) ->
          match kind with
          | `S -> Some (Ctx.resolve t.c m (Roots.get cell))
          | `R -> None)
        cells
    with
    | [] -> []
    | vals ->
        let arr = Array.of_list vals in
        let out =
          if t.batch_promotions then
            Promote.batch ~reason:Obs.Gc_cause.Pval_sync t.c m arr
          else
            Array.map
              (fun v -> Promote.value ~reason:Obs.Gc_cause.Pval_sync t.c m v)
              arr
        in
        Array.to_list out
  in
  let rec build gs = function
    | [] -> []
    | (ch, `S, cell) :: rest ->
        let g, gs =
          match gs with g :: gs -> (g, gs) | [] -> assert false
        in
        Roots.remove m.Ctx.roots cell;
        Arm_send (ch, g) :: build gs rest
    | (ch, `R, cell) :: rest ->
        Roots.remove m.Ctx.roots cell;
        Arm_recv (ch, mk_proxy t m) :: build gs rest
  in
  let arms = build gmsgs cells in
  Effect.perform (Ef_sync arms)

let select t m chans = sync t m (List.map (fun ch -> Recv_evt ch) chans)

(* ------------------------------------------------------------------ *)
(* The virtual-time driving loop                                       *)
(* ------------------------------------------------------------------ *)

type move =
  | Run_task of vproc
  | Run_own of vproc
  | Run_steal of vproc * vproc * int list
      (* thief, victim, and the vprocs probed empty on the way to the
         victim — counted as failed attempts only if this move executes *)

let next_move t =
  let best = ref None in
  let consider key mv =
    match !best with
    | Some (k, _) when k <= key -> ()
    | _ -> best := Some (key, mv)
  in
  (* Victims for stealing, in deterministic rotated order per thief. *)
  let n = Array.length t.vprocs in
  Array.iter
    (fun v ->
      (match Queue.peek_opt v.runnable with
      | Some task ->
          consider (Float.max v.mut.Ctx.now_ns task.ready_ns) (Run_task v)
      | None -> ());
      if not (Deque.is_empty v.deque) then
        consider v.mut.Ctx.now_ns (Run_own v))
    t.vprocs;
  (* Idle vprocs try to steal.  The default victim choice is uniformly
     random (the paper's scheduler); [Near_first] prefers victims whose
     node shares the thief's package, so stolen work's promoted data
     crosses the cheap intra-package link — an extension worth an
     ablation on the AMD machine's asymmetric interconnect. *)
  let topo = Numa.Cost_model.topology t.c.Ctx.cost in
  Array.iter
    (fun thief ->
      if Queue.is_empty thief.runnable && Deque.is_empty thief.deque then begin
        let start = Random.State.int t.rng n in
        let order =
          match t.steal_policy with
          | Random_victim -> List.init n (fun i -> (start + i) mod n)
          | Near_first ->
              (* Three-tier preference (ROADMAP item 3): same-node
                 victims first, then the rest of the thief's package,
                 then remote packages — each tier in the rotated
                 deterministic order. *)
              let all = List.init n (fun i -> (start + i) mod n) in
              let tier v =
                match
                  Numa.Topology.distance_class topo thief.mut.Ctx.node
                    t.vprocs.(v).mut.Ctx.node
                with
                | `Local -> 0
                | `Same_package -> 1
                | `Cross_package -> 2
              in
              let near, rest = List.partition (fun v -> tier v = 0) all in
              let mid, far = List.partition (fun v -> tier v = 1) rest in
              near @ mid @ far
        in
        (* The hunt is speculative: [next_move] may run it many times
           before any state changes, and the chosen move may not be this
           thief's.  So nothing is recorded here — the empty deques
           probed on the way to the victim ride along in the move, and
           [run_move] counts them exactly once, when the hunt is the
           move that actually executes. *)
        let rec hunt empties = function
          | [] -> ()
          | v :: rest -> begin
              let victim = t.vprocs.(v) in
              if victim.v_id = thief.v_id then hunt empties rest
              else
                match Deque.peek_front victim.deque with
                | Some oldest ->
                    (* The steal cannot happen before the item existed. *)
                    consider
                      (Float.max thief.mut.Ctx.now_ns oldest.pushed_ns)
                      (Run_steal (thief, victim, List.rev empties))
                | None -> hunt (victim.v_id :: empties) rest
            end
        in
        hunt [] order
      end)
    t.vprocs;
  !best

let run_move t = function
  | Run_task v -> (
      match Queue.take_opt v.runnable with
      | None -> ()
      | Some task ->
          v.mut.Ctx.now_ns <- Float.max v.mut.Ctx.now_ns task.ready_ns;
          t.turn_start_ns <- v.mut.Ctx.now_ns;
          task.go ())
  | Run_own v -> (
      match Deque.pop v.deque with
      | None -> ()
      | Some item ->
          v.mut.Ctx.now_ns <- Float.max v.mut.Ctx.now_ns item.pushed_ns;
          t.turn_start_ns <- v.mut.Ctx.now_ns;
          start_fiber t v item)
  | Run_steal (thief, victim, empty_probes) -> (
      (* A real thief pays for the remote peek of every deque it probes,
         empty or not; each executed probe is one attempt. *)
      List.iter
        (fun victim -> Ctx.steal_probe t.c thief.mut ~victim ~success:false)
        empty_probes;
      let stolen = Deque.steal victim.deque in
      Ctx.steal_probe t.c thief.mut ~victim:victim.v_id
        ~success:(Option.is_some stolen);
      match stolen with
      | None -> ()
      | Some item ->
          item.on_queue <- None;
          t.st.steals <- t.st.steals + 1;
          thief.mut.Ctx.now_ns <-
            Float.max thief.mut.Ctx.now_ns item.pushed_ns;
          t.turn_start_ns <- thief.mut.Ctx.now_ns;
          start_fiber t thief item)

let run t ~main =
  let v0 = t.vprocs.(0) in
  let fut = spawn t v0.mut ~env:[||] (fun m _ -> main m) in
  let rec loop () =
    (* Turn boundary: publish every open write buffer before choosing
       the next move, so a batch never spans turns or a stop-the-world
       collection.  The boundary doubles as the telemetry heartbeat —
       armed OpenMetrics streams emit here on virtual time, so no
       per-event hook is needed. *)
    flush_wbufs t;
    Metrics.stream_tick t.c.Ctx.metrics ~now_ns:t.turn_start_ns;
    match fut.fstate with
    | Done _ -> ()
    | _ ->
        (* A requested global collection: STW collects on the spot
           (every fiber is parked at a rooted suspension point here);
           concurrent starts a cycle and advances it one bounded slice
           per scheduler turn, so collector work interleaves with the
           mutator moves below.  With [conc_parallel_slices > 1] further
           evacuation slices run on distinct idle vprocs in the same
           turn, so the collector uses cores the mutators are not. *)
        if t.c.Ctx.global_gc_pending then
          Global_gc.dispatch t.c ~idle:(fun v ->
              let vp = t.vprocs.(v) in
              Queue.is_empty vp.runnable && Deque.is_empty vp.deque);
        begin
          match next_move t with
          | Some (_, mv) ->
              run_move t mv;
              loop ()
          | None ->
              if Concurrent_gc.active t.c then begin
                (* Nothing runnable but a collection in flight: finish it
                   (it cannot unblock fibers, but the retry keeps the
                   deadlock report accurate about GC state). *)
                Concurrent_gc.finish t.c;
                loop ()
              end
              else begin
                if deadlock_debug then begin
                  Printf.eprintf "deadlock dump: pending=%b main=%s\n"
                    t.c.Ctx.global_gc_pending
                    (match fut.fstate with
                    | Done _ -> "done"
                    | Running -> "running"
                    | Queued _ -> "queued");
                  List.iter
                    (fun ch ->
                      Printf.eprintf
                        "  chan %d open=%b readers=%d writers=%d\n" ch.ch_id
                        ch.ch_open (Queue.length ch.readers)
                        (Queue.length ch.writers))
                    t.channels;
                  Array.iter
                    (fun v ->
                      Printf.eprintf "  vproc %d runnable=%d deque_empty=%b\n"
                        v.v_id (Queue.length v.runnable)
                        (Deque.is_empty v.deque))
                    t.vprocs
                end;
                failwith
                  "Sched.run: deadlock — fibers blocked with no runnable work"
              end
        end
  in
  loop ();
  (* The program may finish mid-cycle; ratify before reading the clocks
     so the run's final time includes the collection it started. *)
  if Concurrent_gc.active t.c then Concurrent_gc.finish t.c;
  t.finished_ns <-
    Array.fold_left
      (fun acc v -> Float.max acc v.mut.Ctx.now_ns)
      0. t.vprocs;
  let r = share t ~to_vproc:0 fut in
  flush_wbufs t;
  (* Channels the program left open die with the run: drop their global
     roots so a completed run leaks no channel objects. *)
  List.iter (fun ch -> if ch.ch_open then unroot_channel t ch) t.channels;
  t.channels <- [];
  r
