open Heap
open Manticore_gc

type stats = {
  mutable spawns : int;
  mutable inline_runs : int;
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

type chan = {
  ch_id : int;
  ch_obj : Roots.cell; (* the global-heap channel object *)
  readers : parked Queue.t;
  writers : parked Queue.t;
  mutable ch_open : bool;
}

and arm =
  | Arm_send of chan * Value.t (* message already promoted *)
  | Arm_recv of chan * Roots.cell (* pre-built proxy for blocking *)

(* A [sync] choice parked on all its arms' channels (a plain send or
   recv is a one-arm choice).  The first arm to commit, or the close of
   any arm's channel, claims the whole choice: its other arms die where
   they wait and their resources are released (the two-phase commit of
   Parallel CML, simplified by the cooperative scheduler). *)
and choice = {
  c_vproc : int;
  c_arms : arm array;
  c_cells : Roots.cell array;
      (* per arm, what it holds rooted: a send's promoted message (a
         global root), a recv's proxy (in its vproc's proxy list) *)
  c_k : (int * Value.t, unit) Effect.Deep.continuation;
  mutable c_claimed : bool;
}

(* One arm of a parked choice, waiting in its channel's readers or
   writers queue. *)
and parked = { p_choice : choice; p_arm : int }

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

type _ Effect.t +=
  | Ef_yield : unit Effect.t
  | Ef_await : future -> Value.t Effect.t
  | Ef_sync : arm array -> (int * Value.t) Effect.t

let ctx t = t.c
let stats t = t.st
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
          inline_runs = 0;
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

(* Resume a parked fiber with a heap value, through [resume].  The value
   must ride in a root cell, not in the closure: the task may sit in the
   runnable queue across collections, and a closure-captured Value.t is
   invisible to the collector. *)
let enqueue_resume (vp : vproc) ~ready_ns v resume =
  let cell = Roots.add vp.mut.Ctx.roots v in
  enqueue_task vp ~ready_ns (fun () ->
      let v = Roots.get cell in
      Roots.remove vp.mut.Ctx.roots cell;
      resume v)

(* Pop entries until an unclaimed one appears; claimed entries are the
   dead arms of already-committed choices and are dropped (their
   resources were released by the committing path). *)
let rec take_unclaimed q =
  match Queue.take_opt q with
  | None -> None
  | Some p -> if p.p_choice.c_claimed then take_unclaimed q else Some p

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

(* Promote several values on [m] in one batched cycle, or one full cycle
   each when batching is disabled. *)
let promote_all ?reason t m vals =
  if t.batch_promotions then Promote.batch ?reason t.c m vals
  else Array.map (Promote.value ?reason t.c m) vals

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
          enqueue_resume t.vprocs.(w.w_vproc) ~ready_ns:now v
            (Effect.Deep.continue w.w_k)
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
    let moved = promote_all ~reason:Obs.Gc_cause.Steal t victim.mut vals in
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

let arm_chan = function Arm_send (ch, _) | Arm_recv (ch, _) -> ch
let arm_dir = function Arm_send _ -> "send" | Arm_recv _ -> "recv"

(* Checked first: even a disabled [dbg] builds its argument closures,
   and this one runs for every arm of every parked choice. *)
let dbg_arm what (c : choice) i =
  if deadlock_debug then
    dbg "v%d %s ch%d: %s" c.c_vproc (arm_dir c.c_arms.(i))
      (arm_chan c.c_arms.(i)).ch_id what

(* Release the rooted resources of every arm of a claimed choice except
   [except] (whose resource the committing path consumed), last arm
   first. *)
let release t (c : choice) ~except =
  for i = Array.length c.c_arms - 1 downto 0 do
    if i <> except then
      match c.c_arms.(i) with
      | Arm_send _ -> Roots.remove t.c.Ctx.global_roots c.c_cells.(i)
      | Arm_recv _ ->
          Roots.remove t.vprocs.(c.c_vproc).mut.Ctx.proxies c.c_cells.(i)
  done

(* Reschedule a committed choice's fiber with its arm's result: the
   message for a recv arm, unit for a send arm. *)
let resume t (p : parked) msg =
  let c = p.p_choice and i = p.p_arm in
  let vp = t.vprocs.(c.c_vproc) in
  dbg_arm "resumed" c i;
  release t c ~except:i;
  match c.c_arms.(i) with
  | Arm_send _ ->
      enqueue_task vp ~ready_ns:vp.mut.Ctx.now_ns (fun () ->
          Effect.Deep.continue c.c_k (i, Value.unit))
  | Arm_recv _ ->
      enqueue_resume vp ~ready_ns:vp.mut.Ctx.now_ns msg (fun msg ->
          Effect.Deep.continue c.c_k (i, msg))

(* Fail a parked choice one of whose arms is on a closing channel:
   release all its resources and discontinue the fiber with [Closed]. *)
let fail t (p : parked) =
  let c = p.p_choice in
  let vp = t.vprocs.(c.c_vproc) in
  c.c_claimed <- true;
  dbg_arm "failed" c p.p_arm;
  release t c ~except:(-1);
  enqueue_task vp ~ready_ns:vp.mut.Ctx.now_ns (fun () ->
      Effect.Deep.discontinue c.c_k Closed)

(* Deliver [gmsg] to a blocked reader: claim its proxy (a remote store
   into the global heap), mark the choice committed, reschedule it.  The
   proxy cell must be resolved: a concurrent global collection may have
   evacuated the proxy object after the reader parked, and writing the
   state into the stale from-space copy would lose the update. *)
let commit_reader t (v : vproc) (r : parked) gmsg =
  let c = r.p_choice in
  let reader = t.vprocs.(c.c_vproc) in
  let cell = c.c_cells.(r.p_arm) in
  c.c_claimed <- true;
  t.st.sends <- t.st.sends + 1;
  let paddr = Value.to_ptr (Ctx.resolve t.c v.mut (Roots.get cell)) in
  Ctx.touch t.c v.mut ~addr:paddr ~bytes:16;
  Proxy.set_state t.c.Ctx.store paddr 1;
  Roots.remove reader.mut.Ctx.proxies cell;
  (* The message reaches the reader's vproc OCaml-side (no heap read):
     taint it explicitly for the dirty-only ratify. *)
  Ctx.conc_taint t.c reader.mut gmsg;
  resume t r gmsg

(* Take a blocked writer's message and reschedule it. *)
let commit_writer t (v : vproc) (w : parked) =
  let c = w.p_choice in
  let cell = c.c_cells.(w.p_arm) in
  c.c_claimed <- true;
  t.st.sends <- t.st.sends + 1;
  let gmsg = Roots.get cell in
  Roots.remove t.c.Ctx.global_roots cell;
  (* Same OCaml-side hand-off as [commit_reader], toward [v]. *)
  Ctx.conc_taint t.c v.mut gmsg;
  resume t w Value.unit;
  gmsg

(* The recv arms' pre-built proxies are the only resources a choice
   holds before it parks (send messages are rooted only once parked). *)
let drop_proxies (v : vproc) arms =
  Array.iter
    (function
      | Arm_recv (_, pc) -> Roots.remove v.mut.Ctx.proxies pc
      | Arm_send _ -> ())
    arms

(* Park a choice on every arm's channel. *)
let park t (v : vproc) k arms =
  let cells =
    Array.map
      (function
        | Arm_send (_, gmsg) -> Roots.add t.c.Ctx.global_roots gmsg
        | Arm_recv (_, pc) -> pc)
      arms
  in
  let c =
    { c_vproc = v.v_id; c_arms = arms; c_cells = cells; c_k = k;
      c_claimed = false }
  in
  Array.iteri
    (fun i arm ->
      dbg_arm "park" c i;
      let p = { p_choice = c; p_arm = i } in
      match arm with
      | Arm_send (ch, _) -> Queue.add p ch.writers
      | Arm_recv (ch, _) -> Queue.add p ch.readers)
    arms

(* Commit the first arm (from [i] on) with a waiting partner and resume
   the fiber at once, or park the choice if no arm has one. *)
let rec poll t (v : vproc) k arms i =
  if i = Array.length arms then park t v k arms
  else
    match arms.(i) with
    | Arm_send (ch, gmsg) -> (
        match take_unclaimed ch.readers with
        | Some r ->
            dbg "v%d send ch%d: commit to reader@v%d" v.v_id ch.ch_id
              r.p_choice.c_vproc;
            commit_reader t v r gmsg;
            drop_proxies v arms;
            Effect.Deep.continue k (i, Value.unit)
        | None -> poll t v k arms (i + 1))
    | Arm_recv (ch, _) -> (
        match take_unclaimed ch.writers with
        | Some w ->
            dbg "v%d recv ch%d: commit from writer@v%d" v.v_id ch.ch_id
              w.p_choice.c_vproc;
            let gmsg = commit_writer t v w in
            drop_proxies v arms;
            Effect.Deep.continue k (i, gmsg)
        | None -> poll t v k arms (i + 1))

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
    | Ef_sync arms ->
        Some
          (fun k ->
            (* The front end checked [ch_open] before its tick, but the
               channel can be closed while this fiber is parked at that
               safe point (e.g. by the peer, with a concurrent global
               cycle yielding at every allocation).  Parking on a closed
               channel would lose the fiber — [close_channel]'s fail
               sweep has already run — so re-check here and fail the
               whole choice exactly as that sweep would have. *)
            if Array.exists (fun a -> not (arm_chan a).ch_open) arms then begin
              drop_proxies v arms;
              Effect.Deep.discontinue k Closed
            end
            else poll t v k arms 0)
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
  let env = if t.eager_promotion then promote_all t m env else env in
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
    if item.env_owner <> m.Ctx.id then
      (* The inline claim probed the victim's deque: one executed
         attempt, immediately successful. *)
      Ctx.steal_probe t.c m ~victim:item.env_owner ~success:true
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
    let fail_unclaimed p = if not p.p_choice.c_claimed then fail t p in
    Queue.iter fail_unclaimed ch.readers;
    Queue.iter fail_unclaimed ch.writers;
    Queue.clear ch.readers;
    Queue.clear ch.writers
  end

let check_open ch = if not ch.ch_open then raise Closed

(* Pre-build the proxy that will stand for a receiving fiber if it
   blocks (the handler must not allocate). *)
let mk_proxy t (m : Ctx.mutator) =
  let stub = Alloc.alloc_raw t.c m ~words:1 in
  let dest = Forward.global_dest t.c m ~on_copy:(fun _ _ -> ()) in
  let paddr = dest.Forward.alloc_dst ((Proxy.size_words + 1) * 8) in
  Proxy.init t.c.Ctx.store ~addr:paddr ~owner:m.Ctx.id ~referent:stub;
  Ctx.touch t.c m ~addr:paddr ~bytes:(8 * (Proxy.size_words + 1));
  Roots.add m.Ctx.proxies (Value.of_ptr paddr)

(* [send] and [recv] are one-arm syncs in the handler, but keep their own
   front ends: their costs differ from [sync]'s (write-buffered
   promotion, what is rooted across the tick, the channel-object
   touch). *)
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
  ignore (Effect.perform (Ef_sync [| Arm_send (ch, gmsg) |]))

let recv t (m : Ctx.mutator) ch =
  check_open ch;
  tick t m;
  let pc = mk_proxy t m in
  Ctx.touch t.c m ~addr:(Value.to_ptr (Roots.get ch.ch_obj)) ~bytes:16;
  snd (Effect.perform (Ef_sync [| Arm_recv (ch, pc) |]))

(* First-class synchronous events with choice — the Parallel CML
   primitives the paper's explicit threading builds on (§2.1, [RRX09]). *)
type event = Send_evt of chan * Value.t | Recv_evt of chan

let sync t (m : Ctx.mutator) (events : event list) =
  if events = [] then invalid_arg "Sched.sync: empty choice";
  List.iter (function Send_evt (ch, _) | Recv_evt ch -> check_open ch) events;
  (* Root every message across the tick's possible collection, promote
     them (the sender side of each arm shares its message, §3.1), and
     pre-build the blocking proxies for receive arms. *)
  let evs = Array.of_list events in
  let cells =
    Array.map
      (function
        | Send_evt (_, v) -> Roots.add m.Ctx.roots v
        | Recv_evt _ -> Roots.add m.Ctx.roots Value.unit)
      evs
  in
  tick t m;
  (* The send arms of one choice are a natural write-buffer batch: all
     their messages publish in a single promotion cycle.  Each promoted
     message goes back into its cell, which stays rooted until the recv
     arms' proxies are built: allocating a proxy's stub can reach the
     global-GC safe point, and a collection there moves the messages. *)
  let is_send = function Send_evt _ -> true | Recv_evt _ -> false in
  let send_cells =
    List.filteri (fun i _ -> is_send evs.(i)) (Array.to_list cells)
  in
  if send_cells <> [] then begin
    let vals = List.map (fun c -> Ctx.resolve t.c m (Roots.get c)) send_cells in
    let gs =
      promote_all ~reason:Obs.Gc_cause.Pval_sync t m (Array.of_list vals)
    in
    List.iteri (fun j c -> Roots.set c gs.(j)) send_cells
  end;
  Array.iteri
    (fun i c -> if not (is_send evs.(i)) then Roots.remove m.Ctx.roots c)
    cells;
  (* A recv arm's cell now holds its proxy.  The proxies are built last
     arm first, which fixes their addresses. *)
  for i = Array.length evs - 1 downto 0 do
    if not (is_send evs.(i)) then cells.(i) <- mk_proxy t m
  done;
  let arms =
    Array.mapi
      (fun i -> function
        | Recv_evt ch -> Arm_recv (ch, cells.(i))
        | Send_evt (ch, _) ->
            let g = Roots.get cells.(i) in
            Roots.remove m.Ctx.roots cells.(i);
            Arm_send (ch, g))
      evs
  in
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
