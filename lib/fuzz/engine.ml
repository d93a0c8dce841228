(* The trace interpreter.

   Runs a fuzz program against a fresh, test-sized heap context while
   applying the same ops to the {!Shadow} model, and checks the two
   against each other after every top-level collection (via
   {!Ctx.set_on_collection}) plus once at end of program.

   Register files: each vproc gets [Op.regs_per_vproc] general registers
   (rooted [Roots] cells, so every collector retargets them) and
   [Op.proxy_slots_per_vproc] proxy slots.  An engine invariant keeps
   vproc [v]'s registers pointing only at [v]-local or global data:
   cross-vproc aliasing goes through [Share]/[Sched_phase], which
   promote first — exactly the discipline the paper's runtime imposes. *)

open Heap
open Manticore_gc
open Runtime

type outcome =
  | Passed of { checks : int; collections : int }
  | Failed of { op_index : int; message : string; events : string }
      (** [op_index = length ops] means the end-of-program check.
          [events] is the flight recorder's dump
          ({!Obs.Recorder.to_string}) taken at the failure — the
          per-vproc event tail that accompanies the failing trace in
          [--fail-dir] artifacts. *)

type cfg = {
  params : Params.t;
  machine : Numa.Topology.t;
  n_vprocs : int;
  check_after_gc : bool;  (** differential check at every collection *)
  corrupt_copy : int;
      (** [> 0]: tell {!Forward} to corrupt every nth evacuation — the
          chaos hook the shrinker tests aim at *)
}

(* Small heaps so a couple hundred ops exercise every collector many
   times over (mirrors the tier-1 tests' geometry). *)
let default_cfg =
  {
    params =
      {
        Params.default with
        Params.capacity_bytes = 8 * 1024 * 1024;
        local_heap_bytes = 8 * 1024;
        chunk_bytes = 4 * 1024;
        nursery_min_bytes = 1024;
        global_budget_per_vproc = 16 * 1024;
      };
    machine = Numa.Machines.tiny4;
    n_vprocs = 3;
    check_after_gc = true;
    corrupt_copy = 0;
  }

exception Divergence of string

type state = {
  cfg : cfg;
  ctx : Ctx.t;
  sh : Shadow.t;
  regs : Roots.cell array array; (* [vproc].(reg) *)
  sregs : Shadow.value array array;
  proxies : Roots.cell option array array; (* [vproc].(slot) *)
  sproxies : Shadow.value option array array;
  mutable checks : int;
  mutable collections : int;
}

let mk_state cfg =
  let ctx =
    Ctx.create ~params:cfg.params ~machine:cfg.machine ~n_vprocs:cfg.n_vprocs
      ~policy:Sim_mem.Page_policy.Local ()
  in
  Global_gc.install_sync_hook ctx;
  {
    cfg;
    ctx;
    sh = Shadow.create ();
    regs =
      Array.init cfg.n_vprocs (fun v ->
          Array.init Op.regs_per_vproc (fun _ ->
              Roots.add (Ctx.mutator ctx v).Ctx.roots Value.unit));
    sregs =
      Array.init cfg.n_vprocs (fun _ ->
          Array.make Op.regs_per_vproc (Shadow.Imm 0));
    proxies =
      Array.init cfg.n_vprocs (fun _ ->
          Array.make Op.proxy_slots_per_vproc None);
    sproxies =
      Array.init cfg.n_vprocs (fun _ ->
          Array.make Op.proxy_slots_per_vproc None);
    checks = 0;
    collections = 0;
  }

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

let gather_roots s =
  let acc = ref [] in
  for v = s.cfg.n_vprocs - 1 downto 0 do
    for p = Op.proxy_slots_per_vproc - 1 downto 0 do
      match (s.proxies.(v).(p), s.sproxies.(v).(p)) with
      | Some cell, Some shadow ->
          let label = Printf.sprintf "v%d.p%d" v p in
          let pv = Roots.get cell in
          let runtime =
            if not (Value.is_ptr pv) then
              raise
                (Divergence (Printf.sprintf "%s: proxy cell holds %d" label
                               (Value.to_int pv)))
            else begin
              match Checker.resolve_addr s.ctx (Value.to_ptr pv) with
              | Error m ->
                  raise
                    (Divergence
                       (Printf.sprintf "%s: proxy does not resolve (%s)" label m))
              | Ok addr ->
                  if not (Proxy.is_proxy s.ctx.Ctx.store addr) then
                    raise
                      (Divergence
                         (Printf.sprintf "%s: %#x is not a proxy" label addr));
                  Proxy.referent s.ctx.Ctx.store addr
            end
          in
          acc := { Checker.label; runtime; shadow } :: !acc
      | None, None -> ()
      | Some _, None | None, Some _ ->
          raise
            (Divergence
               (Printf.sprintf "v%d.p%d: proxy slot occupancy differs" v p))
    done;
    for r = Op.regs_per_vproc - 1 downto 0 do
      acc :=
        {
          Checker.label = Printf.sprintf "v%d.r%d" v r;
          runtime = Roots.get s.regs.(v).(r);
          shadow = s.sregs.(v).(r);
        }
        :: !acc
    done
  done;
  !acc

let check s =
  s.checks <- s.checks + 1;
  match Checker.check s.ctx ~roots:(gather_roots s) with
  | Ok () -> ()
  | Error errs ->
      raise
        (Divergence
           (Printf.sprintf "%d error(s): %s" (List.length errs)
              (String.concat " | " errs)))

(* ------------------------------------------------------------------ *)
(* Op application                                                      *)
(* ------------------------------------------------------------------ *)

let vp s v = abs v mod s.cfg.n_vprocs
let rg r = abs r mod Op.regs_per_vproc
let sl p = abs p mod Op.proxy_slots_per_vproc
let mut s v = Ctx.mutator s.ctx v

let set_reg s v r value shadow =
  Roots.set s.regs.(v).(r) value;
  s.sregs.(v).(r) <- shadow

(* Raw payload sizes large enough for the direct-global/large paths are
   still clamped so one op cannot exhaust the test-sized heap. *)
let clamp_words w = max 1 (min (abs w) 1024)
let clamp_len l = max 1 (min (abs l) 1024)

(* A phase's [main] fiber is spawned on vproc 0's deque but may be
   stolen, so reading vproc 0's register from inside it is a cross-vproc
   access when main landed elsewhere.  Promote first (with vproc 0's
   mutator, exactly as a steal would) to keep the invariant that vproc
   [v]'s data reaches other vprocs only through the global heap. *)
let reg0_from_fiber s (m : Ctx.mutator) src =
  let owner = mut s 0 in
  let v = Ctx.resolve s.ctx owner (Roots.get s.regs.(0).(src)) in
  if m.Ctx.id <> 0 && Promote.is_local s.ctx owner v then begin
    let g = Promote.value ~reason:Obs.Gc_cause.Steal s.ctx owner v in
    Roots.set s.regs.(0).(src) g;
    g
  end
  else v

let sched_phase s ~seed ~fibers ~src ~dst =
  let fibers = 1 + (abs fibers mod 6) in
  let ssrc = s.sregs.(0).(src) in
  let sched = Sched.create ~seed s.ctx in
  let result =
    Fun.protect
      ~finally:(fun () ->
        (* Sched.create replaced the safe-point hook with one that
           performs an effect; outside fiber code that would be fatal. *)
        Global_gc.install_sync_hook s.ctx)
      (fun () ->
        Sched.run sched ~main:(fun m ->
            let env0 = reg0_from_fiber s m src in
            let futs =
              List.init fibers (fun i ->
                  Sched.spawn sched m
                    ~env:[| Value.of_int i; env0 |]
                    (fun fm env ->
                      Alloc.alloc_vector s.ctx fm [| env.(0); env.(1) |]))
            in
            (* Root each result as it arrives: a later await can run
               fibers (and collect) and would move unrooted values. *)
            let cells =
              List.map
                (fun f -> Roots.add m.Ctx.roots (Sched.await sched m f))
                futs
            in
            let vals =
              Array.of_list
                (List.map
                   (fun c -> Ctx.resolve s.ctx m (Roots.get c))
                   cells)
            in
            let out = Alloc.alloc_vector s.ctx m vals in
            List.iter (fun c -> Roots.remove m.Ctx.roots c) cells;
            out))
  in
  set_reg s 0 dst result
    (Shadow.vec s.sh
       (List.init fibers (fun i -> Shadow.vec s.sh [ Shadow.Imm i; ssrc ])))

let chan_phase s ~seed ~msgs ~src ~dst =
  let msgs = 1 + (abs msgs mod 6) in
  let ssrc = s.sregs.(0).(src) in
  let sched = Sched.create ~seed s.ctx in
  let result =
    Fun.protect
      ~finally:(fun () -> Global_gc.install_sync_hook s.ctx)
      (fun () ->
        Sched.run sched ~main:(fun m ->
            let a = Sched.new_channel sched m in
            let b = Sched.new_channel sched m in
            let producer =
              Sched.spawn sched m
                ~env:[| reg0_from_fiber s m src |]
                (fun fm env ->
                  let payload = Roots.add fm.Ctx.roots env.(0) in
                  for i = 0 to msgs - 1 do
                    let msg =
                      Alloc.alloc_vector s.ctx fm
                        [| Value.of_int i; Roots.get payload |]
                    in
                    (* Offer the same message on both channels; exactly
                       one arm commits, the sibling is released. *)
                    ignore
                      (Sched.sync sched fm
                         [ Sched.Send_evt (a, msg); Sched.Send_evt (b, msg) ])
                  done;
                  Roots.remove fm.Ctx.roots payload;
                  Value.unit)
            in
            (* The producer's sends are synchronous rendezvous, so the
               k-th select necessarily yields message k. *)
            let cells = ref [] in
            for _ = 1 to msgs do
              let _, v = Sched.select sched m [ a; b ] in
              cells := Roots.add m.Ctx.roots v :: !cells
            done;
            ignore (Sched.await sched m producer);
            Sched.close_channel sched a;
            Sched.close_channel sched b;
            let vals =
              Array.of_list
                (List.rev_map
                   (fun c -> Ctx.resolve s.ctx m (Roots.get c))
                   !cells)
            in
            let out = Alloc.alloc_vector s.ctx m vals in
            List.iter (fun c -> Roots.remove m.Ctx.roots c) !cells;
            out))
  in
  set_reg s 0 dst result
    (Shadow.vec s.sh
       (List.init msgs (fun i -> Shadow.vec s.sh [ Shadow.Imm i; ssrc ])))

let session_phase s ~seed ~reqs ~src ~dst =
  let reqs = 1 + (abs reqs mod 5) in
  let ssrc = s.sregs.(0).(src) in
  let sched = Sched.create ~seed s.ctx in
  let result =
    Fun.protect
      ~finally:(fun () -> Global_gc.install_sync_hook s.ctx)
      (fun () ->
        Sched.run sched ~main:(fun m ->
            let req_ch = Sched.new_channel sched m in
            let resp_ch = Sched.new_channel sched m in
            let session =
              Sched.spawn sched m
                ~env:[| reg0_from_fiber s m src |]
                (fun fm env ->
                  (* Serve round trips until the request channel is
                     torn down under us: the session is parked on its
                     next recv when the close lands, so the parked
                     entry must fail cleanly with [Closed]. *)
                  let state = Roots.add fm.Ctx.roots env.(0) in
                  (try
                     while true do
                       let req = Sched.recv sched fm req_ch in
                       let cell = Roots.add fm.Ctx.roots req in
                       let resp =
                         Alloc.alloc_vector s.ctx fm
                           [| Roots.get cell; Roots.get state |]
                       in
                       Roots.remove fm.Ctx.roots cell;
                       Sched.send sched fm resp_ch resp
                     done
                   with Sched.Closed -> ());
                  Roots.remove fm.Ctx.roots state;
                  Value.unit)
            in
            let cells = ref [] in
            for i = 0 to reqs - 1 do
              let msg = Alloc.alloc_vector s.ctx m [| Value.of_int i |] in
              Sched.send sched m req_ch msg;
              let v = Sched.recv sched m resp_ch in
              cells := Roots.add m.Ctx.roots v :: !cells
            done;
            Sched.close_channel sched req_ch;
            ignore (Sched.await sched m session);
            Sched.close_channel sched resp_ch;
            let vals =
              Array.of_list
                (List.rev_map
                   (fun c -> Ctx.resolve s.ctx m (Roots.get c))
                   !cells)
            in
            let out = Alloc.alloc_vector s.ctx m vals in
            List.iter (fun c -> Roots.remove m.Ctx.roots c) !cells;
            out))
  in
  set_reg s 0 dst result
    (Shadow.vec s.sh
       (List.init reqs (fun i ->
            Shadow.vec s.sh [ Shadow.vec s.sh [ Shadow.Imm i ]; ssrc ])))

(* -- Generated channel programs ([Chan_mix]) -------------------------- *)

(* One scripted channel op.  A plain [send] or [recv] is a single arm
   with [choice = false]; a [sync] has two or three arms, which may mix
   directions and name the same channel twice.  Every send arm carries a
   phase-unique message id. *)
type mix_arm =
  | Mix_send of int * int (* channel, message id *)
  | Mix_recv of int

type mix_op = { arms : mix_arm array; choice : bool; think : float }

(* How one op ended, recorded OCaml-side by the fiber that ran it.  Any
   exception but [Closed] escapes the fiber and fails the phase. *)
type mix_outcome =
  | Unfinished
  | Took of int * int option (* committed arm, id of the message taken *)
  | Closed_out

let mix_scripts ~seed ~fibers ~chans ~steps =
  let st = Random.State.make [| seed |] in
  let next_id = ref 0 in
  let arm () =
    let ch = Random.State.int st chans in
    if Random.State.bool st then begin
      let id = !next_id in
      incr next_id;
      Mix_send (ch, id)
    end
    else Mix_recv ch
  in
  Array.init fibers (fun _ ->
      Array.init steps (fun _ ->
          let choice = Random.State.int st 3 = 0 in
          let n = if choice then 2 + Random.State.int st 2 else 1 in
          let arms = Array.init n (fun _ -> arm ()) in
          (* Some steps outlast the scheduler quantum, so the op's tick
             yields and a channel can close inside that window. *)
          let think = if Random.State.int st 4 = 0 then 200_000. else 0. in
          { arms; choice; think }))

(* A [Chan_mix] fiber: run the script, recording each op's outcome in
   [outcomes], and return the messages it received (in the order its
   ops took them) as one vector, or [unit] if it took none. *)
let mix_fiber s sched chs script outcomes fm env =
  let payload = Roots.add fm.Ctx.roots env.(0) in
  let got = ref [] in
  let msg id =
    Alloc.alloc_vector s.ctx fm [| Value.of_int id; Roots.get payload |]
  in
  let run op =
    match (op.choice, op.arms.(0)) with
    | false, Mix_send (c, id) ->
        Sched.send sched fm chs.(c) (msg id);
        (0, Value.unit)
    | false, Mix_recv c -> (0, Sched.recv sched fm chs.(c))
    | true, _ ->
        (* Each message stays rooted while the next one allocates. *)
        let evs =
          Array.map
            (function
              | Mix_send (c, id) ->
                  `Send (chs.(c), Roots.add fm.Ctx.roots (msg id))
              | Mix_recv c -> `Recv chs.(c))
            op.arms
        in
        Sched.sync sched fm
          (List.map
             (function
               | `Send (ch, cell) ->
                   let v = Ctx.resolve s.ctx fm (Roots.get cell) in
                   Roots.remove fm.Ctx.roots cell;
                   Sched.Send_evt (ch, v)
               | `Recv ch -> Sched.Recv_evt ch)
             (Array.to_list evs))
  in
  Array.iteri
    (fun i op ->
      Ctx.charge_work s.ctx fm ~cycles:op.think;
      outcomes.(i) <-
        (match run op with
        | k, v -> (
            match op.arms.(k) with
            | Mix_send _ -> Took (k, None)
            | Mix_recv _ ->
                let id = Ctx.get_field s.ctx fm (Value.to_ptr v) 0 in
                got := Roots.add fm.Ctx.roots v :: !got;
                Took (k, Some (Value.to_int id)))
        | exception Sched.Closed -> Closed_out))
    script;
  Roots.remove fm.Ctx.roots payload;
  let cells = List.rev !got in
  let result =
    if cells = [] then Value.unit
    else
      Alloc.alloc_vector s.ctx fm
        (Array.of_list
           (List.map (fun c -> Ctx.resolve s.ctx fm (Roots.get c)) cells))
  in
  List.iter (Roots.remove fm.Ctx.roots) cells;
  result

let proxy_count s =
  let n = ref 0 in
  for v = 0 to s.cfg.n_vprocs - 1 do
    n := !n + Roots.count (mut s v).Ctx.proxies
  done;
  !n

(* Check a finished [Chan_mix] run against the pure rendezvous model and
   return the ids of the messages received.  Every op ended committed
   or with [Closed]; each message was received at most once, and
   exactly the committed sends were received — so a [sync] committed
   one arm and no sibling's message escaped. *)
let mix_model scripts outcomes =
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Divergence ("chanmix: " ^ m))) fmt
  in
  let sent = Hashtbl.create 16 and got = Hashtbl.create 16 in
  Array.iteri
    (fun f outs ->
      Array.iteri
        (fun i outcome ->
          match outcome with
          | Unfinished -> fail "fiber %d op %d never finished" f i
          | Closed_out -> ()
          | Took (k, taken) -> (
              match (scripts.(f).(i).arms.(k), taken) with
              | Mix_send (_, id), None -> Hashtbl.replace sent id ()
              | Mix_recv _, Some id ->
                  if Hashtbl.mem got id then
                    fail "message %d received twice" id;
                  Hashtbl.replace got id ()
              | _ -> fail "fiber %d op %d: arm %d returned the wrong kind" f i k
              ))
        outs)
    outcomes;
  Hashtbl.iter
    (fun id () ->
      if not (Hashtbl.mem sent id) then
        fail "message %d received but its send never committed" id)
    got;
  Hashtbl.iter
    (fun id () ->
      if not (Hashtbl.mem got id) then
        fail "send of message %d committed but it was never received" id)
    sent;
  List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) got [])

let chan_mix s ~seed ~fibers ~chans ~steps ~src ~dst =
  let fibers = 2 + (abs fibers mod 3) and chans = 2 + (abs chans mod 2) in
  let steps = 1 + (abs steps mod 6) in
  let scripts = mix_scripts ~seed ~fibers ~chans ~steps in
  let outcomes =
    Array.map (fun sc -> Array.make (Array.length sc) Unfinished) scripts
  in
  let ssrc = s.sregs.(0).(src) in
  let globals0 = Roots.count s.ctx.Ctx.global_roots in
  let proxies0 = proxy_count s in
  let sched = Sched.create ~seed s.ctx in
  let result =
    Fun.protect
      ~finally:(fun () -> Global_gc.install_sync_hook s.ctx)
      (fun () ->
        Sched.run sched ~main:(fun m ->
            let chs = Array.init chans (fun _ -> Sched.new_channel sched m) in
            let env0 = reg0_from_fiber s m src in
            let futs =
              Array.mapi
                (fun f sc ->
                  Sched.spawn sched m ~env:[| env0 |]
                    (mix_fiber s sched chs sc outcomes.(f)))
                scripts
            in
            (* Run ahead so the fibers start and park, then close the
               channels under them one at a time. *)
            Ctx.charge_work s.ctx m
              ~cycles:(float_of_int (abs seed mod 4) *. 400_000.);
            Sched.yield sched m;
            Array.iter
              (fun ch ->
                Sched.close_channel sched ch;
                Sched.yield sched m)
              chs;
            let cells =
              Array.map
                (fun f -> Roots.add m.Ctx.roots (Sched.await sched m f))
                futs
            in
            (* Fiber [f]'s k-th received message is field k of its result. *)
            let taken = ref [] in
            Array.iteri
              (fun f outs ->
                let k = ref 0 in
                Array.iter
                  (function
                    | Took (_, Some id) ->
                        taken := (id, f, !k) :: !taken;
                        incr k
                    | _ -> ())
                  outs)
              outcomes;
            let out =
              match List.sort compare !taken with
              | [] -> Value.of_int 0
              | taken ->
                  Alloc.alloc_vector s.ctx m
                    (Array.of_list
                       (List.map
                          (fun (_, f, k) ->
                            let r =
                              Ctx.resolve s.ctx m (Roots.get cells.(f))
                            in
                            Ctx.get_field s.ctx m (Value.to_ptr r) k)
                          taken))
            in
            Array.iter (Roots.remove m.Ctx.roots) cells;
            out))
  in
  let ids = mix_model scripts outcomes in
  if Roots.count s.ctx.Ctx.global_roots <> globals0 then
    raise
      (Divergence
         (Printf.sprintf "chanmix: %d global roots before the phase, %d after"
            globals0 (Roots.count s.ctx.Ctx.global_roots)));
  if proxy_count s <> proxies0 then
    raise
      (Divergence
         (Printf.sprintf "chanmix: %d proxies before the phase, %d after"
            proxies0 (proxy_count s)));
  set_reg s 0 dst result
    (if ids = [] then Shadow.Imm 0
     else
       Shadow.vec s.sh
         (List.map (fun id -> Shadow.vec s.sh [ Shadow.Imm id; ssrc ]) ids))

let apply s (op : Op.t) =
  match op with
  | Alloc_vec { vproc; dst; srcs } ->
      if srcs <> [] then begin
        let v = vp s vproc and dst = rg dst in
        let srcs = List.map (fun r -> rg r) srcs in
        let fields = Array.of_list (List.map (fun r -> Roots.get s.regs.(v).(r)) srcs) in
        let value = Alloc.alloc_vector s.ctx (mut s v) fields in
        set_reg s v dst value
          (Shadow.vec s.sh (List.map (fun r -> s.sregs.(v).(r)) srcs))
      end
  | Alloc_fill_vec { vproc; dst; len; src } ->
      let v = vp s vproc and dst = rg dst and src = rg src in
      let len = clamp_len len in
      let value =
        Alloc.alloc_vector s.ctx (mut s v)
          (Array.make len (Roots.get s.regs.(v).(src)))
      in
      set_reg s v dst value (Shadow.fill_vec s.sh ~len s.sregs.(v).(src))
  | Alloc_raw { vproc; dst; words; fill } ->
      let v = vp s vproc and dst = rg dst in
      let words = clamp_words words in
      let m = mut s v in
      let value = Alloc.alloc_raw s.ctx m ~words in
      let ws =
        Array.init words (fun i ->
            let w = Shadow.raw_word ~fill i in
            Alloc.init_raw_word s.ctx m value i w;
            w)
      in
      set_reg s v dst value (Shadow.raw s.sh ws)
  | Alloc_ref { vproc; dst; src } ->
      let v = vp s vproc and dst = rg dst and src = rg src in
      let value = Mut.alloc_ref s.ctx (mut s v) (Roots.get s.regs.(v).(src)) in
      set_reg s v dst value (Shadow.ref_cell s.sh s.sregs.(v).(src))
  | Set_field { vproc; obj; idx; src } -> (
      let v = vp s vproc and obj = rg obj and src = rg src in
      match s.sregs.(v).(obj) with
      | Shadow.Obj node when Array.length node.Shadow.fields > 0 ->
          let idx = abs idx mod Array.length node.Shadow.fields in
          Mut.set_pointer_field s.ctx (mut s v)
            (Roots.get s.regs.(v).(obj))
            idx
            (Roots.get s.regs.(v).(src));
          Shadow.set_field node idx s.sregs.(v).(src)
      | _ -> () (* immediate or raw: nothing to mutate *))
  | Copy { vproc; dst; src } ->
      let v = vp s vproc and dst = rg dst and src = rg src in
      set_reg s v dst (Roots.get s.regs.(v).(src)) s.sregs.(v).(src)
  | Drop { vproc; reg; imm } ->
      let v = vp s vproc and reg = rg reg in
      set_reg s v reg (Value.of_int (abs imm)) (Shadow.Imm (abs imm))
  | Promote { vproc; reg } ->
      let v = vp s vproc and reg = rg reg in
      let g = Promote.value s.ctx (mut s v) (Roots.get s.regs.(v).(reg)) in
      Roots.set s.regs.(v).(reg) g (* shadow unchanged: same object *)
  | Share { src_vproc; src; dst_vproc; dst } ->
      let sv = vp s src_vproc and dv = vp s dst_vproc in
      let src = rg src and dst = rg dst in
      let g = Promote.value s.ctx (mut s sv) (Roots.get s.regs.(sv).(src)) in
      Roots.set s.regs.(sv).(src) g;
      (* The receiving vproc acquires [g] OCaml-side, without a heap
         read — the same hand-off as a channel commit, so the same
         explicit taint for the dirty-only ratify. *)
      Ctx.conc_taint s.ctx (mut s dv) g;
      set_reg s dv dst g s.sregs.(sv).(src)
  | Mk_proxy { vproc; slot; src } -> (
      let v = vp s vproc and slot = sl slot and src = rg src in
      match s.sregs.(v).(src) with
      | Shadow.Obj _ as shadow ->
          let m = mut s v in
          let dest = Forward.global_dest s.ctx m ~on_copy:(fun _ _ -> ()) in
          let addr = dest.Forward.alloc_dst ((Proxy.size_words + 1) * 8) in
          Proxy.init s.ctx.Ctx.store ~addr ~owner:m.Ctx.id
            ~referent:(Roots.get s.regs.(v).(src));
          (match s.proxies.(v).(slot) with
          | Some old -> Roots.remove m.Ctx.proxies old
          | None -> ());
          s.proxies.(v).(slot) <-
            Some (Roots.add m.Ctx.proxies (Value.of_ptr addr));
          s.sproxies.(v).(slot) <- Some shadow
      | _ -> () (* proxies stand for heap objects only *))
  | Drop_proxy { vproc; slot } -> (
      let v = vp s vproc and slot = sl slot in
      match s.proxies.(v).(slot) with
      | Some cell ->
          Roots.remove (mut s v).Ctx.proxies cell;
          s.proxies.(v).(slot) <- None;
          s.sproxies.(v).(slot) <- None
      | None -> ())
  | Minor { vproc } -> Minor_gc.run s.ctx (mut s (vp s vproc))
  | Major { vproc } -> Major_gc.run s.ctx (mut s (vp s vproc))
  | Global -> (
      (* Run the configured collector to completion; under the
         concurrent collector this also ratifies any cycle a Global_step
         or safe point left in flight. *)
      match s.cfg.params.Params.global_gc_mode with
      | Params.Stw -> Global_gc.run s.ctx
      | Params.Concurrent -> Concurrent_gc.run s.ctx)
  | Request_global -> Ctx.request_global_gc s.ctx
  | Global_step -> (
      match s.cfg.params.Params.global_gc_mode with
      | Params.Stw -> () (* no incremental cycle to advance *)
      | Params.Concurrent ->
          if Concurrent_gc.active s.ctx then ignore (Concurrent_gc.step s.ctx)
          else Concurrent_gc.start s.ctx)
  | Sched_phase { seed; fibers; src; dst } ->
      sched_phase s ~seed ~fibers ~src:(rg src) ~dst:(rg dst)
  | Chan_phase { seed; msgs; src; dst } ->
      chan_phase s ~seed ~msgs ~src:(rg src) ~dst:(rg dst)
  | Session_phase { seed; reqs; src; dst } ->
      session_phase s ~seed ~reqs ~src:(rg src) ~dst:(rg dst)
  | Chan_mix { seed; fibers; chans; steps; src; dst } ->
      chan_mix s ~seed ~fibers ~chans ~steps ~src:(rg src) ~dst:(rg dst)
  | Check -> check s

(* ------------------------------------------------------------------ *)
(* Running a trace                                                     *)
(* ------------------------------------------------------------------ *)

let run_trace ?(cfg = default_cfg) (ops : Op.t list) : outcome =
  Forward.set_test_corrupt_copy cfg.corrupt_copy;
  Fun.protect ~finally:(fun () -> Forward.set_test_corrupt_copy 0)
  @@ fun () ->
  let s = mk_state cfg in
  if cfg.check_after_gc then
    Ctx.set_on_collection s.ctx
      (Some
         (fun _ _ ->
           s.collections <- s.collections + 1;
           check s));
  let n = List.length ops in
  (* The dump is taken at the moment of failure, while the rings still
     hold the events leading up to it. *)
  let fail ~op_index message =
    Failed { op_index; message; events = Obs.Recorder.to_string s.ctx.Ctx.obs }
  in
  let rec go i = function
    | [] -> (
        (* end-of-program check, attributed past the last op *)
        match check s with
        | () -> Passed { checks = s.checks; collections = s.collections }
        | exception Divergence msg -> fail ~op_index:n msg)
    | op :: rest -> (
        match apply s op with
        | () -> go (i + 1) rest
        | exception Divergence msg -> fail ~op_index:i msg
        | exception e ->
            let bt = Printexc.get_backtrace () in
            fail ~op_index:i
              ("exception: " ^ Printexc.to_string e
              ^ if bt = "" then "" else "\n" ^ bt))
  in
  go 0 ops

let failed = function Failed _ -> true | Passed _ -> false

let pp_outcome ppf = function
  | Passed { checks; collections } ->
      Format.fprintf ppf "passed (%d checks over %d collections)" checks
        collections
  | Failed { op_index; message; _ } ->
      Format.fprintf ppf "FAILED at op %d: %s" op_index message
