(* Seed-driven program generation.

   The whole op list is drawn from a [Random.State] *before* anything
   executes, so the trace depends on nothing but the seed: the same seed
   always produces the same program regardless of how the runtime
   behaves while running it.  That is what makes a failing seed a
   complete reproducer. *)

type sizes = {
  small_max : int;  (** nursery-path payloads *)
  global_min : int;  (** past [Alloc.max_local_bytes]: direct global *)
  global_max : int;
  large_min : int;  (** past the chunk payload: large-object path *)
  large_max : int;
}

(* Tuned for the test-sized params the engine uses (8 KiB local heaps,
   4 KiB chunks): [global] lands between the local-alloc threshold and
   the chunk capacity, [large] overflows a chunk. *)
let default_sizes =
  { small_max = 16; global_min = 140; global_max = 260;
    large_min = 520; large_max = 620 }

let reg st = Random.State.int st Op.regs_per_vproc
let slot st = Random.State.int st Op.proxy_slots_per_vproc

type profile =
  | Default
  | Steal_message
      (** shift weight onto the sharing ops — promote, share, sched and
          chan phases — to hammer the scheduler's steal/message
          promotion paths (the batched write-buffer publish) *)
  | Sessions
      (** shift weight onto session/chan phases to hammer the server
          workload's lifecycle — open a channel pair, serve
          request/response round trips, and tear down with a recv still
          parked — and onto generated channel programs ([Chan_mix]),
          the only profile that draws them *)
  | Global_heavy
      (** force global collections constantly and interleave them with
          mutation: heavy [Set_field]/ref traffic plus [Request_global]
          and [Global_step] ops, so (under the concurrent collector)
          programs routinely store into claimed-but-unforwarded chunks
          mid-evacuation — the write-barrier extension's worst case *)

(* Cumulative percent thresholds for the op classes, in draw order.
   [Default] is the historical mix; [Steal_message] keeps every class
   reachable but spends roughly half the budget on sharing ops. *)
type weights = {
  w_vec : int;
  w_raw_small : int;
  w_raw_global : int;
  w_raw_large : int;
  w_fillvec : int;
  w_ref : int;
  w_setf : int;
  w_copy : int;
  w_drop : int;
  w_promote : int;
  w_share : int;
  w_mkproxy : int;
  w_dropproxy : int;
  w_minor : int;
  w_major : int;
  w_global : int;
  w_reqglobal : int;
  w_gstep : int;
  w_sched : int;
  w_chan : int;
  w_session : int;
  w_chanmix : int; (* the rest up to 100 is Check *)
}

let default_weights =
  { w_vec = 22; w_raw_small = 30; w_raw_global = 34; w_raw_large = 37;
    w_fillvec = 41; w_ref = 47; w_setf = 59; w_copy = 65; w_drop = 71;
    w_promote = 76; w_share = 81; w_mkproxy = 85; w_dropproxy = 86;
    w_minor = 90; w_major = 93; w_global = 94; w_reqglobal = 95;
    w_gstep = 96; w_sched = 97; w_chan = 98; w_session = 99;
    w_chanmix = 99 }

let steal_message_weights =
  { w_vec = 12; w_raw_small = 17; w_raw_global = 19; w_raw_large = 21;
    w_fillvec = 25; w_ref = 29; w_setf = 35; w_copy = 39; w_drop = 45;
    w_promote = 56; w_share = 70; w_mkproxy = 72; w_dropproxy = 73;
    w_minor = 76; w_major = 79; w_global = 80; w_reqglobal = 81;
    w_gstep = 82; w_sched = 88; w_chan = 94; w_session = 99;
    w_chanmix = 99 }

(* Spend roughly a third of the budget on the scheduler phases, with
   session lifecycles dominating: every op class stays reachable, but
   the generated programs open, serve and tear down sessions over and
   over, interleaved with forced collections.  Only this profile gives
   [Chan_mix] a slice; the others leave it empty, so their programs do
   not change with it. *)
let sessions_weights =
  { w_vec = 10; w_raw_small = 14; w_raw_global = 16; w_raw_large = 18;
    w_fillvec = 21; w_ref = 24; w_setf = 30; w_copy = 33; w_drop = 38;
    w_promote = 43; w_share = 49; w_mkproxy = 51; w_dropproxy = 52;
    w_minor = 56; w_major = 59; w_global = 61; w_reqglobal = 62;
    w_gstep = 63; w_sched = 68; w_chan = 78; w_session = 90;
    w_chanmix = 96 }

(* A fifth of the budget on the global-collection ops themselves (with
   [Global_step] dominating, so cycles routinely hang mid-evacuation
   across many following ops) and another fifth on mutation, so stores
   land in claimed chunks while the evacuation is in flight. *)
let global_heavy_weights =
  { w_vec = 10; w_raw_small = 14; w_raw_global = 18; w_raw_large = 21;
    w_fillvec = 25; w_ref = 31; w_setf = 47; w_copy = 50; w_drop = 54;
    w_promote = 60; w_share = 66; w_mkproxy = 69; w_dropproxy = 71;
    w_minor = 73; w_major = 75; w_global = 80; w_reqglobal = 86;
    w_gstep = 94; w_sched = 95; w_chan = 96; w_session = 97;
    w_chanmix = 97 }

let weights_of = function
  | Default -> default_weights
  | Steal_message -> steal_message_weights
  | Sessions -> sessions_weights
  | Global_heavy -> global_heavy_weights

let op ?(sizes = default_sizes) ?(profile = Default) st ~n_vprocs : Op.t =
  let w = weights_of profile in
  let vp () = Random.State.int st n_vprocs in
  let in_range lo hi = lo + Random.State.int st (hi - lo + 1) in
  let r = Random.State.int st 100 in
  if r < w.w_vec then
    let n = 1 + Random.State.int st 4 in
    Alloc_vec
      { vproc = vp (); dst = reg st; srcs = List.init n (fun _ -> reg st) }
  else if r < w.w_raw_small then
    Alloc_raw
      { vproc = vp (); dst = reg st; words = in_range 1 sizes.small_max;
        fill = Random.State.bits st }
  else if r < w.w_raw_global then
    Alloc_raw
      { vproc = vp (); dst = reg st;
        words = in_range sizes.global_min sizes.global_max;
        fill = Random.State.bits st }
  else if r < w.w_raw_large then
    Alloc_raw
      { vproc = vp (); dst = reg st;
        words = in_range sizes.large_min sizes.large_max;
        fill = Random.State.bits st }
  else if r < w.w_fillvec then
    let len =
      match Random.State.int st 4 with
      | 0 -> in_range sizes.global_min sizes.global_max
      | 1 -> in_range sizes.large_min sizes.large_max
      | _ -> in_range 2 sizes.small_max
    in
    Alloc_fill_vec { vproc = vp (); dst = reg st; len; src = reg st }
  else if r < w.w_ref then Alloc_ref { vproc = vp (); dst = reg st; src = reg st }
  else if r < w.w_setf then
    Set_field
      { vproc = vp (); obj = reg st; idx = Random.State.int st 64;
        src = reg st }
  else if r < w.w_copy then Copy { vproc = vp (); dst = reg st; src = reg st }
  else if r < w.w_drop then
    Drop { vproc = vp (); reg = reg st; imm = Random.State.int st 1000 }
  else if r < w.w_promote then Promote { vproc = vp (); reg = reg st }
  else if r < w.w_share then
    Share
      { src_vproc = vp (); src = reg st; dst_vproc = vp (); dst = reg st }
  else if r < w.w_mkproxy then
    Mk_proxy { vproc = vp (); slot = slot st; src = reg st }
  else if r < w.w_dropproxy then Drop_proxy { vproc = vp (); slot = slot st }
  else if r < w.w_minor then Minor { vproc = vp () }
  else if r < w.w_major then Major { vproc = vp () }
  else if r < w.w_global then Global
  else if r < w.w_reqglobal then Request_global
  else if r < w.w_gstep then Global_step
  else if r < w.w_sched then
    Sched_phase
      { seed = Random.State.bits st; fibers = 1 + Random.State.int st 5;
        src = reg st; dst = reg st }
  else if r < w.w_chan then
    Chan_phase
      { seed = Random.State.bits st; msgs = 1 + Random.State.int st 6;
        src = reg st; dst = reg st }
  else if r < w.w_session then
    Session_phase
      { seed = Random.State.bits st; reqs = 1 + Random.State.int st 5;
        src = reg st; dst = reg st }
  else if r < w.w_chanmix then
    Chan_mix
      { seed = Random.State.bits st; fibers = 2 + Random.State.int st 3;
        chans = 2 + Random.State.int st 2; steps = 1 + Random.State.int st 6;
        src = reg st; dst = reg st }
  else Check

let program ?sizes ?profile ~seed ~n_ops ~n_vprocs () =
  let st = Random.State.make [| seed; 0x6d616e74 (* "mant" *) |] in
  List.init n_ops (fun _ -> op ?sizes ?profile st ~n_vprocs)
