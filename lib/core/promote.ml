open Heap

let is_local _ctx (m : Ctx.mutator) v =
  Value.is_ptr v && Local_heap.in_heap m.Ctx.lh (Value.to_ptr v)

(* The fixed machinery cost of one promotion cycle: saving the mutator
   state, setting up the scan, and the fence-equivalent publish at the
   end.  Paid once per [value] call and once per batch. *)
let charge_spinup ctx m =
  Ctx.charge_work ctx m ~cycles:Params.promote_spinup_cycles

let value ?(reason = Obs.Gc_cause.Explicit) ctx (m : Ctx.mutator) v =
  if not (is_local ctx m v) then v
  else begin
    let cause = Obs.Gc_cause.Promotion reason in
    let t_start = m.Ctx.now_ns in
    let was_in_gc = m.Ctx.in_gc in
    Ctx.set_in_gc m true;
    Ctx.enter_collection ctx;
    Ctx.emit ctx m (Obs.Event.Coll_begin { kind = Promotion; cause });
    charge_spinup ctx m;
    let lh = m.Ctx.lh in
    let in_from a = Local_heap.in_heap lh a in
    let promoted = ref 0 in
    let pending = Queue.create () in
    let dest =
      Forward.global_dest ctx m ~on_copy:(fun dst bytes ->
          promoted := !promoted + bytes;
          Queue.add dst pending)
    in
    let dst = Forward.evacuate ctx m ~dest (Value.to_ptr v) in
    while not (Queue.is_empty pending) do
      Forward.scan_fields ctx m ~dest ~in_from (Queue.pop pending)
    done;
    Ctx.span ctx m Promotion ~cause ~t_start ~bytes:!promoted;
    Ctx.set_in_gc m was_in_gc;
    Ctx.exit_collection ctx Gc_trace.Promotion;
    (* Mid-cycle, the local forward word followed by [evacuate] can point
       at condemned from-space: the caller is about to stash that address,
       which is exactly the re-acquisition the dirty-ratify test must
       see — but the read happened in collector context, outside the
       read-taint.  Taint explicitly. *)
    Ctx.conc_taint ctx m (Value.of_ptr dst);
    Value.of_ptr dst
  end

(* A promotion write buffer (ROADMAP item 4).  Several roots promoted
   through one buffer share a single cycle: the machinery spin-up is
   charged once (at the first local root), the [Forward.global_dest] —
   and therefore the current chunk cursor — is reused across roots so
   the copies pack into one allocation run, and the whole batch counts
   as one [promote_count] cycle with one pause record at [batch_end]
   (the fence-equivalent publish).

   Each [batch_add] still drains the scan queue completely and brackets
   itself with [Ctx.enter_collection]/[exit_collection], so the heap is
   consistent — no white objects, no dangling scan work — between adds.
   A global collection requested mid-batch is therefore safe: it is
   deferred to a safe point anyway, and the buffer holds no
   un-forwarded addresses across adds. *)
type batch = {
  b_ctx : Ctx.t;
  b_m : Ctx.mutator;
  b_cause : Obs.Gc_cause.t;
  b_dest : Forward.dest;
  b_pending : int Queue.t;
  b_bytes : int ref;  (* filled in by the dest's on_copy closure *)
  mutable b_values : int;  (* local roots actually copied *)
  mutable b_pause_ns : float;
  mutable b_spun_up : bool;
  mutable b_open : bool;
}

let batch_begin ?(reason = Obs.Gc_cause.Explicit) ctx (m : Ctx.mutator) =
  let bytes = ref 0 in
  let pending = Queue.create () in
  let dest =
    Forward.global_dest ctx m ~on_copy:(fun dst n ->
        bytes := !bytes + n;
        Queue.add dst pending)
  in
  {
    b_ctx = ctx;
    b_m = m;
    b_cause = Obs.Gc_cause.Promotion_batched reason;
    b_dest = dest;
    b_pending = pending;
    b_bytes = bytes;
    b_values = 0;
    b_pause_ns = 0.;
    b_spun_up = false;
    b_open = true;
  }

let batch_add b v =
  if not b.b_open then invalid_arg "Promote.batch_add: batch already ended";
  let ctx = b.b_ctx and m = b.b_m in
  if not (is_local ctx m v) then v
  else begin
    let t_start = m.Ctx.now_ns in
    let was_in_gc = m.Ctx.in_gc in
    Ctx.set_in_gc m true;
    Ctx.enter_collection ctx;
    if not b.b_spun_up then begin
      b.b_spun_up <- true;
      (* The whole batch is one recorded collection: its Coll_begin is
         the first copying add, its Coll_end the publish in
         [batch_end]. *)
      Ctx.emit ctx m
        (Obs.Event.Coll_begin { kind = Promotion; cause = b.b_cause });
      charge_spinup ctx m
    end;
    let in_from a = Local_heap.in_heap m.Ctx.lh a in
    let dst = Forward.evacuate ctx m ~dest:b.b_dest (Value.to_ptr v) in
    while not (Queue.is_empty b.b_pending) do
      Forward.scan_fields ctx m ~dest:b.b_dest ~in_from (Queue.pop b.b_pending)
    done;
    b.b_values <- b.b_values + 1;
    Ctx.set_in_gc m was_in_gc;
    Ctx.exit_collection ctx Gc_trace.Promotion;
    b.b_pause_ns <- b.b_pause_ns +. (m.Ctx.now_ns -. t_start);
    (* Same re-acquisition taint as [value]: a batched promote can hand
       back a condemned from-space address too. *)
    Ctx.conc_taint ctx m (Value.of_ptr dst);
    Value.of_ptr dst
  end

let batch_end b =
  if b.b_open then begin
    b.b_open <- false;
    let ctx = b.b_ctx and m = b.b_m in
    if b.b_values > 0 then
      (* One pause spanning the accrued copy time; the quiet gaps
         between adds (mutator work) are not promotion pause. *)
      Ctx.span ctx m Promotion ~batched:b.b_values ~cause:b.b_cause
        ~t_start:(m.Ctx.now_ns -. b.b_pause_ns)
        ~bytes:!(b.b_bytes)
  end

let batch_values b = b.b_values

let batch ?reason ctx m vs =
  if not (Array.exists (is_local ctx m) vs) then Array.copy vs
  else begin
    let b = batch_begin ?reason ctx m in
    let out = Array.map (batch_add b) vs in
    batch_end b;
    out
  end
