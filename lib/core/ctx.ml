open Heap
open Sim_mem

(* Per-vproc time accumulators.  All fields are floats, so OCaml stores
   them unboxed and a charge adds to one without allocating. *)
type accum = { mutable gc_ns : float  (* [stats.gc_ns], running ahead *) }

type mutator = {
  id : int;
  node : int;
  lh : Local_heap.t;
  roots : Roots.t;
  proxies : Roots.t;
  remembered : Remember.t;
  mutable now_ns : float;
  mutable in_gc : bool;
  accum : accum;
  stats : Gc_stats.t;
}

(* One global collection's evacuation state, whichever collector runs
   it (Global_cycle): the STW collector builds one per run, the
   concurrent one keeps it in its [conc_state] for the cycle. *)
type evac = {
  ev_cause : Obs.Gc_cause.t;
  mutable ev_from : Sim_mem.Chunk.t list;  (* condemned (from-space) chunks *)
  ev_large : int Queue.t;  (* marked large objects pending a field scan *)
  ev_copied_by : int array;  (* bytes evacuated, per vproc *)
  ev_claims : (int, int) Hashtbl.t;
      (* Chunk.id -> claiming vproc, for parallel evacuation slices:
         helpers prefer unclaimed chunks and pay the claim sync again on
         a takeover, so two slices in one turn scan distinct chunks *)
}

(* In-flight concurrent global collection.  The state lives here (not in
   Concurrent_gc) so the mutator write barrier, the scheduler, and the
   checkers can consult it without a dependency cycle. *)
type conc_state = {
  cg_evac : evac;
  cg_log : Remember.t;
      (* mutation log, active generation (N+1): global slots stored to
         while evacuation is in progress — re-forwarded before the
         collection can finish.  Mutators append here; the collector
         flips it into [cg_drain] and drains that concurrently. *)
  mutable cg_drain : int array;
      (* mutation log, draining generation (N): the address-sorted
         snapshot the collector is working through while mutators keep
         appending to [cg_log].  Only the flip itself needs the barrier. *)
  mutable cg_drain_pos : int;  (* next unprocessed slot in [cg_drain] *)
  cg_entered : bool array;  (* per-vproc root handshake done *)
  cg_keep_done : bool array;
      (* per-vproc overlapped conservative-keep pass done (local
         forwarding words with condemned targets evacuated + retargeted
         concurrently, instead of inside the ratify barrier) *)
  cg_taints : int array;
      (* per-vproc from-space re-acquisition counter: bumped whenever a
         mutator-context read touches a condemned address or returns a
         from-space pointer value (and on channel commits handing one
         over).  Compared against the handshake snapshot to decide
         ratify dirtiness — the handshake leaves the vproc with no
         from-space reference, and re-acquiring one requires exactly
         such a read or hand-off. *)
  cg_hs_taints : int array;  (* cg_taints.(v) at (re-)handshake *)
  cg_reclean : int array;
      (* per-vproc count of concurrent re-clean slices this cycle: a
         vproc that tainted after its handshake is re-handshaken
         barrier-free while the cycle is otherwise quiescent (bounded
         rounds), so the ratify barrier stops only vprocs dirtied since
         their last re-clean *)
  cg_t_start : float;  (* virtual time the collection started *)
  mutable cg_slices : int;
  cg_cycle : int;
      (* 0-based id of this concurrent cycle (the global-collection count
         when it started), threaded through every Conc_* obs event so
         gcprof can reconstruct per-cycle phase timelines *)
}

type t = {
  store : Store.t;
  cost : Numa.Cost_model.t;
  l2_filter : Numa.Cost_model.filter;
  pages : Memory.pages;
  global : Global_heap.t;
  params : Params.t;
  muts : mutator array;
  global_roots : Roots.t;
  mutable global_gc_pending : bool;
  mutable global_budget_bytes : int;
  mutable safe_point_hook : t -> mutator -> unit;
  (* Collection nesting depth: a major runs a minor, a global runs both
     per vproc.  [on_collection] fires only when the outermost collection
     finishes, i.e. when the whole heap is back in a consistent state. *)
  mutable gc_depth : int;
  mutable on_collection : (t -> Gc_trace.kind -> unit) option;
  mutable conc : conc_state option;
  stats : Gc_stats.t;
  trace : Gc_trace.t;
  metrics : Metrics.t;
  obs : Obs.Recorder.t;
}

let create ?(params = Params.default) ?(cap_scale = 1.) ~machine ~n_vprocs
    ~policy () =
  (match Params.validate params with
  | Ok () -> ()
  | Error m -> invalid_arg ("Ctx.create: " ^ m));
  let cores = Numa.Topology.sparse_core_assignment machine n_vprocs in
  let vproc_node v = Numa.Topology.node_of_core machine cores.(v) in
  let store =
    Store.create
      ~n_nodes:(Numa.Topology.n_nodes machine)
      ~capacity_bytes:params.Params.capacity_bytes
      ~page_bytes:params.Params.page_bytes ~policy
  in
  let cost = Numa.Cost_model.create ~cap_scale machine ~n_vprocs ~vproc_node in
  let global =
    Global_heap.create ~affinity:params.Params.chunk_affinity store ~n_vprocs
      ~chunk_bytes:params.Params.chunk_bytes
  in
  let muts =
    Array.init n_vprocs (fun id ->
        let node = vproc_node id in
        (* Stagger (color) heap bases with a one-page spacer: equally
           aligned heaps would put every vproc's hot low pages on the
           same cache sets and the same interleave residue. *)
        ignore
          (Sim_mem.Page_alloc.alloc store.Store.pa ~policy
             ~requester_node:node ~bytes:params.Params.page_bytes);
        {
          id;
          node;
          lh =
            Local_heap.create store ~vproc:id ~node
              ~bytes:params.Params.local_heap_bytes;
          roots = Roots.create ();
          proxies = Roots.create ();
          remembered = Remember.create ();
          now_ns = 0.;
          in_gc = false;
          accum = { gc_ns = 0. };
          stats = Gc_stats.create ();
        })
  in
  {
    store;
    cost;
    l2_filter = Numa.Cost_model.filter cost;
    pages = Memory.pages store.Store.mem;
    global;
    params;
    muts;
    global_roots = Roots.create ();
    global_gc_pending = false;
    global_budget_bytes = n_vprocs * params.Params.global_budget_per_vproc;
    safe_point_hook =
      (fun _ _ ->
        failwith
          "Ctx: global collection pending but no safe-point hook installed \
           (install one with Ctx.set_safe_point_hook or \
           Global_gc.install_sync_hook)");
    gc_depth = 0;
    on_collection = None;
    conc = None;
    stats = Gc_stats.create ();
    trace = Gc_trace.create ();
    metrics = Metrics.create ~n_vprocs ();
    obs =
      Obs.Recorder.create ~n_vprocs
        ~n_nodes:(Numa.Topology.n_nodes machine)
        ~node_of_vproc:vproc_node ();
  }

let mutator t i = t.muts.(i)
let n_vprocs t = Array.length t.muts
let conc_active t = t.conc <> None

let conc_from_chunks t =
  match t.conc with None -> [] | Some st -> st.cg_evac.ev_from
let set_safe_point_hook t f = t.safe_point_hook <- f
let request_global_gc t = t.global_gc_pending <- true
let set_global_budget t b = t.global_budget_bytes <- b

(* Deterministic trigger point instrumentation for checkers (the fuzzer
   re-validates the heap after every top-level collection, including the
   ones allocation triggers implicitly). *)
let set_on_collection t f = t.on_collection <- f
let enter_collection t = t.gc_depth <- t.gc_depth + 1

let exit_collection t kind =
  t.gc_depth <- t.gc_depth - 1;
  if t.gc_depth = 0 then
    match t.on_collection with Some f -> f t kind | None -> ()

(* Enumerate every live root cell the runtime knows about: per-vproc
   roots and proxy cells, and the context-wide global roots.  [f] gets
   the owning vproc (None for global roots) and whether the cell is a
   proxy registration. *)
let iter_all_roots t f =
  Array.iter
    (fun m ->
      Roots.iter m.roots (fun c -> f ~vproc:(Some m.id) ~proxy:false c);
      Roots.iter m.proxies (fun c -> f ~vproc:(Some m.id) ~proxy:true c))
    t.muts;
  Roots.iter t.global_roots (fun c -> f ~vproc:None ~proxy:false c)

(* Recording.  Every collector and scheduler fact is written here, once
   per kind of fact, into the stores that keep it, always in the same
   order: [m]'s Gc_stats counters, the timeline (a no-op unless enabled),
   the metrics, and the flight-recorder ring last. *)

let emit ?t_ns t m ev =
  Obs.Recorder.record t.obs ~vproc:m.id
    ~t_ns:(match t_ns with Some ns -> ns | None -> m.now_ns)
    ev

let span ?(slice = false) ?(batched = 0) t (m : mutator) (kind : Gc_trace.kind)
    ~cause ~t_start ~bytes =
  let s = m.stats in
  (match kind with
  | Minor ->
      s.Gc_stats.minor_count <- s.Gc_stats.minor_count + 1;
      s.Gc_stats.minor_copied_bytes <- s.Gc_stats.minor_copied_bytes + bytes
  | Major ->
      s.Gc_stats.major_count <- s.Gc_stats.major_count + 1;
      s.Gc_stats.major_copied_bytes <- s.Gc_stats.major_copied_bytes + bytes
  | Promotion ->
      s.Gc_stats.promote_count <- s.Gc_stats.promote_count + 1;
      s.Gc_stats.promote_batched_values <-
        s.Gc_stats.promote_batched_values + batched;
      s.Gc_stats.promoted_bytes <- s.Gc_stats.promoted_bytes + bytes
  | Global ->
      s.Gc_stats.global_copied_bytes <- s.Gc_stats.global_copied_bytes + bytes
  | Barrier -> ());
  let now = m.now_ns in
  Gc_trace.record t.trace
    {
      Gc_trace.vproc = m.id;
      kind;
      cause;
      node = m.node;
      t_start_ns = t_start;
      t_end_ns = now;
      bytes;
    };
  Metrics.record_pause
    ?cause:(if slice then None else Some cause)
    ~t_ns:now t.metrics ~vproc:m.id ~kind ~ns:(now -. t_start) ~bytes;
  emit t m (Obs.Event.Coll_end { kind; cause; bytes })

let chunk_acquired t (m : mutator) ~node ~fresh =
  m.stats.Gc_stats.chunk_acquires <- m.stats.Gc_stats.chunk_acquires + 1;
  Metrics.record_chunk_acquire t.metrics ~vproc:m.id;
  emit t m (Obs.Event.Chunk_acquire { node; fresh })

let ratify_outcome t m ~skipped =
  Metrics.record_ratify t.metrics ~vproc:m.id ~skipped

let global_cycle_done t ~copied =
  t.stats.Gc_stats.global_count <- t.stats.Gc_stats.global_count + 1;
  t.stats.Gc_stats.global_copied_bytes <-
    t.stats.Gc_stats.global_copied_bytes + copied

let steal_probe t m ~victim ~success =
  Metrics.record_steal t.metrics ~vproc:m.id ~success;
  emit t m (Obs.Event.Steal_attempt { victim });
  if success then emit t m (Obs.Event.Steal_success { victim })

let request_done t m ~latency_ns =
  Metrics.record_request ~t_ns:m.now_ns t.metrics ~vproc:m.id ~ns:latency_ns;
  emit t m (Obs.Event.Req_done { latency_ns = int_of_float latency_ns })

(* The run's totals: the per-vproc counters summed, with the global
   collections, which only the context counts. *)
let gc_totals t =
  let acc =
    Gc_stats.total (Array.map (fun (m : mutator) -> m.stats) t.muts)
  in
  acc.Gc_stats.global_count <- t.stats.Gc_stats.global_count;
  acc

(* In-collector time accrues unboxed in [m.accum] and is copied to
   [m.stats] when [m] leaves collector context, so [exit_collection]'s
   observers and every reader outside a collection see it exact. *)
let set_in_gc m in_gc =
  m.in_gc <- in_gc;
  if not in_gc then m.stats.Gc_stats.gc_ns <- m.accum.gc_ns

let charge_ns m ns =
  m.now_ns <- m.now_ns +. ns;
  if m.in_gc then m.accum.gc_ns <- m.accum.gc_ns +. ns

let charge_work t m ~cycles = charge_ns m (Numa.Cost_model.work t.cost ~cycles)

(* The access fast path: the cost model's MRU-line filter, run inline
   because every cross-module call is a real call under [-opaque] (see
   DESIGN.md).  A single-line access to a mapped address whose line is
   most recent in its set of this vproc's L2 is an L2 hit that changes
   nothing but the hit count. *)
let charge_access t m addr bytes =
  let v = m.id and line = addr asr Numa.Cost_model.line_bits in
  let f = t.l2_filter and page = addr lsr t.pages.page_bits in
  if
    line = (addr + bytes - 1) asr Numa.Cost_model.line_bits
    && f.l2_tags.(v).((line land f.set_mask) lsl Numa.Cache.way_bits) = line
    && page < Bytes.length t.pages.page_node
    && Bytes.unsafe_get t.pages.page_node page <> Memory.unmapped
  then begin
    f.hits.(v) <- f.hits.(v) + 1;
    charge_ns m f.l2_hit_ns
  end
  else
    let dst_node = Memory.node_of_addr t.store.Store.mem addr in
    charge_ns m
      (Numa.Cost_model.access t.cost ~vproc:v ~dst_node ~addr ~bytes
         ~now_ns:m.now_ns)

let charge_bulk t m addr bytes =
  let dst_node = Memory.node_of_addr t.store.Store.mem addr in
  charge_ns m
    (Numa.Cost_model.bulk t.cost ~vproc:m.id ~dst_node ~addr ~bytes
       ~now_ns:m.now_ns)

(* From-space re-acquisition taint, the concurrent collector's
   dirtiness source: a handshake leaves a vproc holding no from-space
   reference, so to stash one again the mutator must first *read* it —
   either by touching a condemned address (resolving through a stale
   alias) or by loading a word that decodes to a from-space pointer (an
   unscanned to-space slot, or a large object the cycle has not marked).
   Counting those reads lets the ratify barrier skip every vproc whose
   counter is unchanged since its handshake.  Collector-context reads
   ([in_gc]) forward from-space data by design and never taint. *)
let in_condemned t addr =
  match Global_heap.find_chunk t.global addr with
  | Some c -> c.Chunk.from_space
  | None -> false

let conc_taint t m v =
  match t.conc with
  | Some st when (not m.in_gc) && Value.is_ptr v ->
      let p = Value.to_ptr v in
      if in_condemned t p || Global_heap.is_large t.global p then
        st.cg_taints.(m.id) <- st.cg_taints.(m.id) + 1
  | _ -> ()

(* The read taint of a mutator-context load, during cycle [st], of word
   [w] (its low 63 bits) at [addr].  A raw-word pointer test (not
   [Value.of_word], which rejects headers): aligned, nonzero, even — a
   forwarding word to a condemned target counts too, exactly the
   stale-alias case.  Callers test [t.conc] first, inline. *)
let taint_read t m st addr w =
  if
    (not m.in_gc)
    && (in_condemned t addr
       || w <> 0
          && w land 7 = 0
          && (in_condemned t w || Global_heap.is_large t.global w))
  then st.cg_taints.(m.id) <- st.cg_taints.(m.id) + 1

let read_word t m addr =
  charge_access t m addr 8;
  let w = Memory.get t.store.Store.mem addr in
  (match t.conc with None -> () | Some st -> taint_read t m st addr w);
  w

let write_word t m addr w =
  charge_access t m addr 8;
  Memory.set t.store.Store.mem addr w

let touch t m ~addr ~bytes = charge_access t m addr bytes
let bulk_touch t m ~addr ~bytes = charge_bulk t m addr bytes

(* [Obj_repr.field_addr], inline. *)
let field_addr addr i = addr + ((i + 1) * 8)

let get_raw t m addr i =
  let a = field_addr addr i in
  charge_access t m a 8;
  let w = Memory.get_raw t.store.Store.mem a in
  (match t.conc with
  | None -> ()
  | Some st -> taint_read t m st a (Int64.to_int w));
  w

let get_float t m addr i =
  let a = field_addr addr i in
  charge_access t m a 8;
  let mem = t.store.Store.mem in
  (match t.conc with
  | None -> ()
  | Some st -> taint_read t m st a (Int64.to_int (Memory.get_raw mem a)));
  Memory.get_float mem a

let set_raw t m addr i w =
  let a = field_addr addr i in
  charge_access t m a 8;
  Memory.set_raw t.store.Store.mem a w

let set_float t m addr i f =
  let a = field_addr addr i in
  charge_access t m a 8;
  Memory.set_float t.store.Store.mem a f

(* As [read_word], but a header read never raises on the word's value:
   the low 63 bits are the header, as they always were. *)
let header_of t m addr =
  charge_access t m addr 8;
  let h = Memory.get_unchecked t.store.Store.mem addr in
  (match t.conc with None -> () | Some st -> taint_read t m st addr h);
  h

(* Follow forwarding words (even words in header position) from [addr] to
   a real header. *)
let rec resolve_addr t m addr =
  let h = header_of t m addr in
  if h land 1 = 0 then resolve_addr t m h else addr

let resolve t m v =
  let a = (v : Value.t :> int) in
  if a land 1 = 1 || a = 0 then v
  else
    let r = resolve_addr t m a in
    if r = a then v else Value.of_ptr r

(* Field reads resolve forwarding on the returned pointer: an aliased
   object may have been promoted out from under this reference, and in a
   mutation-free heap following the forwarding word is always sound. *)
let get_field t m addr i =
  resolve t m (Value.of_word (read_word t m (field_addr addr i)))

let census t =
  Census.collect t.store
    ~locals:(Array.map (fun m -> m.lh) t.muts)
    ~global:t.global

let check_invariants t =
  (* Mutated old-to-young slots recorded in remembered sets are legal
     transient states; tell the checker which slots those are. *)
  let remembered slot =
    Array.exists (fun m -> Remember.mem m.remembered slot) t.muts
  in
  (* While a concurrent evacuation is in flight, local forwarding words
     may target objects that were themselves evacuated (a chain the
     ratify pause retargets); tell the checker to tolerate them. *)
  Invariants.check t.store ~remembered ~evacuating:(conc_active t)
    ~locals:(Array.map (fun m -> m.lh) t.muts)
    ~global:t.global
