(* Host cost of each layer's public entry point, measured in fixed loops
   on contexts built beforehand: set-up stays outside every span.  Each
   span also checks, from counter deltas, that it did only its own
   layer's work — the allocation span must not collect, the minor span
   must not run a major, and so on. *)

open Heap
open Manticore_gc
open Runtime

type result = {
  values : (string * float) list;  (* per-layer metric -> host cost *)
  isolated : bool;  (* every span's counter deltas matched *)
}

let counts (ctx : Ctx.t) =
  let st = Gc_stats.total (Array.map (fun (m : Ctx.mutator) -> m.Ctx.stats) ctx.Ctx.muts) in
  [ ("minor", st.Gc_stats.minor_count);
    ("major", st.Gc_stats.major_count);
    ("promote", st.Gc_stats.promote_count);
    ("global", ctx.Ctx.stats.Gc_stats.global_count) ]

(* Time [f] as one span of layer [name]; [expect] lists the range
   [(counter, lo, hi)] each moving counter's delta must fall in
   (unlisted counters must not move). *)
let span ?ctx ?(expect = []) ~ok name f =
  let before = Option.map counts ctx in
  let t0 = Sys.time () in
  f ();
  let t1 = Sys.time () in
  let deltas =
    match (ctx, before) with
    | Some c, Some b -> List.map2 (fun (k, x) (_, y) -> (k, y - x)) b (counts c)
    | _ -> []
  in
  let matches =
    List.for_all
      (fun (k, d) ->
        match List.find_opt (fun (k', _, _) -> k' = k) expect with
        | Some (_, lo, hi) -> lo <= d && d <= hi
        | None -> d = 0)
      deltas
  in
  if not matches then begin
    ok := false;
    Printf.eprintf "layer span %s did other layers' work: %s\n%!" name
      (String.concat ", " (List.map (fun (k, d) -> Printf.sprintf "%s %+d" k d) deltas))
  end;
  Spans.add ~cat:"layer" ~name ~t0 ~t1
    (List.map (fun (k, d) -> (k, float_of_int d)) deltas);
  t1 -. t0

let params =
  {
    Params.default with
    Params.capacity_bytes = 64 * 1024 * 1024;
    local_heap_bytes = 64 * 1024;
    chunk_bytes = 8 * 1024;
    nursery_min_bytes = 4 * 1024;
    global_budget_per_vproc = 64 * 1024 * 1024;
  }

let mk_ctx ?(params = params) ~n_vprocs () =
  let ctx =
    Ctx.create ~params ~machine:Numa.Machines.amd48 ~n_vprocs
      ~policy:Sim_mem.Page_policy.Local ()
  in
  Global_gc.install_sync_hook ctx;
  ctx

(* A rooted local chain of [n] cons cells on vproc [m]. *)
let chain ctx (m : Ctx.mutator) n =
  let keep = Roots.add m.Ctx.roots (Value.of_int 0) in
  for i = 1 to n do
    Roots.set keep (Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get keep |])
  done;
  keep

let numa ~reps ~ok =
  let cost =
    Numa.Cost_model.create Numa.Machines.amd48 ~n_vprocs:48
      ~vproc_node:(fun v -> v / 6)
  in
  let n = 20_000 * reps in
  let s =
    span ~ok "numa" (fun () ->
        for i = 0 to n - 1 do
          ignore
            (Numa.Cost_model.access cost ~vproc:(i mod 48) ~dst_node:(i mod 8)
               ~addr:((i * 4160) land 0xFFFFFF) ~bytes:8 ~now_ns:(float_of_int i))
        done)
  in
  ("numa.access_host_ns", s /. float_of_int n *. 1e9)

let sim_mem ~reps ~ok =
  let mem =
    Sim_mem.Memory.create ~n_nodes:8 ~capacity_bytes:(16 * 1024 * 1024) ~page_bytes:4096
  in
  let pool =
    Sim_mem.Chunk.create_pool (Sim_mem.Page_alloc.create mem) ~chunk_bytes:(8 * 1024)
  in
  let acquire () =
    fst (Sim_mem.Chunk.acquire pool ~policy:Sim_mem.Page_policy.Local ~requester_node:0)
  in
  Sim_mem.Chunk.release pool (acquire ());
  let n = 5_000 * reps in
  let s =
    span ~ok "sim_mem" (fun () ->
        for _ = 1 to n do
          Sim_mem.Chunk.release pool (acquire ())
        done)
  in
  if Sim_mem.Chunk.in_use_count pool <> 0 then ok := false;
  ("sim_mem.chunk_host_ns", s /. float_of_int n *. 1e9)

let heap ~reps ~ok =
  let ctx = mk_ctx ~n_vprocs:16 () in
  for v = 0 to 15 do
    let m = Ctx.mutator ctx v in
    let keep = chain ctx m 400 in
    ignore (Promote.value ctx m (Roots.get keep))
  done;
  let index = ctx.Ctx.store.Store.index in
  let chunks = Array.of_list (Global_heap.in_use ctx.Ctx.global) in
  let addrs =
    Array.init 4096 (fun i ->
        let c = chunks.(i * 97 mod Array.length chunks) in
        c.Sim_mem.Chunk.base + (i * 104729 mod c.Sim_mem.Chunk.bytes / 8 * 8))
  in
  let n = 20_000 * reps in
  let s =
    span ~ctx ~ok "heap" (fun () ->
        for i = 0 to n - 1 do
          let a = Array.unsafe_get addrs (i land 4095) in
          ignore (Heap_index.local_owner index a);
          ignore (Heap_index.find_chunk index a)
        done)
  in
  ("heap.classify_host_ns", s /. float_of_int n *. 1e9)

let alloc ~reps ~ok =
  let ctx = mk_ctx ~n_vprocs:1 () in
  let m = Ctx.mutator ctx 0 in
  let batch = 400 in
  let total = ref 0. in
  for _ = 1 to 10 * reps do
    Minor_gc.run ctx m;
    total :=
      !total
      +. span ~ctx ~ok "alloc" (fun () ->
             for i = 1 to batch do
               ignore (Alloc.alloc_vector ctx m [| Value.of_int i; Value.of_int i |])
             done)
  done;
  ("alloc.vector_host_ns", !total /. float_of_int (10 * reps * batch) *. 1e9)

let minor ~reps ~ok =
  let ctx = mk_ctx ~n_vprocs:1 () in
  let m = Ctx.mutator ctx 0 in
  let n = 20 * reps in
  let total = ref 0. in
  for _ = 1 to n do
    Major_gc.run ctx m;
    let keep = chain ctx m 200 in
    total :=
      !total +. span ~ctx ~ok ~expect:[ ("minor", 1, 1) ] "minor" (fun () -> Minor_gc.run ctx m);
    Roots.remove m.Ctx.roots keep
  done;
  ("minor.host_us", !total /. float_of_int n *. 1e6)

let promote ~reps ~ok =
  let ctx = mk_ctx ~n_vprocs:1 () in
  let m = Ctx.mutator ctx 0 in
  let n = 20 * reps in
  let total = ref 0. in
  for _ = 1 to n do
    let keep = chain ctx m 100 in
    total :=
      !total
      +. span ~ctx ~ok ~expect:[ ("promote", 1, 1) ] "promote" (fun () ->
             ignore (Promote.value ctx m (Roots.get keep)));
    Roots.remove m.Ctx.roots keep
  done;
  ("promote.host_us", !total /. float_of_int n *. 1e6)

(* ~0.5 MB of promoted chains across four vprocs: the live data every
   global cycle below copies.  A global cycle runs every vproc's major
   (and, when its nursery is not empty, minor) collection as its own
   first phase (paper §3.4), so those deltas belong to the span. *)
let vprocs = 4
let global_expect = [ ("global", 1, 1); ("major", vprocs, vprocs); ("minor", 0, vprocs) ]

let ballast mode =
  let ctx = mk_ctx ~params:{ params with Params.global_gc_mode = mode } ~n_vprocs:vprocs () in
  for v = 0 to vprocs - 1 do
    let m = Ctx.mutator ctx v in
    for _ = 1 to 50 do
      let keep = chain ctx m 100 in
      Roots.set keep (Promote.value ctx m (Roots.get keep))
    done
  done;
  ctx

let global ~reps ~ok =
  let ctx = ballast Params.Stw in
  let n = 2 * reps in
  let total = ref 0. in
  for _ = 1 to n do
    total :=
      !total +. span ~ctx ~ok ~expect:global_expect "global" (fun () -> Global_gc.run ctx)
  done;
  ("global.stw_host_ms", !total /. float_of_int n *. 1e3)

let conc ~reps ~ok =
  let ctx = ballast Params.Concurrent in
  let n = 2 * reps in
  let total = ref 0. in
  for _ = 1 to n do
    total :=
      !total +. span ~ctx ~ok ~expect:global_expect "conc" (fun () -> Concurrent_gc.run ctx)
  done;
  ("conc.cycle_host_ms", !total /. float_of_int n *. 1e3)

let sched_span ?expect ~ok name ~n_vprocs ~count main =
  let ctx = mk_ctx ~n_vprocs () in
  let rt = Sched.create ctx in
  let total = ref 0. in
  for _ = 1 to count do
    total :=
      !total +. span ?expect ~ctx ~ok name (fun () -> ignore (Sched.run rt ~main:(main ctx rt)))
  done;
  !total /. float_of_int count *. 1e6

let sched ~reps ~ok =
  let spawns = 64 in
  ( "sched.spawn_await_host_us",
    sched_span ~ok "sched.spawn" ~n_vprocs:4 ~count:(5 * reps) (fun ctx rt m ->
        let futs =
          List.init spawns (fun i ->
              Sched.spawn rt m ~env:[||] (fun m' _ ->
                  Ctx.charge_work ctx m' ~cycles:10_000.;
                  Value.of_int i))
        in
        List.iter (fun f -> ignore (Sched.await rt m f)) futs;
        Value.unit) )

let channel ~reps ~ok =
  ( "sched.channel_host_us",
    (* Creating the channel publishes it: one promotion cycle per run. *)
    sched_span ~expect:[ ("promote", 1, 1) ] ~ok "sched.channel" ~n_vprocs:2
      ~count:(5 * reps) (fun _ rt m ->
        let ch = Sched.new_channel rt m in
        let _ =
          Sched.spawn rt m ~env:[||] (fun m' _ ->
              for i = 1 to 50 do
                Sched.send rt m' ch (Value.of_int i)
              done;
              Value.unit)
        in
        for _ = 1 to 50 do
          ignore (Sched.recv rt m ch)
        done;
        Value.unit) )

let obs ~reps ~ok =
  let r = Obs.Recorder.create ~n_vprocs:8 ~n_nodes:8 ~node_of_vproc:Fun.id () in
  let n = 100_000 * reps in
  let s =
    span ~ok "obs" (fun () ->
        for i = 0 to n - 1 do
          Obs.Recorder.record r ~vproc:(i land 7) ~t_ns:(float_of_int i)
            (Obs.Event.Steal_attempt { victim = i land 7 })
        done)
  in
  ("obs.record_host_ns", s /. float_of_int n *. 1e9)

(* [reps] scales every loop: 10 for the measured run (~0.5 s of spans),
   1 for the self-test. *)
let run ~reps =
  let ok = ref true in
  let values =
    List.map
      (fun probe -> probe ~reps ~ok)
      [ numa; sim_mem; heap; alloc; minor; promote; global; conc; sched; channel; obs ]
  in
  { values; isolated = !ok }
