let line_bits = 6
let line_bytes = 1 lsl line_bits

type filter = {
  l2_tags : int array array;
  set_mask : int;
  hits : int array;
  l2_hit_ns : float;
}

type t = {
  topo : Topology.t;
  vproc_node : int array;
  l2 : Cache.t array; (* per vproc: models the private L1+L2 *)
  l3 : Cache.t array; (* per node *)
  banks : Contention.t array; (* per node *)
  links : Contention.t array array; (* directed, per (src, dst) pair *)
  l3_hit_ns : float;
  filter : filter;
}

let create ?(cap_scale = 1.) topo ~n_vprocs ~vproc_node =
  if n_vprocs <= 0 then invalid_arg "Cost_model.create";
  let n = Topology.n_nodes topo in
  let l2 =
    Array.init n_vprocs (fun _ ->
        Cache.create ~size_kb:topo.Topology.l2_kb ~line_bytes)
  in
  {
    topo;
    vproc_node = Array.init n_vprocs vproc_node;
    l2;
    l3 =
      Array.init n (fun _ ->
          Cache.create ~size_kb:topo.Topology.l3_usable_kb ~line_bytes);
    banks =
      Array.init n (fun i ->
          Contention.create ~gb_per_s:topo.Topology.bw.(i).(i) ~cap_scale ());
    links =
      Array.init n (fun src ->
          Array.init n (fun dst ->
              Contention.create ~gb_per_s:topo.Topology.bw.(src).(dst)
                ~cap_scale ()));
    l3_hit_ns = 40. /. topo.Topology.ghz;
    filter =
      {
        l2_tags = Array.map Cache.tags l2;
        set_mask = Cache.set_mask l2.(0);
        hits = Array.make n_vprocs 0;
        l2_hit_ns = 12. /. topo.Topology.ghz;
      };
  }

let topology t = t.topo
let vproc_node t v = t.vproc_node.(v)
let filter t = t.filter

(* The cost of one line fill from [dst]'s memory into [src]'s caches.
   The transfer crosses [dst]'s bank, plus the [src -> dst] link when it
   leaves its node, and each adds its service time and queueing
   overflow.  Service is pipelinable: on a prefetch [stream] it hides
   under the fill latency [lat].  Overflow is not. *)
let fill t ~src ~dst ~lat ~stream ~now_ns =
  let bank = t.banks.(dst) in
  let bank_d = Contention.charge bank ~now_ns ~bytes:line_bytes in
  let service = ref (Contention.service_ns bank ~bytes:line_bytes) in
  let overflow = ref (bank_d -. !service) in
  if src <> dst then begin
    let link = t.links.(src).(dst) in
    let link_d = Contention.charge link ~now_ns ~bytes:line_bytes in
    let link_s = Contention.service_ns link ~bytes:line_bytes in
    service := Float.max !service link_s;
    overflow := Float.max !overflow (link_d -. link_s)
  end;
  (if stream then Float.max lat !service else lat +. !service) +. !overflow

let access t ~vproc ~dst_node ~addr ~bytes ~now_ns =
  let src = t.vproc_node.(vproc) in
  let l2 = t.l2.(vproc) and l3 = t.l3.(src) in
  let first_line = addr / line_bytes
  and last_line = (addr + bytes - 1) / line_bytes in
  let cost = ref 0. in
  for line = first_line to last_line do
    let la = line * line_bytes in
    if Cache.access l2 la then cost := !cost +. t.filter.l2_hit_ns
    else if Cache.access l3 la then cost := !cost +. t.l3_hit_ns
    else
      (* Later lines of one access start after the earlier ones finish,
         so the queueing model must see the advanced clock. *)
      cost :=
        !cost
        +. fill t ~src ~dst:dst_node
             ~lat:t.topo.Topology.latency.(src).(dst_node)
             ~stream:false ~now_ns:(now_ns +. !cost)
  done;
  !cost

let bulk t ~vproc ~dst_node ~addr ~bytes ~now_ns =
  let src = t.vproc_node.(vproc) in
  let l2 = t.l2.(vproc) and l3 = t.l3.(src) in
  let first_line = addr / line_bytes
  and last_line = (addr + bytes - 1) / line_bytes in
  let cost = ref 0. in
  (* Sequential streams are prefetch-friendly: the fill latency is paid in
     full only once per [prefetch_depth] lines and amortized otherwise,
     while the bandwidth term is always paid — so saturating streams are
     bandwidth-bound, as on real hardware. *)
  let depth = 16 in
  for line = first_line to last_line do
    let la = line * line_bytes in
    let hit2 = Cache.access l2 la in
    let hit3 = hit2 || Cache.access l3 la in
    let full = line land (depth - 1) = 0 in
    let c =
      if hit2 then t.filter.l2_hit_ns
      else if hit3 then
        if full then t.l3_hit_ns else t.l3_hit_ns /. float_of_int depth
      else begin
        (* Streaming: the prefetch pipeline hides the transfer's service
           time under the (amortized) latency, but queueing overflow on a
           saturated bank or link cannot be hidden. *)
        let lat = t.topo.Topology.latency.(src).(dst_node) in
        let lat = if full then lat else lat /. float_of_int depth in
        fill t ~src ~dst:dst_node ~lat ~stream:true ~now_ns:(now_ns +. !cost)
      end
    in
    cost := !cost +. c
  done;
  !cost

let work t ~cycles = cycles /. t.topo.Topology.ghz
let bank_total_bytes t ~node = Contention.total_bytes t.banks.(node)

let hit_rate ~hits ~misses =
  let h = float_of_int hits and m = float_of_int misses in
  if h +. m = 0. then 0. else h /. (h +. m)

let l2_hit_rate t ~vproc =
  let c = t.l2.(vproc) in
  hit_rate ~hits:(Cache.hits c + t.filter.hits.(vproc)) ~misses:(Cache.misses c)

let l3_hit_rate t ~node =
  let c = t.l3.(node) in
  hit_rate ~hits:(Cache.hits c) ~misses:(Cache.misses c)
