(* The reference oracle for the access fast path: the cost model as it
   was before the fast path, kept verbatim in algorithm.  Its cache
   finds a way and then promotes it; its [access] and [bulk] probe every
   line; its contention meters count windows in an [int].  The fast-path
   tests demand bit-identical costs and identical hit counts and bank
   traffic from the simulator. *)

open Numa

(* The windowed leaky bucket of [Numa.Contention], with the window index
   kept as an [int] and the idle-window count converted from it. *)
module Contention = struct
  type t = {
    gb_per_s : float;
    cap_gb_per_s : float;
    window_ns : float;
    cap_bytes : float;
    mutable window : int;
    mutable bytes : float;
    mutable total : float;
  }

  let create ~gb_per_s ?(cap_scale = 1.) ?(window_ns = 100_000.) () =
    let cap_gb_per_s = gb_per_s /. cap_scale in
    {
      gb_per_s;
      cap_gb_per_s;
      window_ns;
      cap_bytes = cap_gb_per_s *. window_ns;
      window = 0;
      bytes = 0.;
      total = 0.;
    }

  let roll t now_ns =
    let w = int_of_float (now_ns /. t.window_ns) in
    if w > t.window then begin
      let carry = Float.max 0. (t.bytes -. t.cap_bytes) in
      let idle = float_of_int (w - t.window - 1) in
      t.bytes <- Float.max 0. (carry -. (idle *. t.cap_bytes));
      t.window <- w
    end

  let overflow_scale = 40.

  let charge t ~now_ns ~bytes =
    roll t now_ns;
    let b = float_of_int bytes in
    let over0 = Float.max 0. (t.bytes -. t.cap_bytes) in
    t.bytes <- t.bytes +. b;
    t.total <- t.total +. b;
    let over1 = Float.max 0. (t.bytes -. t.cap_bytes) in
    let u = t.bytes /. t.cap_bytes in
    (b /. t.gb_per_s)
    +. ((over1 -. over0) *. overflow_scale *. u /. t.cap_gb_per_s)

  let service_ns t ~bytes = float_of_int bytes /. t.gb_per_s
  let total_bytes t = t.total
end

module Cache = struct
  type t = {
    line_bits : int;
    set_mask : int;
    ways : int;
    tags : int array;
    mutable hits : int;
    mutable misses : int;
  }

  let rec log2_floor n = if n <= 1 then 0 else 1 + log2_floor (n / 2)

  let create ~size_kb ~line_bytes =
    let ways = 4 in
    let line_bits = log2_floor line_bytes in
    let n_lines = max ways (size_kb * 1024 / line_bytes) in
    let n_sets = max 1 (1 lsl log2_floor (n_lines / ways)) in
    {
      line_bits;
      set_mask = n_sets - 1;
      ways;
      tags = Array.make (n_sets * ways) (-1);
      hits = 0;
      misses = 0;
    }

  let find t line =
    let base = (line land t.set_mask) * t.ways in
    let rec go i =
      if i >= t.ways then -1 else if t.tags.(base + i) = line then i else go (i + 1)
    in
    (base, go 0)

  let promote_way t base i =
    let line = t.tags.(base + i) in
    for j = i downto 1 do
      t.tags.(base + j) <- t.tags.(base + j - 1)
    done;
    t.tags.(base) <- line

  let access t addr =
    let line = addr lsr t.line_bits in
    let base, i = find t line in
    if i >= 0 then begin
      t.hits <- t.hits + 1;
      if i > 0 then promote_way t base i;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      for j = t.ways - 1 downto 1 do
        t.tags.(base + j) <- t.tags.(base + j - 1)
      done;
      t.tags.(base) <- line;
      false
    end
end

let line_bytes = 64

type t = {
  topo : Topology.t;
  vproc_node : int array;
  l2 : Cache.t array;
  l3 : Cache.t array;
  banks : Contention.t array;
  links : Contention.t array array;
  l2_hit_ns : float;
  l3_hit_ns : float;
}

let create ?(cap_scale = 1.) topo ~n_vprocs ~vproc_node =
  let n = Topology.n_nodes topo in
  {
    topo;
    vproc_node = Array.init n_vprocs vproc_node;
    l2 =
      Array.init n_vprocs (fun _ ->
          Cache.create ~size_kb:topo.Topology.l2_kb ~line_bytes);
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
    l2_hit_ns = 12. /. topo.Topology.ghz;
    l3_hit_ns = 40. /. topo.Topology.ghz;
  }

let transfer_delay t ~src ~dst ~now_ns =
  let bank_d = Contention.charge t.banks.(dst) ~now_ns ~bytes:line_bytes in
  let bank_s = Contention.service_ns t.banks.(dst) ~bytes:line_bytes in
  if src = dst then (bank_s, bank_d -. bank_s)
  else begin
    let link = t.links.(src).(dst) in
    let link_d = Contention.charge link ~now_ns ~bytes:line_bytes in
    let link_s = Contention.service_ns link ~bytes:line_bytes in
    (Float.max bank_s link_s, Float.max (bank_d -. bank_s) (link_d -. link_s))
  end

let line_fill t ~src ~dst ~now_ns =
  let service, overflow = transfer_delay t ~src ~dst ~now_ns in
  t.topo.Topology.latency.(src).(dst) +. service +. overflow

let access t ~vproc ~dst_node ~addr ~bytes ~now_ns =
  let src = t.vproc_node.(vproc) in
  let l2 = t.l2.(vproc) and l3 = t.l3.(src) in
  let first_line = addr / line_bytes
  and last_line = (addr + bytes - 1) / line_bytes in
  let cost = ref 0. in
  for line = first_line to last_line do
    let la = line * line_bytes in
    if Cache.access l2 la then cost := !cost +. t.l2_hit_ns
    else if Cache.access l3 la then cost := !cost +. t.l3_hit_ns
    else
      cost :=
        !cost +. line_fill t ~src ~dst:dst_node ~now_ns:(now_ns +. !cost)
  done;
  !cost

let bulk t ~vproc ~dst_node ~addr ~bytes ~now_ns =
  let src = t.vproc_node.(vproc) in
  let l2 = t.l2.(vproc) and l3 = t.l3.(src) in
  let first_line = addr / line_bytes
  and last_line = (addr + bytes - 1) / line_bytes in
  let cost = ref 0. in
  let depth = 16 in
  for line = first_line to last_line do
    let la = line * line_bytes in
    let hit2 = Cache.access l2 la in
    let hit3 = hit2 || Cache.access l3 la in
    let full = line land (depth - 1) = 0 in
    let c =
      if hit2 then t.l2_hit_ns
      else if hit3 then
        if full then t.l3_hit_ns else t.l3_hit_ns /. float_of_int depth
      else begin
        let lat = t.topo.Topology.latency.(src).(dst_node) in
        let lat = if full then lat else lat /. float_of_int depth in
        let service, overflow =
          transfer_delay t ~src ~dst:dst_node ~now_ns:(now_ns +. !cost)
        in
        Float.max lat service +. overflow
      end
    in
    cost := !cost +. c
  done;
  !cost

let bank_total_bytes t ~node = Contention.total_bytes t.banks.(node)

let hit_rate (c : Cache.t) =
  let h = float_of_int c.hits and m = float_of_int c.misses in
  if h +. m = 0. then 0. else h /. (h +. m)

let l2_hit_rate t ~vproc = hit_rate t.l2.(vproc)
let l3_hit_rate t ~node = hit_rate t.l3.(node)
