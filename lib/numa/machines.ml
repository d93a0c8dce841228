(* Bandwidths are Table 1 of the paper; latencies are calibrated plausible
   values for the two platforms (the paper reports bandwidths only). *)

let amd48 =
  Topology.make ~name:"amd48" ~n_packages:4 ~nodes_per_package:2
    ~cores_per_node:6 ~ghz:2.1 ~local_bw:21.3 ~same_package_bw:19.2
    ~cross_package_bw:6.4 ~local_lat_ns:85. ~same_package_lat_ns:110.
    ~cross_package_lat_ns:190. ~l1_kb:64 ~l2_kb:512
    ~l3_usable_kb:(5 * 1024)

let intel32 =
  Topology.make ~name:"intel32" ~n_packages:4 ~nodes_per_package:1
    ~cores_per_node:8 ~ghz:2.266 ~local_bw:17.1
    ~same_package_bw:17.1 (* unused: one node per package *)
    ~cross_package_bw:25.6 ~local_lat_ns:90.
    ~same_package_lat_ns:90. ~cross_package_lat_ns:130. ~l1_kb:32 ~l2_kb:256
    ~l3_usable_kb:(21 * 1024)

(* A two-socket Magny-Cours box (24 cores, 4 NUMA nodes) — the class of
   machine the paper's footnote 3 describes GHC struggling with until it
   gained NUMA-aware allocation. *)
let amd24 =
  Topology.make ~name:"amd24" ~n_packages:2 ~nodes_per_package:2
    ~cores_per_node:6 ~ghz:2.1 ~local_bw:21.3 ~same_package_bw:19.2
    ~cross_package_bw:6.4 ~local_lat_ns:85. ~same_package_lat_ns:110.
    ~cross_package_lat_ns:190. ~l1_kb:64 ~l2_kb:512
    ~l3_usable_kb:(5 * 1024)

let tiny4 =
  Topology.make ~name:"tiny4" ~n_packages:2 ~nodes_per_package:1
    ~cores_per_node:2 ~ghz:1.0 ~local_bw:10.0 ~same_package_bw:10.0
    ~cross_package_bw:1.0 ~local_lat_ns:50. ~same_package_lat_ns:50.
    ~cross_package_lat_ns:500. ~l1_kb:16 ~l2_kb:64 ~l3_usable_kb:256

let all = [ amd48; amd24; intel32; tiny4 ]
let by_name name = List.find_opt (fun t -> t.Topology.name = name) all

let with_scaled_caches k (t : Topology.t) =
  if k <= 0 then invalid_arg "Machines.with_scaled_caches";
  Topology.make ~name:t.Topology.name ~n_packages:t.Topology.n_packages
    ~nodes_per_package:t.Topology.nodes_per_package
    ~cores_per_node:t.Topology.cores_per_node ~ghz:t.Topology.ghz
    ~local_bw:t.Topology.bw.(0).(0)
    ~same_package_bw:
      (if t.Topology.nodes_per_package > 1 then t.Topology.bw.(0).(1)
       else t.Topology.bw.(0).(0))
    ~cross_package_bw:t.Topology.bw.(0).(Topology.n_nodes t - 1)
    ~local_lat_ns:t.Topology.latency.(0).(0)
    ~same_package_lat_ns:
      (if t.Topology.nodes_per_package > 1 then t.Topology.latency.(0).(1)
       else t.Topology.latency.(0).(0))
    ~cross_package_lat_ns:t.Topology.latency.(0).(Topology.n_nodes t - 1)
    ~l1_kb:(max 4 (t.Topology.l1_kb / k))
    ~l2_kb:(max 4 (t.Topology.l2_kb / k))
    ~l3_usable_kb:(max 16 (t.Topology.l3_usable_kb / k))
