(** The two evaluation machines of the paper (Appendix A, Table 1,
    Figures 8 and 9), plus a small machine for tests. *)

val amd48 : Topology.t
(** Dell PowerEdge R815: four AMD Opteron 6172 "Magny Cours" packages, two
    6-core nodes per package (48 cores, 8 NUMA nodes), 2.1 GHz.
    Bandwidths from Table 1: 21.3 GB/s to the local bank, 19.2 GB/s to the
    sibling node in the same package, 6.4 GB/s (one 8-bit HT3 link) to a
    node in another package.  L3: 6 MB per node with 1 MB reserved for
    cross-node probes. *)

val intel32 : Topology.t
(** QSSC-S4R: four Intel Xeon X7560 packages, one 8-core node each
    (32 cores, 4 NUMA nodes), 2.266 GHz.  Bandwidths from Table 1:
    17.1 GB/s to the local risers, 25.6 GB/s over a full-width QPI link to
    a remote node.  L3: 24 MB per node with 3 MB reserved. *)

val amd24 : Topology.t
(** A two-socket, 24-core sibling of {!amd48} (2 packages x 2 nodes x 6
    cores): the "two sockets" machine class of the paper's footnote 3,
    where GHC's collector needed NUMA-aware allocation to scale past 7
    cores. *)

val tiny4 : Topology.t
(** A 2-package x 1-node x 2-core test machine with exaggerated NUMA
    asymmetry; used by the test suite, not by the paper. *)

val by_name : string -> Topology.t option
(** Look up ["amd48"], ["amd24"], ["intel32"] or ["tiny4"]. *)

val all : Topology.t list

val with_scaled_caches : int -> Topology.t -> Topology.t
(** [with_scaled_caches k t] divides every cache size by [k] (min 4 KB
    for L1/L2, 16 KB for L3).  The evaluation harness scales workloads
    down from the paper's sizes to keep simulations fast; scaling caches
    by the same factor preserves the data-to-cache ratios that drive the
    benchmarks' locality behaviour. *)
