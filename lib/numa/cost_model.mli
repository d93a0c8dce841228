(** The per-access cost engine for a simulated machine.

    One instance holds the mutable machine state: a private L1+L2 cache
    model per vproc, a shared L3 model per node, and contention meters for
    every memory bank and every directed node-to-node link.  All simulated
    memory traffic is charged through {!access} or {!bulk}, which return
    the nanoseconds the requesting vproc's virtual clock must advance. *)

type t

val create :
  ?cap_scale:float -> Topology.t -> n_vprocs:int -> vproc_node:(int -> int) ->
  t
(** [create topo ~n_vprocs ~vproc_node] — [vproc_node i] gives the NUMA
    node hosting vproc [i] (from {!Topology.sparse_core_assignment}).
    [cap_scale] divides bank/link *capacities* (not per-access costs) for
    scaled-down workloads; see {!Contention.create}. *)

val topology : t -> Topology.t
val vproc_node : t -> int -> int

val access :
  t -> vproc:int -> dst_node:int -> addr:int -> bytes:int -> now_ns:float ->
  float
(** Cost in ns of a load or store by [vproc] touching [bytes] bytes at
    simulated byte address [addr] resident on [dst_node]'s bank.  Probes
    the vproc's L2 and its node's L3 per cache line; misses pay the NUMA
    base latency plus a bandwidth term, inflated by bank and link
    contention. *)

val bulk :
  t -> vproc:int -> dst_node:int -> addr:int -> bytes:int -> now_ns:float ->
  float
(** Like {!access} for large streaming transfers (GC copying, chunk
    scanning), with hardware prefetch modeled.  Every line is probed.
    An L2 hit costs what it costs in {!access}.  An L3 hit or a miss
    pays its full latency only on lines whose index is a multiple of 16
    (the prefetch depth), and a sixteenth of it on the others.  A miss's
    transfer time hides under that latency; its queueing overflow on a
    saturated bank or link is always paid. *)

val work : t -> cycles:float -> float
(** Pure compute: [cycles / GHz] ns. *)

val bank_total_bytes : t -> node:int -> float

val l2_hit_rate : t -> vproc:int -> float
(** Hits over probes of [vproc]'s L2, counting the hits the MRU-line
    filter took (see {!filter}). *)

val l3_hit_rate : t -> node:int -> float

(** {2 The MRU-line filter}

    A vproc's L2 is private, and {!Cache.access} leaves the line it
    touched most recent in its set.  A single-line access to a line that
    is most recent in its set is an L2 hit that costs [l2_hit_ns] and
    changes nothing in the model but the hit count, so a caller may price
    it without calling {!access}.  Most simulated loads are such hits:
    they touch the line the same vproc touched last, or one it touched
    shortly before in another set.  The simulator's word accessors run
    this test inline through {!filter}, before any cross-module call. *)

val line_bits : int
(** [log2] of the 64-byte cache line. *)

type filter = private {
  l2_tags : int array array;
      (** per vproc: its L2's live tag array (see {!Cache.tags}); line
          [l] is most recent in its set when
          [l2_tags.(v).((l land set_mask) lsl Cache.way_bits) = l] *)
  set_mask : int;  (** the L2s' set mask (all L2s share one geometry) *)
  hits : int array;
      (** per vproc: L2 hits taken by the filter.  A caller that takes
          one must add it here; {!l2_hit_rate} counts them. *)
  l2_hit_ns : float;  (** the cost of one L2 hit *)
}

val filter : t -> filter
(** The filter's view of the model, shared: the arrays are the live
    ones. *)
