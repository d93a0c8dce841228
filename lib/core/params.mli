(** Settings of the memory system, and the collector's fixed costs.

    Sizes are scaled down from the paper's (local heaps sized to L3,
    32 MB global-GC budget per vproc) so that full 48-vproc simulations
    finish in seconds; the ratios between them — nursery to local heap,
    chunk to global budget — are preserved. *)

type global_gc_mode =
  | Stw  (** the paper's stop-the-world global collection *)
  | Concurrent
      (** incremental chunk evacuation: mutators keep running between
          bounded collector slices; the all-vproc barrier is replaced by
          per-vproc handshakes plus a short final ratify pause *)

(** {2 Cost constants}

    The collector's fixed costs, in CPU cycles of the simulated core
    (converted at the machine's clock rate).  They are constants, not
    fields of {!t}: every run prices the collector with this one
    calibration. *)

val alloc_cycles : float
(** Bump-allocation overhead per object (4). *)

val gc_obj_cycles : float
(** Per-object collector overhead, paid for each object a collection
    copies or scans (12). *)

val chunk_local_sync_cycles : float
(** Acquiring a recycled chunk: node-local synchronization (300).  The
    concurrent collector also pays it to claim a chunk and to condemn
    the in-use set. *)

val chunk_global_sync_cycles : float
(** Registering a fresh chunk or a large object: global synchronization
    (2000). *)

val promote_spinup_cycles : float
(** Fixed machinery cost of one promotion cycle (1500): saving the
    mutator state, setting up the forwarding scan, and the
    fence-equivalent publish of the copied graph.  A {!Promote.batch}
    pays it once for all its roots. *)

val barrier_cycles : float
(** A stop-the-world global collection's per-vproc barrier cost, paid
    at entry and at exit (4000).  Each vproc the concurrent collector
    stops for ratify pays it once. *)

val handshake_cycles : float
(** Concurrent mode: one pairwise mutator/collector handshake (400),
    piggy-backed on the allocation-limit poll and paid instead of the
    stop-the-world [barrier_cycles]. *)

(** {2 Settings} *)

type t = {
  page_bytes : int;
  capacity_bytes : int;  (** total simulated physical memory *)
  local_heap_bytes : int;  (** fixed per-vproc local heap (paper: fits L3) *)
  chunk_bytes : int;  (** global-heap chunk size *)
  nursery_min_bytes : int;
      (** run a major collection when the post-minor nursery would be
          smaller than this (paper §3.3 "certain threshold") *)
  global_budget_per_vproc : int;
      (** trigger a global collection when in-use chunk bytes exceed
          [n_vprocs * this] (paper: 32 MB) *)
  chunk_affinity : bool;
      (** preserve chunk node affinity on reuse (paper §3.1); disable
          for the ablation study *)
  young_exclusion : bool;
      (** keep the last minor's survivors out of major collections
          (paper §3.3); disable for the ablation study *)
  unified_heap : bool;
      (** baseline collector: ignore the local heaps and allocate
          everything in the shared chunked heap (per-vproc allocation
          buffers, parallel stop-the-world collection) — the
          "traditional" design the paper's split-heap architecture is
          built to beat *)
  global_gc_mode : global_gc_mode;
      (** which global collector services {!Ctx.request_global_gc}:
          stop-the-world (default, the paper's design) or concurrent
          chunk evacuation with bounded pauses *)
  conc_slice_bytes : int;
      (** concurrent mode: max bytes of to-space scanned per collector
          slice — the pause-bound knob (smaller = shorter pauses, more
          slices) *)
  conc_parallel_slices : int;
      (** concurrent mode: max evacuation slices the scheduler may
          dispatch in one turn — the first on the collector's lead
          vproc, the rest on distinct idle vprocs (chunk claims
          arbitrate the work).  1 (default) reproduces the one slice
          per turn of the original design *)
  conc_ratify_dirty_only : bool;
      (** concurrent mode: ratify only the vprocs whose root-set
          generation or store counter changed since their handshake,
          leaving quiescent vprocs running (default).  [false] restores
          the all-vproc ratify barrier, as an ablation *)
}

val default : t
(** 4 KB pages, 256 MB capacity, 256 KB local heaps, 64 KB chunks,
    32 KB nursery threshold, 768 KB global budget per vproc. *)

val validate : t -> (unit, string) result
(** Size sanity: powers/multiples where required, orderings (e.g. the
    nursery threshold must fit in a local heap). *)
