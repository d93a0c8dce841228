(** Global-heap chunks (paper §3.1, §3.4).

    The global heap is a collection of fixed-size chunks.  Each vproc
    bump-allocates promotions and major-collection survivors into its
    *current* chunk.  The pool tracks the NUMA node on which each chunk
    was placed and preserves that affinity when chunks are reused. *)

(* Fields are exposed so the global collector can drive the Cheney scan
   pointer directly; ordinary clients should use the accessors. *)
type t = {
  id : int;
  base : int;  (** base byte address *)
  bytes : int;
  home_node : int;  (** node of the chunk's first page when created *)
  mutable alloc_ptr : int;  (** next free byte; [base <= alloc_ptr <= base+bytes] *)
  mutable scan_ptr : int;  (** Cheney scan pointer used during global GC *)
  mutable from_space : bool;
      (** Set by the concurrent global collector when the chunk is claimed
          as from-space (condemned); cleared on {!reset} and when the
          collection finishes.  Always [false] outside a concurrent
          collection cycle. *)
}

val free_bytes : t -> int
val contains : t -> int -> bool
(** Does this chunk contain byte address [addr]? *)

val bump : t -> int -> int
(** [bump c bytes] allocates [bytes] (word-rounded) from the chunk and
    returns the base address, or raises [Invalid_argument] if it does not
    fit — callers must check {!free_bytes} first. *)

val reset : t -> unit
(** Empty the chunk (alloc and scan pointers back to base). *)

(** The chunk pool, with per-node free lists. *)
type pool

val create_pool : Page_alloc.t -> chunk_bytes:int -> pool

val set_hooks : pool -> on_acquire:(t -> unit) -> on_release:(t -> unit) -> unit
(** Subscribe to chunk lifecycle transitions: [on_acquire] fires after a
    chunk is handed out by {!acquire} (fresh or reused, already reset)
    and [on_release] fires when {!release} returns it to the free pool.
    Both default to no-ops.  The heap's page index uses these to keep
    page->region classification current. *)

val acquire :
  ?affinity:bool -> pool -> policy:Page_policy.t -> requester_node:int ->
  t * [ `Reused | `Fresh ]
(** Get an empty chunk.  Preference order: a free chunk already resident
    on the policy's preferred node; a freshly-placed chunk under the
    policy; any free chunk.  The returned chunk is reset.  [`Reused]
    means the chunk came from the free pool (node-local synchronization
    in the paper); [`Fresh] means new memory was registered with the
    runtime (global synchronization).  [affinity:false] disables the
    node-affine preference (the ablation of paper §3.1). *)

val release : pool -> t -> unit
(** Return a chunk to the free pool (its storage stays mapped, preserving
    node affinity for reuse). *)

val chunk_bytes : pool -> int
val in_use_bytes : pool -> int
(** Bytes of chunks currently acquired — the global-GC trigger input. *)

val in_use_count : pool -> int
val free_count : pool -> int
