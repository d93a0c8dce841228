(** The global heap: a set of chunks, a current chunk per vproc, and the
    node-affine chunk pool (paper §3.1).

    Promotion and major collection bump-allocate into the vproc's current
    chunk; exhausting it acquires a fresh chunk, which is the only
    synchronization point of those collections — {!alloc} reports it so
    the caller can charge the lock cost. *)

open Sim_mem

type t

val create : ?affinity:bool -> Store.t -> n_vprocs:int -> chunk_bytes:int -> t
(** [affinity] (default true) controls node-affine chunk reuse. *)

val alloc : t -> vproc:int -> node:int -> bytes:int ->
  int
  * [ `Same_chunk | `New_chunk of Chunk.t * [ `Reused | `Fresh ] | `Large ]
(** Allocate [bytes] (word-rounded) in [vproc]'s current chunk, acquiring
    a new one if needed.  Objects larger than a chunk go to the
    large-object space: a dedicated page run, managed mark-and-sweep by
    the global collector instead of being copied. *)

(** {2 Large-object space} *)

val is_large : t -> int -> bool
val mark_large : t -> int -> bool
(** Mark the large object containing the address live for the current
    global collection.  Returns [true] on the first marking (the caller
    then scans its fields once). *)

val sweep_large : t -> int
(** Free unmarked large objects and clear marks; returns the number
    swept.  Call at the end of a global collection. *)

val large_list : t -> (int * int) list
(** [(address, region bytes)] of live large objects, for walkers. *)

val current : t -> vproc:int -> Chunk.t option

val in_use : t -> Chunk.t list
(** Every chunk holding live global data, including current chunks. *)

val take_all_in_use : t -> Chunk.t list
(** Empty the in-use set and detach every current chunk — the start of a
    global collection (the result becomes from-space). *)

val pool : t -> Chunk.pool
val chunk_bytes : t -> int
val in_use_bytes : t -> int
val contains : t -> int -> bool
(** O(1) membership test via the page-granularity {!Heap_index}: true for
    addresses in acquired chunks or live large-object regions.  During a
    global collection (between [take_all_in_use] and the from-space
    release) from-space chunk pages still classify as global; they go
    [Free] the moment the collector releases them. *)

val find_chunk : t -> int -> Chunk.t option
(** O(1) page-index lookup of the chunk owning an address. *)
