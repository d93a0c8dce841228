(** The mutator's allocation interface.

    Objects are bump-allocated in the vproc's nursery; a full nursery
    triggers a minor collection, which may cascade into a major
    collection (nursery threshold, §3.3) and then a global-collection
    safe point.  All pointer arguments are automatically rooted across
    any collection these functions trigger, so callers only need root
    cells for references they hold across separate calls.

    Objects too large for a nursery go straight to the global heap,
    with their pointer fields promoted first so the no-global-to-local
    invariant holds.  Under {!Params.t.unified_heap} every allocation
    takes that path — the stop-the-world baseline collector. *)

open Heap

val alloc_mixed :
  Ctx.t -> Ctx.mutator -> Descriptor.desc -> Value.t array -> Value.t
(** Allocate and fully initialize a mixed-type object. *)

val alloc_vector : Ctx.t -> Ctx.mutator -> Value.t array -> Value.t
(** Allocate a vector of values.  Raises [Invalid_argument] on an empty
    array (zero-length objects are not representable to the walker). *)

val alloc_raw : Ctx.t -> Ctx.mutator -> words:int -> Value.t
(** Allocate a raw-data object with a zeroed body ([words >= 1]);
    initialize it with {!init_raw_word} / {!init_float}. *)

val alloc_float_array : Ctx.t -> Ctx.mutator -> float array -> Value.t
(** A raw object holding unboxed floats. *)

val init_raw_word : Ctx.t -> Ctx.mutator -> Value.t -> int -> int64 -> unit
(** [init_raw_word ctx m v i w] — charged store into a raw body slot. *)

val init_float : Ctx.t -> Ctx.mutator -> Value.t -> int -> float -> unit

val max_local_bytes : Ctx.t -> int
(** Allocations above this size bypass the nursery. *)
