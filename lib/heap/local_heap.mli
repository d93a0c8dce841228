(** A vproc's local heap: a fixed-size region managed with Appel's
    semi-generational scheme (paper §3.3, Figures 2 and 3).

    Layout invariant, low to high addresses:

    {v
    base                young_base      old_top        nursery_base   limit
      |  older old data  |  young data   |  copy space  |   nursery    |
    v}

    - [\[base, old_top)] is the old-data area; within it,
      [\[young_base, old_top)] is the *young data* copied by the most
      recent minor collection (excluded from the next major collection);
    - [\[old_top, nursery_base)] is reserved free space that the next
      minor collection copies into;
    - [\[nursery_base, limit)] is the nursery; [alloc_ptr] bumps from
      [nursery_base] toward [limit].

    After each minor collection the free space is re-split in half, the
    upper half becoming the new nursery, so minor survivors always fit in
    the reserved space.  The collectors in [Manticore_gc] mutate these
    fields directly; {!check_layout} validates the invariant. *)

type t = {
  vproc : int;
  node : int;  (** NUMA node the vproc is pinned to *)
  base : int;
  bytes : int;
  limit : int;  (** [base + bytes] *)
  mutable old_top : int;
  mutable young_base : int;
  mutable nursery_base : int;
  mutable alloc_ptr : int;
}

val create :
  Store.t -> vproc:int -> node:int -> bytes:int -> t
(** Allocate the region via the store's page allocator under its placement
    policy ([bytes] must be a multiple of the page size and at least 16
    words).  Initially the old area is empty and the nursery is the upper
    half of the region. *)

val alloc : t -> bytes:int -> int option
(** Bump-allocate [bytes] (word-rounded) in the nursery; [None] when it
    does not fit (the caller runs a minor collection). *)

val nursery_bytes : t -> int
(** Current nursery capacity, [limit - nursery_base]. *)

val nursery_free : t -> int
val young_bytes : t -> int
val free_bytes : t -> int
(** Reserved copy space plus unallocated nursery. *)

val in_heap : t -> int -> bool
val in_nursery : t -> int -> bool
(** In the allocated part of the nursery. *)

val in_old : t -> int -> bool
(** In [\[base, old_top)] — includes young data. *)

val in_young : t -> int -> bool

val resplit : t -> unit
(** Recompute [nursery_base] and [alloc_ptr] from [old_top] by dividing
    the free space in half (word-aligned); the upper half becomes the
    empty nursery. *)

val check_layout : t -> (unit, string) result
val pp : Format.formatter -> t -> unit
