(** A 4-way set-associative, LRU cache model over simulated byte
    addresses.  It classifies each access as hit or miss, which is all
    the cost model needs, and is cheap enough (at most four comparisons)
    to sit on the fast path of every simulated memory access. *)

type t

val create : size_kb:int -> line_bytes:int -> t
(** [create ~size_kb ~line_bytes] rounds the set count down to a power of
    two.  Raises [Invalid_argument] if either argument is not positive. *)

val access : t -> int -> bool
(** [access t addr] probes and fills the line containing byte address
    [addr]; returns [true] on a hit.  Hit or fill, the line is left most
    recent in its set.  It allocates nothing and runs no write barrier
    and no polymorphic compare: each probed way is an integer load,
    store and compare. *)

val probe : t -> int -> bool
(** [probe t addr] checks for a hit without filling. *)

val hits : t -> int
val misses : t -> int

(** {2 The tag array, for read-only fast paths} *)

val way_bits : int
(** [log2] of the associativity (4 ways). *)

val tags : t -> int array
(** The live tag array.  Set [s] holds the line numbers
    ([addr lsr log2 line_bytes]) at indices [s lsl way_bits] onwards,
    most recent first; [-1] marks an empty way.  Do not write it. *)

val set_mask : t -> int
(** A line's set is [line land set_mask]. *)
