(** Tagged ML values as stored in heap words.

    An immediate integer [n] is represented as [(n lsl 1) lor 1] (odd);
    a pointer is the even, 8-aligned byte address of the object's header
    word.  [unit], [false]/[true] and other nullary constructors are
    immediates.  The encoding matches the header/forwarding discrimination
    rule: anything with a low bit of 1 in a header position is a header,
    anything even is an address. *)

type t = private int

val of_int : int -> t
(** Raises [Invalid_argument] if [n] does not fit in 62 bits. *)

val to_int : t -> int
(** Raises [Invalid_argument] on a pointer. *)

val is_int : t -> bool

val of_ptr : int -> t
(** Raises [Invalid_argument] if the address is zero or unaligned. *)

val to_ptr : t -> int
(** Raises [Invalid_argument] on an immediate. *)

val is_ptr : t -> bool

val unit : t
(** The immediate [0]. *)

val of_bool : bool -> t
val to_bool : t -> bool

val of_word : int -> t
(** Read a heap word as a value.  Raises [Invalid_argument] if the word
    is null or an unaligned even word (e.g. a header that escaped into a
    field is odd and reads as an immediate).  The word itself is
    [(v :> int)]; the 64-bit overflow check happens where a word is read
    from memory ({!Sim_mem.Memory.get}). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
