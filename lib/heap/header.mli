(** The 64-bit object header word of Figure 1.

    Layout (least significant bit first):
    - bit 0: always [1] — distinguishes a header from a forwarding
      pointer, whose low bit is [0] because heap addresses are 8-aligned;
    - bits 1–15: a 15-bit object ID;
    - bits 16–61: a 46-bit object length, in words of object body
      (excluding the header word itself);
    - bits 62–63: zero, so that every header fits an OCaml [int] and
      travels through the simulator as one.

    Three IDs are reserved: {!raw_id} and {!vector_id} for the two
    object kinds the collector handles directly (paper §3.2), and
    {!proxy_id} for object proxies (paper §3.1, footnote 1).  Mixed-type
    objects use IDs at or above {!first_mixed_id}, which index the
    object-descriptor table. *)

val raw_id : int
val vector_id : int
val proxy_id : int
val first_mixed_id : int
val max_id : int
(** [2^15 - 1] *)

val max_length_words : int
(** [2^46 - 1] *)

val encode : id:int -> length_words:int -> int
(** Raises [Invalid_argument] if either field is out of range. *)

val is_header : int -> bool
(** Is the low bit set? *)

val id : int -> int
val length_words : int -> int

val forward : int -> int
(** [forward addr] — a forwarding word pointing at [addr].  Raises
    [Invalid_argument] if [addr] is unaligned or zero. *)

val is_forward : int -> bool
val forward_addr : int -> int

val pp : Format.formatter -> int -> unit
