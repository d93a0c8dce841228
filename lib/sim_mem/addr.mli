(** Simulated byte addresses.

    An address is a plain [int] byte offset into the simulated physical
    memory.  Heap data is word (8-byte) aligned; [0] is the null address
    and is never handed out by any allocator. *)

val word_bytes : int
(** 8 *)

val null : int
(** [0] *)

val is_word_aligned : int -> bool

val word_index : int -> int
(** [word_index a] = [a / word_bytes]; raises [Invalid_argument] on an
    unaligned address. *)

val of_word_index : int -> int
val words : int -> int
(** [words bytes] — number of words covering [bytes], rounding up. *)

val round_up_words : int -> int
(** Round a byte count up to a multiple of the word size. *)
