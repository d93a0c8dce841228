(** Uncharged object-level primitives over simulated memory.

    An object pointer is the byte address of its header word; field [i]
    lives at [addr + 8*(i+1)].  These functions perform no cost
    accounting and no GC; they are the storage layer beneath the mutator
    API and the collectors. *)

type kind =
  | Raw  (** opaque bits: strings, float payloads — never scanned *)
  | Vector  (** every field is a (possibly immediate) ML value *)
  | Mixed of Descriptor.desc  (** record with a static pointer layout *)
  | Proxy  (** global object referencing a local-heap value (paper fn. 1) *)

val header : Store.t -> int -> int
(** The header (or forwarding) word at [addr], read with
    {!Sim_mem.Memory.get_unchecked}: a checker that lands on a raw word
    gets its low 63 bits rather than an exception. *)

val set_header : Store.t -> int -> int -> unit

val kind : Store.t -> int -> kind
(** Raises [Invalid_argument] on a forwarding word or unknown ID. *)

val size_words : Store.t -> int -> int
(** Body length in words (excluding header).  Follows no forwarding. *)

val total_bytes : Store.t -> int -> int
(** Header plus body, in bytes. *)

val field_addr : int -> int -> int
(** [field_addr addr i] — byte address of field [i]. *)

val get_field : Store.t -> int -> int -> Value.t
val set_field : Store.t -> int -> int -> Value.t -> unit

val get_raw : Store.t -> int -> int -> int64
(** Raw word [i] of a raw object's body, all 64 bits. *)

val set_raw : Store.t -> int -> int -> int64 -> unit
val get_float : Store.t -> int -> int -> float
val set_float : Store.t -> int -> int -> float -> unit

val init_raw : Store.t -> addr:int -> words:int -> unit
(** Write a raw-object header at [addr] (body uninitialized = zeros). *)

val init_vector : Store.t -> addr:int -> Value.t array -> unit
val init_mixed : Store.t -> addr:int -> Descriptor.desc -> Value.t array -> unit
(** Raises [Invalid_argument] if the field count does not match the
    descriptor. *)

val iter_pointer_slots : Store.t -> int -> (int -> unit) -> unit
(** [iter_pointer_slots store addr f] applies [f] to the byte address of
    every field that can hold a pointer: all fields of a vector, the
    descriptor's pointer slots of a mixed object, none for raw objects
    and proxies (a proxy's local reference is deliberately invisible to
    ordinary scanning).  The caller must still test each field's current
    content — a pointer slot may hold an immediate (e.g. a nullary
    constructor of a sum type). *)

val copy_object : Store.t -> src:int -> dst:int -> int
(** Copy the whole object (header + body) from [src] to [dst]; returns
    the byte count copied.  No forwarding word is written. *)
