(** Fixed-capacity per-vproc event ring.

    Stores packed [(tag, a, b, c)] events with a virtual-time stamp.
    When full, new events overwrite the oldest — the recorder keeps the
    most recent [capacity] events and counts the rest as dropped. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val push : t -> t_ns:float -> tag:int -> a:int -> b:int -> c:int -> unit

val total : t -> int
(** Events ever pushed (including overwritten ones). *)

val capacity : t -> int

val stored : t -> int
(** Events currently held: [min total capacity]. *)

val dropped : t -> int
(** Events lost to overwrite, plus any losses recorded via
    {!note_lost}: [lost + max 0 (total - capacity)]. *)

val note_lost : t -> int -> unit
(** Account for [n] events known to have been lost before this ring
    existed (a restored dump's "dropped" lines); negative [n] is
    ignored. *)

val iter_oldest_first :
  t -> (int -> float -> int -> int -> int -> int -> unit) -> unit
(** [iter_oldest_first t f] calls [f seq t_ns tag a b c] for each
    surviving event, oldest first.  [seq] is the event's global
    sequence number (0-based since creation). *)
