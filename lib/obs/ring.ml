(* Fixed-capacity event ring, one per vproc.  Struct-of-arrays so a
   record is four int stores and a float store — no allocation on the
   hot path, which is what lets the recorder stay always-on. *)

type t = {
  capacity : int;
  tag : int array;
  a : int array;
  b : int array;
  c : int array;
  t_ns : float array;
  mutable total : int;  (* events ever pushed; head slot = total mod capacity *)
  mutable lost : int;  (* drops carried over from a restored dump *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    capacity;
    tag = Array.make capacity 0;
    a = Array.make capacity 0;
    b = Array.make capacity 0;
    c = Array.make capacity 0;
    t_ns = Array.make capacity 0.0;
    total = 0;
    lost = 0;
  }

let push t ~t_ns ~tag ~a ~b ~c =
  let i = t.total mod t.capacity in
  t.tag.(i) <- tag;
  t.a.(i) <- a;
  t.b.(i) <- b;
  t.c.(i) <- c;
  t.t_ns.(i) <- t_ns;
  t.total <- t.total + 1

let total t = t.total
let capacity t = t.capacity
let stored t = min t.total t.capacity
let dropped t = t.lost + max 0 (t.total - t.capacity)

(* Account for events known to have been lost before this ring existed
   (e.g. the "dropped" lines of a restored dump, whose events are gone
   for good): they stay visible in [dropped] instead of vanishing. *)
let note_lost t n = if n > 0 then t.lost <- t.lost + n

(* Visit surviving events oldest-first.  [f seq t_ns tag a b c] where
   [seq] is the event's global sequence number (0-based since creation). *)
let iter_oldest_first t f =
  let n = stored t in
  let first_seq = t.total - n in
  for k = 0 to n - 1 do
    let seq = first_seq + k in
    let i = seq mod t.capacity in
    f seq t.t_ns.(i) t.tag.(i) t.a.(i) t.b.(i) t.c.(i)
  done
