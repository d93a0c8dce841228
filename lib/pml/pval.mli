(** Heap-resident functional values: tuples, lists, and rope-style
    parallel arrays of values or unboxed floats.

    Everything here allocates in the simulated heap through the charged
    mutator API and observes the rooting discipline internally, so
    application code can compose these operations without touching
    {!Manticore_gc.Roots} (it still must root values *it* holds across
    calls that allocate or suspend).

    Parallel arrays are balanced binary trees: interior nodes are
    mixed-type objects [{size; left; right}] whose descriptor marks only
    the two child slots as pointers — exercising the compiler-generated
    scanning path of §3.2 — and leaves are either vectors of values or
    raw float payloads. *)

open Heap
open Manticore_gc

type descs
(** Descriptor handles registered for one context. *)

val register : Ctx.t -> descs
(** Register (or look up) the mixed-object descriptors used by this
    module.  Call once per context before building values. *)

(** {2 Tuples} *)

val tuple : Ctx.t -> Ctx.mutator -> Value.t array -> Value.t
val field : Ctx.t -> Ctx.mutator -> Value.t -> int -> Value.t

(** {2 Cons lists} — [nil] is the immediate 0. *)

val nil : Value.t
val is_nil : Value.t -> bool
val cons : Ctx.t -> Ctx.mutator -> Value.t -> Value.t -> Value.t
val head : Ctx.t -> Ctx.mutator -> Value.t -> Value.t
val tail : Ctx.t -> Ctx.mutator -> Value.t -> Value.t
val list_length : Ctx.t -> Ctx.mutator -> Value.t -> int
val list_of_ints : Ctx.t -> Ctx.mutator -> int list -> Value.t
val ints_of_list : Ctx.t -> Ctx.mutator -> Value.t -> int list
val list_append : Ctx.t -> Ctx.mutator -> Value.t -> Value.t -> Value.t

(** {2 Parallel arrays of values} *)

val arr_tabulate :
  Ctx.t -> Ctx.mutator -> descs -> n:int -> f:(int -> Value.t) -> Value.t
(** Sequential build of a balanced tree over [0..n-1].  [f] may allocate;
    intermediate results are rooted here.  [n = 0] yields an empty array
    (an immediate). *)

val arr_length : Ctx.t -> Ctx.mutator -> Value.t -> int
val arr_get : Ctx.t -> Ctx.mutator -> Value.t -> int -> Value.t
val arr_node : Ctx.t -> Ctx.mutator -> descs -> Value.t -> Value.t -> Value.t
(** Join two arrays under an interior node ([arr_node ctx m d l r]). *)

val arr_join : Ctx.t -> Ctx.mutator -> descs -> Value.t -> Value.t -> Value.t
(** Like {!arr_node} but O(1)-absorbs empty sides. *)

val arr_iter : Ctx.t -> Ctx.mutator -> Value.t -> (Value.t -> unit) -> unit
(** In-order traversal; the callback must not allocate (used by readers
    and the test suite). *)

val arr_of_int_array : Ctx.t -> Ctx.mutator -> descs -> int array -> Value.t
val arr_to_int_array : Ctx.t -> Ctx.mutator -> Value.t -> int array

(** {2 Parallel arrays of unboxed floats} *)

val farr_tabulate :
  Ctx.t -> Ctx.mutator -> descs -> n:int -> f:(int -> float) -> Value.t
val farr_length : Ctx.t -> Ctx.mutator -> Value.t -> int
val farr_get : Ctx.t -> Ctx.mutator -> Value.t -> int -> float

val farr_fold :
  Ctx.t -> Ctx.mutator -> Value.t -> init:'a -> f:('a -> float -> 'a) -> 'a
(** Sequential in-order fold over a float array (charged reads; no
    allocation). *)

(** {2 Boxed floats} *)

val box_float : Ctx.t -> Ctx.mutator -> float -> Value.t
val unbox_float : Ctx.t -> Ctx.mutator -> Value.t -> float
