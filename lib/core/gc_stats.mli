(** Collector statistics, kept per vproc and aggregated for reports. *)

type t = {
  mutable minor_count : int;
  mutable major_count : int;
  mutable promote_count : int;
      (** promotion cycles (a {!Promote.batch} is one cycle) *)
  mutable promote_batched_values : int;
      (** local values copied through batched promotion cycles *)
  mutable global_count : int;
  mutable minor_copied_bytes : int;
  mutable major_copied_bytes : int;
  mutable promoted_bytes : int;
  mutable global_copied_bytes : int;
  mutable alloc_bytes : int;  (** nursery bytes allocated by the mutator *)
  mutable global_alloc_bytes : int;  (** direct global-heap allocations *)
  mutable chunk_acquires : int;
  mutable gc_ns : float;
      (** simulated time spent inside collectors.  A vproc's is current
          whenever the vproc is outside collector context (see
          [Ctx.set_in_gc]). *)
}

val create : unit -> t
val add : into:t -> t -> unit
(** Accumulate [t] into [into]. *)

val total : t array -> t
val pp : Format.formatter -> t -> unit
