(** Whole-heap structural validation: the executable form of the paper's
    two heap invariants (§2.3) plus object-level well-formedness.

    Checked properties:
    - every allocated region parses as a sequence of well-formed objects
      (valid header, known ID, mixed size matching its descriptor, no
      forwarding words outside a collection);
    - every pointer targets a mapped address holding a valid header;
    - (I1) no local-heap object points into another vproc's local heap;
    - (I2) no global-heap object points into any local heap — except the
      referent slot of a proxy, which must point into its owner's local
      heap or to a global object;
    - no old-area object points into its own nursery (data only ever
      points at older data in a mutation-free language) — except slots
      the caller declares [remembered], i.e. covered by the mutation
      extension's write barrier.

    Address classification (which local heap owns an address, whether it
    is global) is read from the store's {!Heap_index} — the same
    page-granularity table the collectors use — rather than a private
    scan over the vproc array, so the checker validates against exactly
    the region map the mutator and GC dispatch on. *)

type summary = {
  objects : int;
  bytes : int;
  local_objects : int;
  global_objects : int;
  proxies : int;
}

val check :
  ?remembered:(int -> bool) ->
  ?evacuating:bool ->
  Store.t -> locals:Local_heap.t array -> global:Global_heap.t ->
  (summary, string list) result
(** Returns every violation found (never raises on malformed heaps except
    for out-of-range simulated addresses).  [evacuating] (default false)
    declares that a concurrent global evacuation is in flight: local
    forwarding words whose targets were themselves evacuated (forwarding
    chains, repaired by the collector's final retarget) are then resolved
    through instead of reported. *)
