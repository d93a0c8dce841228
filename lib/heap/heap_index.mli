(** Page-granularity heap classification: one table mapping every
    simulated page to the region that owns it.

    The collectors constantly ask "what kind of memory is this address?"
    — on the evacuation path (is it a large object?), on the
    proxy-referent path (which vproc's local heap holds it?), and in the
    invariant checker (local / global / unallocated).  The seed answered
    those with linear walks over the in-use chunk list and the vproc
    array; this table answers them with a single array read, the way a
    real multicore runtime classifies addresses through its page map.

    The table is written only at region-transition points, which are rare
    and page-aligned by construction:
    - local-heap creation tags the heap's page run [Local vproc];
    - {!Sim_mem.Chunk.acquire}/[release] tag and untag chunk page runs
      via the pool's lifecycle hooks (installed by {!Global_heap.create});
    - large-object allocation and sweeping tag and untag their dedicated
      page runs.

    Pages of chunks sitting in the free pool (and of swept large regions)
    read [Free] even though their storage stays mapped: classification
    tracks *logical* heap membership, which is what invariants I1/I2 and
    the forwarding paths need. *)

open Sim_mem

type large = {
  l_addr : int;
  l_bytes : int;  (** page-rounded region size *)
  mutable l_marked : bool;
}
(** A large object's region record (shared with {!Global_heap}). *)

type region =
  | Free  (** unallocated, or mapped but not owned by any heap region *)
  | Local of int  (** page of vproc [v]'s local heap *)
  | Global_chunk of Chunk.t  (** page of an acquired global-heap chunk *)
  | Large of large  (** page of a live large-object region *)

type t

val create : Memory.t -> t
(** All pages start [Free]. *)

val region : t -> int -> region
(** O(1) classification of a byte address.  Out-of-range addresses are
    [Free]. *)

(** {2 Region transitions} *)

val set_local : t -> vproc:int -> addr:int -> bytes:int -> unit
val set_chunk : t -> Chunk.t -> unit
val clear_chunk : t -> Chunk.t -> unit
val set_large : t -> large -> unit
val clear_large : t -> large -> unit

(** {2 O(1) classifiers} *)

val local_owner : t -> int -> int option
(** Which vproc's local heap holds the address, if any. *)

val find_chunk : t -> int -> Chunk.t option
val find_large : t -> int -> large option

val is_global : t -> int -> bool
(** Chunk or large-object page. *)

(** {2 Whole-table enumeration (checkers)} *)

val iter_pages : t -> (page_addr:int -> region -> unit) -> unit
(** Call [f] once per page with the page's base address and tag, in
    address order.  Used by external consistency checkers to
    cross-validate the index against the structures that own the pages. *)

val n_pages : t -> int
val page_bytes : t -> int
