(** Simulated physical memory: a flat array of 64-bit words plus a page
    table recording, for every page, which NUMA node's bank holds it.

    Storage is flat so that a logically contiguous region (a local heap, a
    global-heap chunk) can have its pages spread across nodes — which is
    exactly what page-interleaved placement does.  The page table is what
    the cost model consults to price an access. *)

type t

val create : n_nodes:int -> capacity_bytes:int -> page_bytes:int -> t
(** Raises [Invalid_argument] if [page_bytes] is not a power of two, or
    any size is non-positive, or [n_nodes] exceeds 255. *)

val n_nodes : t -> int
val page_bytes : t -> int
val capacity_bytes : t -> int

val n_pages : t -> int
(** Number of pages in the address space ([capacity_bytes / page_bytes]);
    page-indexed side tables are sized with this. *)

(** {2 Words}

    Every accessor takes a word-aligned byte address and raises
    [Invalid_argument] on an unaligned one.  None checks the page table:
    callers that price an access check the page first, with
    {!node_of_addr} or inline through {!pages}. *)

val get : t -> int -> int
(** [get t addr] reads the word at [addr] as a tagged word (a header, a
    forwarding word or a tagged value): the low 63 of its 64 bits.
    Raises [Invalid_argument] if the word is odd and its 64 bits do not
    survive that (only a raw payload word can be). *)

val get_unchecked : t -> int -> int
(** The low 63 bits of any word, without {!get}'s check.  Headers and
    forwarding words always fit; heap checkers that may meet a raw word
    where they expect a header use this to report it instead of
    raising. *)

val set : t -> int -> int -> unit
(** Store a tagged word, sign-extended to 64 bits. *)

val get_raw : t -> int -> int64
(** All 64 bits of the word at [addr]: raw object payloads. *)

val set_raw : t -> int -> int64 -> unit

val get_float : t -> int -> float
(** The word at [addr] read as an IEEE double, without an intermediate
    [int64]. *)

val set_float : t -> int -> float -> unit

val copy_words : t -> src:int -> dst:int -> words:int -> unit
(** Copy [words] raw words from [src] to [dst], lowest address first (so
    a copy down to an overlapping lower [dst] is safe). *)

val node_of_addr : t -> int -> int
(** NUMA node owning the page containing [addr].  Raises
    [Invalid_argument] for an unmapped address. *)

val map_pages : t -> first_page:int -> n_pages:int -> node_of_page:(int -> int) -> unit
(** Assign nodes to a run of pages (the page allocator calls this).
    Mapped pages are zero-filled. *)

val unmap_pages : t -> first_page:int -> n_pages:int -> unit
val is_mapped : t -> int -> bool
val node_bytes : t -> node:int -> int
(** Bytes currently mapped on [node]'s bank. *)

val page_of_addr : t -> int -> int

type pages = private {
  page_node : Bytes.t;
      (** the page table, live: byte [p] is the node of page [p], or
          {!unmapped}.  Do not write it. *)
  page_bits : int;  (** [log2 page_bytes] *)
}

val pages : t -> pages
(** The page table, for callers that must test "is [addr] mapped" inline
    before any cross-module call: [addr] is mapped when
    [addr lsr page_bits] is below [Bytes.length page_node] and its byte
    is not {!unmapped}.  {!node_of_addr} gives the same answer. *)

val unmapped : char
(** The page-table byte of an unmapped page. *)
