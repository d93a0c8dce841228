open Sim_mem

(* Objects too large for a chunk get dedicated page runs and are managed
   mark-and-sweep by the global collector instead of being copied.  The
   record lives in Heap_index so the page table can carry it directly. *)
type large = Heap_index.large = {
  l_addr : int;
  l_bytes : int; (* page-rounded region size *)
  mutable l_marked : bool;
}

type t = {
  store : Store.t;
  index : Heap_index.t;
  pool : Chunk.pool;
  mutable in_use : Chunk.t list;
  current : Chunk.t option array; (* per vproc *)
  chunk_bytes : int;
  affinity : bool;
  mutable large : large list; (* for sweeping; lookup goes via the index *)
  mutable large_bytes : int;
}

let create ?(affinity = true) (store : Store.t) ~n_vprocs ~chunk_bytes =
  let index = store.Store.index in
  let pool = Chunk.create_pool store.pa ~chunk_bytes in
  (* Chunk pages classify as global exactly while the chunk is acquired;
     released chunks keep their storage (and node affinity) but drop out
     of the heap. *)
  Chunk.set_hooks pool
    ~on_acquire:(fun c -> Heap_index.set_chunk index c)
    ~on_release:(fun c -> Heap_index.clear_chunk index c);
  {
    store;
    index;
    pool;
    in_use = [];
    current = Array.make n_vprocs None;
    chunk_bytes;
    affinity;
    large = [];
    large_bytes = 0;
  }

let acquire_for t ~vproc ~node =
  let c, provenance =
    Chunk.acquire ~affinity:t.affinity t.pool ~policy:t.store.Store.policy
      ~requester_node:node
  in
  t.in_use <- c :: t.in_use;
  t.current.(vproc) <- Some c;
  (c, provenance)

let alloc_large t ~node ~bytes =
  (* Round to whole pages *before* allocating so the alloc, the region
     record, the index tagging, and the eventual free all agree on one
     size (the seed allocated the unrounded size but recorded and freed
     the rounded one). *)
  let pb = Memory.page_bytes t.store.Store.mem in
  let rounded = (bytes + pb - 1) / pb * pb in
  let region = Page_alloc.alloc t.store.Store.pa ~policy:t.store.Store.policy
      ~requester_node:node ~bytes:rounded
  in
  let l = { l_addr = region; l_bytes = rounded; l_marked = false } in
  t.large <- l :: t.large;
  t.large_bytes <- t.large_bytes + rounded;
  Heap_index.set_large t.index l;
  region

let find_large t addr = Heap_index.find_large t.index addr

let is_large t addr = Option.is_some (find_large t addr)

let mark_large t addr =
  match find_large t addr with
  | Some l when not l.l_marked ->
      l.l_marked <- true;
      true
  | _ -> false

let sweep_large t =
  let live, dead = List.partition (fun l -> l.l_marked) t.large in
  List.iter
    (fun l ->
      Page_alloc.free t.store.Store.pa ~addr:l.l_addr ~bytes:l.l_bytes;
      Heap_index.clear_large t.index l;
      t.large_bytes <- t.large_bytes - l.l_bytes)
    dead;
  List.iter (fun l -> l.l_marked <- false) live;
  t.large <- live;
  List.length dead

let large_list t = List.map (fun l -> (l.l_addr, l.l_bytes)) t.large

let alloc t ~vproc ~node ~bytes =
  let bytes = Addr.round_up_words bytes in
  if bytes > t.chunk_bytes then (alloc_large t ~node ~bytes, `Large)
  else begin
    match t.current.(vproc) with
    | Some c when Chunk.free_bytes c >= bytes ->
        (Chunk.bump c bytes, `Same_chunk)
    | _ ->
        let c, provenance = acquire_for t ~vproc ~node in
        (Chunk.bump c bytes, `New_chunk (c, provenance))
  end

let current t ~vproc = t.current.(vproc)

let in_use t = t.in_use

let take_all_in_use t =
  let l = t.in_use in
  t.in_use <- [];
  Array.fill t.current 0 (Array.length t.current) None;
  l

let pool t = t.pool
let chunk_bytes t = t.chunk_bytes
let in_use_bytes t = Chunk.in_use_bytes t.pool + t.large_bytes
let find_chunk t addr = Heap_index.find_chunk t.index addr
let contains t addr = Heap_index.is_global t.index addr
