type t = {
  id : int;
  base : int;
  bytes : int;
  home_node : int;
  mutable alloc_ptr : int;
  mutable scan_ptr : int;
  mutable from_space : bool;
}

let free_bytes c = c.base + c.bytes - c.alloc_ptr
let contains c addr = addr >= c.base && addr < c.base + c.bytes

let bump c bytes =
  let bytes = Addr.round_up_words bytes in
  if bytes > free_bytes c then invalid_arg "Chunk.bump: chunk full";
  let a = c.alloc_ptr in
  c.alloc_ptr <- a + bytes;
  a

let reset c =
  c.alloc_ptr <- c.base;
  c.scan_ptr <- c.base;
  c.from_space <- false

type pool = {
  pa : Page_alloc.t;
  chunk_bytes : int;
  free : t list ref array; (* per home node *)
  mutable next_id : int;
  mutable in_use : int; (* count *)
  (* Lifecycle hooks: the heap index subscribes to these so page
     classification tracks chunk ownership without every call site
     having to remember to update it. *)
  mutable on_acquire : t -> unit;
  mutable on_release : t -> unit;
}

let create_pool pa ~chunk_bytes =
  if chunk_bytes <= 0 || chunk_bytes mod Memory.page_bytes (Page_alloc.memory pa) <> 0
  then invalid_arg "Chunk.create_pool: chunk_bytes must be a page multiple";
  {
    pa;
    chunk_bytes;
    free = Array.init (Memory.n_nodes (Page_alloc.memory pa)) (fun _ -> ref []);
    next_id = 0;
    in_use = 0;
    on_acquire = ignore;
    on_release = ignore;
  }

let set_hooks pool ~on_acquire ~on_release =
  pool.on_acquire <- on_acquire;
  pool.on_release <- on_release

let fresh pool ~policy ~requester_node =
  let base =
    Page_alloc.alloc pool.pa ~policy ~requester_node ~bytes:pool.chunk_bytes
  in
  let home_node = Memory.node_of_addr (Page_alloc.memory pool.pa) base in
  let id = pool.next_id in
  pool.next_id <- id + 1;
  { id; base; bytes = pool.chunk_bytes; home_node; alloc_ptr = base;
    scan_ptr = base; from_space = false }

let pop_free pool node =
  match !(pool.free.(node)) with
  | [] -> None
  | c :: rest ->
      pool.free.(node) := rest;
      Some c

let pop_any_free pool =
  let rec go node =
    if node >= Array.length pool.free then None
    else match pop_free pool node with Some c -> Some c | None -> go (node + 1)
  in
  go 0

let acquire ?(affinity = true) pool ~policy ~requester_node =
  let preferred =
    if not affinity then None
    else
      match policy with
    | Page_policy.Local -> Some requester_node
    | Page_policy.Single_node n -> Some n
    | Page_policy.Interleaved -> None
  in
  let c =
    match preferred with
    | Some node -> pop_free pool node
    | None -> pop_any_free pool
  in
  let c, provenance =
    match c with
    | Some c -> (c, `Reused)
    | None -> (
        try (fresh pool ~policy ~requester_node, `Fresh)
        with Out_of_memory -> (
          (* Fall back on a free chunk of any affinity before giving up. *)
          match pop_any_free pool with
          | Some c -> (c, `Reused)
          | None -> raise Out_of_memory))
  in
  reset c;
  pool.in_use <- pool.in_use + 1;
  pool.on_acquire c;
  (c, provenance)

let release pool c =
  pool.on_release c;
  pool.free.(c.home_node) := c :: !(pool.free.(c.home_node));
  pool.in_use <- pool.in_use - 1

let chunk_bytes pool = pool.chunk_bytes
let in_use_bytes pool = pool.in_use * pool.chunk_bytes
let in_use_count pool = pool.in_use

let free_count pool =
  Array.fold_left (fun acc l -> acc + List.length !l) 0 pool.free
