type pages = {
  page_node : Bytes.t; (* 0xff = unmapped, else node id *)
  page_bits : int;
}

type t = {
  words : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  pages : pages;
  n_nodes : int;
  page_bytes : int;
  capacity_bytes : int;
  node_bytes : int array;
}

let unmapped = '\xff'

let rec log2_exact n acc =
  if n = 1 then Some acc
  else if n land 1 = 1 then None
  else log2_exact (n lsr 1) (acc + 1)

let create ~n_nodes ~capacity_bytes ~page_bytes =
  if n_nodes <= 0 || n_nodes > 255 then invalid_arg "Memory.create: n_nodes";
  if capacity_bytes <= 0 || capacity_bytes mod page_bytes <> 0 then
    invalid_arg "Memory.create: capacity must be a positive page multiple";
  let page_bits =
    match log2_exact page_bytes 0 with
    | Some b when b >= 3 -> b
    | _ -> invalid_arg "Memory.create: page_bytes must be a power of two >= 8"
  in
  let n_pages = capacity_bytes / page_bytes in
  {
    words =
      Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout
        (capacity_bytes / 8);
    pages = { page_node = Bytes.make n_pages unmapped; page_bits };
    n_nodes;
    page_bytes;
    capacity_bytes;
    node_bytes = Array.make n_nodes 0;
  }

let n_nodes t = t.n_nodes
let page_bytes t = t.page_bytes
let capacity_bytes t = t.capacity_bytes
let n_pages t = Bytes.length t.pages.page_node
let page_of_addr t addr = addr lsr t.pages.page_bits

(* Tagged words travel as immediate ints.  Every word written through
   [set] round-trips; a raw payload word that does not fit 63 bits has
   no tagged reading when odd (an immediate would be misread), so [get]
   rejects it.  An even one truncates, as an address would. *)
let get t addr =
  let w = Bigarray.Array1.get t.words (Addr.word_index addr) in
  let v = Int64.to_int w in
  if v land 1 = 1 && Int64.of_int v <> w then
    invalid_arg "Memory.get: odd word overflows a tagged int";
  v

let get_unchecked t addr =
  Int64.to_int (Bigarray.Array1.get t.words (Addr.word_index addr))

let set t addr v =
  Bigarray.Array1.set t.words (Addr.word_index addr) (Int64.of_int v)

let get_raw t addr = Bigarray.Array1.get t.words (Addr.word_index addr)
let set_raw t addr w = Bigarray.Array1.set t.words (Addr.word_index addr) w

let get_float t addr =
  Int64.float_of_bits (Bigarray.Array1.get t.words (Addr.word_index addr))

let set_float t addr f =
  Bigarray.Array1.set t.words (Addr.word_index addr) (Int64.bits_of_float f)

let copy_words t ~src ~dst ~words =
  let s = Addr.word_index src and d = Addr.word_index dst in
  for i = 0 to words - 1 do
    Bigarray.Array1.set t.words (d + i) (Bigarray.Array1.get t.words (s + i))
  done

let is_mapped t addr =
  let p = page_of_addr t addr in
  p >= 0
  && p < Bytes.length t.pages.page_node
  && Bytes.get t.pages.page_node p <> unmapped

let node_of_addr t addr =
  let p = page_of_addr t addr in
  if p < 0 || p >= Bytes.length t.pages.page_node then
    invalid_arg "Memory.node_of_addr: out of range";
  let c = Bytes.get t.pages.page_node p in
  if c = unmapped then invalid_arg "Memory.node_of_addr: unmapped page";
  Char.code c

let map_pages t ~first_page ~n_pages ~node_of_page =
  for p = first_page to first_page + n_pages - 1 do
    if p < 0 || p >= Bytes.length t.pages.page_node then
      invalid_arg "Memory.map_pages: out of range";
    if Bytes.get t.pages.page_node p <> unmapped then
      invalid_arg "Memory.map_pages: page already mapped";
    let node = node_of_page p in
    if node < 0 || node >= t.n_nodes then
      invalid_arg "Memory.map_pages: bad node";
    Bytes.set t.pages.page_node p (Char.chr node);
    t.node_bytes.(node) <- t.node_bytes.(node) + t.page_bytes;
    (* Fresh pages read as zero. *)
    let w0 = p * t.page_bytes / 8 in
    Bigarray.Array1.fill
      (Bigarray.Array1.sub t.words w0 (t.page_bytes / 8))
      0L
  done

let unmap_pages t ~first_page ~n_pages =
  for p = first_page to first_page + n_pages - 1 do
    let c = Bytes.get t.pages.page_node p in
    if c = unmapped then invalid_arg "Memory.unmap_pages: not mapped";
    let node = Char.code c in
    t.node_bytes.(node) <- t.node_bytes.(node) - t.page_bytes;
    Bytes.set t.pages.page_node p unmapped
  done

let node_bytes t ~node = t.node_bytes.(node)
let pages t = t.pages
