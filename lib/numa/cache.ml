(* A 4-way set-associative cache model with LRU replacement.  Ways of a
   set are kept in recency order (way 0 = most recent), so a hit is at
   most 4 comparisons and a fill shifts at most 3 entries. *)

type t = {
  line_bits : int;
  set_mask : int;
  tags : int array; (* n_sets * ways, -1 = empty *)
  mutable hits : int;
  mutable misses : int;
}

let rec log2_floor n = if n <= 1 then 0 else 1 + log2_floor (n / 2)
let way_bits = 2
let ways = 1 lsl way_bits

let create ~size_kb ~line_bytes =
  if size_kb <= 0 || line_bytes <= 0 then invalid_arg "Cache.create";
  let line_bits = log2_floor line_bytes in
  if 1 lsl line_bits <> line_bytes then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  let n_lines = max ways (size_kb * 1024 / line_bytes) in
  let n_sets = max 1 (1 lsl log2_floor (n_lines / ways)) in
  {
    line_bits;
    set_mask = n_sets - 1;
    tags = Array.make (n_sets * ways) (-1);
    hits = 0;
    misses = 0;
  }

(* Probe and reorder in one pass: way [j] takes [carry], the tag that was
   one step more recent, until the way that held [line] is overwritten (a
   hit) or the LRU way falls off the end (a miss).  Either way [line]
   ends at way 0.  The annotation matters: inferred, [shift] is
   polymorphic, so each way it probes pays the write barrier
   ([caml_modify]) and a polymorphic compare ([caml_equal]). *)
let rec shift (tags : int array) (line : int) j last (carry : int) =
  let tag = tags.(j) in
  tags.(j) <- carry;
  tag = line || (j < last && shift tags line (j + 1) last tag)

let access t addr =
  let line = addr lsr t.line_bits in
  let base = (line land t.set_mask) * ways in
  let hit = shift t.tags line base (base + ways - 1) line in
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  hit

let probe t addr =
  let line = addr lsr t.line_bits in
  let base = (line land t.set_mask) * ways in
  let rec go j = j < ways && (t.tags.(base + j) = line || go (j + 1)) in
  go 0

let hits t = t.hits
let misses t = t.misses
let tags t = t.tags
let set_mask t = t.set_mask
