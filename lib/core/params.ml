type global_gc_mode = Stw | Concurrent

let alloc_cycles = 4.
let gc_obj_cycles = 12.
let chunk_local_sync_cycles = 300.
let chunk_global_sync_cycles = 2000.
let promote_spinup_cycles = 1500.
let barrier_cycles = 4000.
let handshake_cycles = 400.

type t = {
  page_bytes : int;
  capacity_bytes : int;
  local_heap_bytes : int;
  chunk_bytes : int;
  nursery_min_bytes : int;
  global_budget_per_vproc : int;
  chunk_affinity : bool;
  young_exclusion : bool;
  unified_heap : bool;
  global_gc_mode : global_gc_mode;
  conc_slice_bytes : int;
  conc_parallel_slices : int;
  conc_ratify_dirty_only : bool;
}

let default =
  {
    page_bytes = 4096;
    capacity_bytes = 256 * 1024 * 1024;
    local_heap_bytes = 256 * 1024;
    chunk_bytes = 64 * 1024;
    nursery_min_bytes = 32 * 1024;
    global_budget_per_vproc = 768 * 1024;
    chunk_affinity = true;
    young_exclusion = true;
    unified_heap = false;
    global_gc_mode = Stw;
    conc_slice_bytes = 32 * 1024;
    conc_parallel_slices = 1;
    conc_ratify_dirty_only = true;
  }

let validate t =
  let check c msg = if c then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let pow2 n = n > 0 && n land (n - 1) = 0 in
  let* () = check (pow2 t.page_bytes && t.page_bytes >= 8) "page_bytes must be a power of two >= 8" in
  let* () =
    check (t.capacity_bytes > 0 && t.capacity_bytes mod t.page_bytes = 0)
      "capacity must be a positive page multiple"
  in
  let* () =
    check (t.local_heap_bytes mod t.page_bytes = 0)
      "local heap must be a page multiple"
  in
  let* () =
    check (t.chunk_bytes > 0 && t.chunk_bytes mod t.page_bytes = 0)
      "chunk must be a positive page multiple"
  in
  let* () =
    check (t.nursery_min_bytes * 4 <= t.local_heap_bytes)
      "nursery threshold too large for the local heap"
  in
  let* () =
    check (t.global_budget_per_vproc >= t.chunk_bytes)
      "global budget must cover at least one chunk"
  in
  let* () =
    check (t.conc_slice_bytes > 0)
      "concurrent evacuation slice must be positive"
  in
  check
    (t.conc_parallel_slices >= 1)
    "conc_parallel_slices must be at least 1"
