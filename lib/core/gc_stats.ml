type t = {
  mutable minor_count : int;
  mutable major_count : int;
  mutable promote_count : int;
  mutable promote_batched_values : int;
  mutable global_count : int;
  mutable minor_copied_bytes : int;
  mutable major_copied_bytes : int;
  mutable promoted_bytes : int;
  mutable global_copied_bytes : int;
  mutable alloc_bytes : int;
  mutable global_alloc_bytes : int;
  mutable chunk_acquires : int;
  mutable gc_ns : float;
}

let create () =
  {
    minor_count = 0;
    major_count = 0;
    promote_count = 0;
    promote_batched_values = 0;
    global_count = 0;
    minor_copied_bytes = 0;
    major_copied_bytes = 0;
    promoted_bytes = 0;
    global_copied_bytes = 0;
    alloc_bytes = 0;
    global_alloc_bytes = 0;
    chunk_acquires = 0;
    gc_ns = 0.;
  }

let add ~into t =
  into.minor_count <- into.minor_count + t.minor_count;
  into.major_count <- into.major_count + t.major_count;
  into.promote_count <- into.promote_count + t.promote_count;
  into.promote_batched_values <-
    into.promote_batched_values + t.promote_batched_values;
  into.global_count <- into.global_count + t.global_count;
  into.minor_copied_bytes <- into.minor_copied_bytes + t.minor_copied_bytes;
  into.major_copied_bytes <- into.major_copied_bytes + t.major_copied_bytes;
  into.promoted_bytes <- into.promoted_bytes + t.promoted_bytes;
  into.global_copied_bytes <- into.global_copied_bytes + t.global_copied_bytes;
  into.alloc_bytes <- into.alloc_bytes + t.alloc_bytes;
  into.global_alloc_bytes <- into.global_alloc_bytes + t.global_alloc_bytes;
  into.chunk_acquires <- into.chunk_acquires + t.chunk_acquires;
  into.gc_ns <- into.gc_ns +. t.gc_ns

let total arr =
  let acc = create () in
  Array.iter (fun t -> add ~into:acc t) arr;
  acc

let pp ppf t =
  Format.fprintf ppf
    "@[<v>minor: %s collections, %a copied@,\
     major: %s collections, %a copied@,\
     promotions: %s cycles (%s batched values), %a@,\
     global: %s collections, %a copied@,\
     allocated: %a nursery, %a global; %s chunk acquires@,\
     gc time: %a (simulated)@]"
    (Units.grouped t.minor_count) Units.pp_bytes t.minor_copied_bytes
    (Units.grouped t.major_count) Units.pp_bytes t.major_copied_bytes
    (Units.grouped t.promote_count)
    (Units.grouped t.promote_batched_values)
    Units.pp_bytes t.promoted_bytes
    (Units.grouped t.global_count) Units.pp_bytes t.global_copied_bytes
    Units.pp_bytes t.alloc_bytes Units.pp_bytes t.global_alloc_bytes
    (Units.grouped t.chunk_acquires) Units.pp_ns t.gc_ns
