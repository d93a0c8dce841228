(* Typed view of one flight-recorder entry.  The ring stores the packed
   (tag, a, b, c) form; this module is the codec between the two and the
   text form used by dump files. *)

type coll_kind = Minor | Major | Promotion | Global | Barrier

type global_phase =
  | Entry | Roots | Cheney | Retarget | Sweep | Exit
  | Mark | Claim | Evacuate | Handshake

type t =
  | Coll_begin of { kind : coll_kind; cause : Gc_cause.t }
  | Coll_end of { kind : coll_kind; cause : Gc_cause.t; bytes : int }
  | Chunk_acquire of { node : int; fresh : bool }
  | Chunk_release of { node : int }
  | Steal_attempt of { victim : int }
  | Steal_success of { victim : int }
  | Global_phase of { phase : global_phase }
  | Alloc_sample of { bytes : int }
  | Req_done of { latency_ns : int }
  | Conc_phase of { cycle : int; phase : global_phase; dur_ns : int }
  | Conc_slices of { cycle : int; count : int }
  | Conc_ratify of { cycle : int; ratified : int; skipped : int }
  | Conc_round of { cycle : int; exit : bool; straggler : int; wait_ns : int }
  | Conc_cycle of { cycle : int; dur_ns : int; slices : int }

(* One table per enumeration: a constructor's position is its packed
   code, and its string is the name dumps and reports use. *)
let kinds =
  [| (Minor, "minor"); (Major, "major"); (Promotion, "promotion");
     (Global, "global"); (Barrier, "barrier") |]

let phases =
  [| (Entry, "entry"); (Roots, "roots"); (Cheney, "cheney");
     (Retarget, "retarget"); (Sweep, "sweep"); (Exit, "exit");
     (Mark, "mark"); (Claim, "claim"); (Evacuate, "evacuate");
     (Handshake, "handshake") |]

let of_code tbl i =
  if i >= 0 && i < Array.length tbl then Some (fst tbl.(i)) else None

let of_name tbl s =
  Array.find_map (fun (x, n) -> if n = s then Some x else None) tbl

(* Typed loops, so [=] compiles to an integer compare. *)
let kind_code (k : coll_kind) =
  let rec go i = if fst kinds.(i) = k then i else go (i + 1) in
  go 0

let phase_code (p : global_phase) =
  let rec go i = if fst phases.(i) = p then i else go (i + 1) in
  go 0

let kind_of_code = of_code kinds
let kind_to_string k = snd kinds.(kind_code k)
let kind_of_string = of_name kinds
let phase_of_code = of_code phases
let phase_to_string p = snd phases.(phase_code p)
let phase_of_string = of_name phases

(* Packed form: a small tag plus up to three int operands — the "couple
   of int stores" budget that keeps recording cheap enough to stay on. *)

let encode = function
  | Coll_begin { kind; cause } -> (0, kind_code kind, Gc_cause.code cause, 0)
  | Coll_end { kind; cause; bytes } ->
      (1, kind_code kind, Gc_cause.code cause, bytes)
  | Chunk_acquire { node; fresh } -> (2, node, (if fresh then 1 else 0), 0)
  | Chunk_release { node } -> (3, node, 0, 0)
  | Steal_attempt { victim } -> (4, victim, 0, 0)
  | Steal_success { victim } -> (5, victim, 0, 0)
  | Global_phase { phase } -> (6, phase_code phase, 0, 0)
  | Alloc_sample { bytes } -> (7, bytes, 0, 0)
  | Req_done { latency_ns } -> (8, latency_ns, 0, 0)
  | Conc_phase { cycle; phase; dur_ns } -> (9, phase_code phase, dur_ns, cycle)
  | Conc_slices { cycle; count } -> (10, count, cycle, 0)
  | Conc_ratify { cycle; ratified; skipped } -> (11, ratified, skipped, cycle)
  | Conc_round { cycle; exit; straggler; wait_ns } ->
      ((if exit then 13 else 12), cycle, straggler, wait_ns)
  | Conc_cycle { cycle; dur_ns; slices } -> (14, cycle, dur_ns, slices)

let decode ~tag ~a ~b ~c =
  match tag with
  | 0 -> (
      match (kind_of_code a, Gc_cause.of_code b) with
      | Some kind, Some cause -> Some (Coll_begin { kind; cause })
      | _ -> None)
  | 1 -> (
      match (kind_of_code a, Gc_cause.of_code b) with
      | Some kind, Some cause -> Some (Coll_end { kind; cause; bytes = c })
      | _ -> None)
  | 2 -> Some (Chunk_acquire { node = a; fresh = b = 1 })
  | 3 -> Some (Chunk_release { node = a })
  | 4 -> Some (Steal_attempt { victim = a })
  | 5 -> Some (Steal_success { victim = a })
  | 6 -> (
      match phase_of_code a with
      | Some phase -> Some (Global_phase { phase })
      | None -> None)
  | 7 -> Some (Alloc_sample { bytes = a })
  | 8 -> Some (Req_done { latency_ns = a })
  | 9 -> (
      match phase_of_code a with
      | Some phase -> Some (Conc_phase { cycle = c; phase; dur_ns = b })
      | None -> None)
  | 10 -> Some (Conc_slices { cycle = b; count = a })
  | 11 -> Some (Conc_ratify { cycle = c; ratified = a; skipped = b })
  | 12 -> Some (Conc_round { cycle = a; exit = false; straggler = b; wait_ns = c })
  | 13 -> Some (Conc_round { cycle = a; exit = true; straggler = b; wait_ns = c })
  | 14 -> Some (Conc_cycle { cycle = a; dur_ns = b; slices = c })
  | _ -> None

(* Text form used by the dump codec: a name followed by its operands. *)

let to_strings = function
  | Coll_begin { kind; cause } ->
      [ "coll-begin"; kind_to_string kind; Gc_cause.to_string cause ]
  | Coll_end { kind; cause; bytes } ->
      [
        "coll-end"; kind_to_string kind; Gc_cause.to_string cause;
        string_of_int bytes;
      ]
  | Chunk_acquire { node; fresh } ->
      [ "chunk-acquire"; string_of_int node; (if fresh then "fresh" else "reused") ]
  | Chunk_release { node } -> [ "chunk-release"; string_of_int node ]
  | Steal_attempt { victim } -> [ "steal-attempt"; string_of_int victim ]
  | Steal_success { victim } -> [ "steal-success"; string_of_int victim ]
  | Global_phase { phase } -> [ "global-phase"; phase_to_string phase ]
  | Alloc_sample { bytes } -> [ "alloc-sample"; string_of_int bytes ]
  | Req_done { latency_ns } -> [ "req-done"; string_of_int latency_ns ]
  | Conc_phase { cycle; phase; dur_ns } ->
      [
        "conc-phase"; phase_to_string phase; string_of_int dur_ns;
        string_of_int cycle;
      ]
  | Conc_slices { cycle; count } ->
      [ "conc-slices"; string_of_int count; string_of_int cycle ]
  | Conc_ratify { cycle; ratified; skipped } ->
      [
        "conc-ratify"; string_of_int ratified; string_of_int skipped;
        string_of_int cycle;
      ]
  | Conc_round { cycle; exit; straggler; wait_ns } ->
      [
        "conc-round"; string_of_int cycle; (if exit then "exit" else "entry");
        string_of_int straggler; string_of_int wait_ns;
      ]
  | Conc_cycle { cycle; dur_ns; slices } ->
      [
        "conc-cycle"; string_of_int cycle; string_of_int dur_ns;
        string_of_int slices;
      ]

let of_strings words =
  let int s =
    match int_of_string_opt s with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "bad integer %S" s)
  in
  let ( let* ) = Result.bind in
  match words with
  | [ "coll-begin"; k; c ] -> (
      match (kind_of_string k, Gc_cause.of_string c) with
      | Some kind, Some cause -> Ok (Coll_begin { kind; cause })
      | _ -> Error "bad coll-begin operands")
  | [ "coll-end"; k; c; b ] -> (
      match (kind_of_string k, Gc_cause.of_string c) with
      | Some kind, Some cause ->
          let* bytes = int b in
          Ok (Coll_end { kind; cause; bytes })
      | _ -> Error "bad coll-end operands")
  | [ "chunk-acquire"; n; f ] ->
      let* node = int n in
      (match f with
      | "fresh" -> Ok (Chunk_acquire { node; fresh = true })
      | "reused" -> Ok (Chunk_acquire { node; fresh = false })
      | _ -> Error "bad chunk-acquire provenance")
  | [ "chunk-release"; n ] ->
      let* node = int n in
      Ok (Chunk_release { node })
  | [ "steal-attempt"; v ] ->
      let* victim = int v in
      Ok (Steal_attempt { victim })
  | [ "steal-success"; v ] ->
      let* victim = int v in
      Ok (Steal_success { victim })
  | [ "global-phase"; p ] -> (
      match phase_of_string p with
      | Some phase -> Ok (Global_phase { phase })
      | None -> Error "bad global-phase name")
  | [ "alloc-sample"; b ] ->
      let* bytes = int b in
      Ok (Alloc_sample { bytes })
  | [ "req-done"; l ] ->
      let* latency_ns = int l in
      Ok (Req_done { latency_ns })
  | [ "conc-phase"; p; d; cy ] -> (
      match phase_of_string p with
      | Some phase ->
          let* dur_ns = int d in
          let* cycle = int cy in
          Ok (Conc_phase { cycle; phase; dur_ns })
      | None -> Error "bad conc-phase name")
  | [ "conc-slices"; n; cy ] ->
      let* count = int n in
      let* cycle = int cy in
      Ok (Conc_slices { cycle; count })
  | [ "conc-ratify"; r; s; cy ] ->
      let* ratified = int r in
      let* skipped = int s in
      let* cycle = int cy in
      Ok (Conc_ratify { cycle; ratified; skipped })
  | [ "conc-round"; cy; which; st; w ] ->
      let* cycle = int cy in
      let* straggler = int st in
      let* wait_ns = int w in
      (match which with
      | "entry" -> Ok (Conc_round { cycle; exit = false; straggler; wait_ns })
      | "exit" -> Ok (Conc_round { cycle; exit = true; straggler; wait_ns })
      | _ -> Error "bad conc-round kind")
  | [ "conc-cycle"; cy; d; s ] ->
      let* cycle = int cy in
      let* dur_ns = int d in
      let* slices = int s in
      Ok (Conc_cycle { cycle; dur_ns; slices })
  | w :: _ -> Error (Printf.sprintf "unknown event %S" w)
  | [] -> Error "empty event"
