(* The flight recorder: one ring per vproc, a NUMA traffic matrix, and
   an allocation sampler.  Cheap enough to stay on for every run; the
   [enabled] flag exists only for the overhead benchmark and for runs
   that explicitly opt out. *)

type t = {
  rings : Ring.t array;
  node_of_vproc : int array;
  n_nodes : int;
  matrix : int array;  (* row-major: src_node * n_nodes + dst_node -> bytes *)
  mutable enabled : bool;
  mutable sample_countdown : int;
}

let default_capacity = 4096
let sample_every = 64

let create ?(capacity = default_capacity) ~n_vprocs ~n_nodes ~node_of_vproc () =
  if n_vprocs <= 0 then invalid_arg "Recorder.create: n_vprocs must be positive";
  if n_nodes <= 0 then invalid_arg "Recorder.create: n_nodes must be positive";
  {
    rings = Array.init n_vprocs (fun _ -> Ring.create ~capacity);
    node_of_vproc = Array.init n_vprocs node_of_vproc;
    n_nodes;
    matrix = Array.make (n_nodes * n_nodes) 0;
    enabled = true;
    sample_countdown = sample_every;
  }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let n_vprocs t = Array.length t.rings
let n_nodes t = t.n_nodes
let node_of_vproc t v = t.node_of_vproc.(v)

let record t ~vproc ~t_ns ev =
  if t.enabled && vproc >= 0 && vproc < Array.length t.rings then begin
    let tag, a, b, c = Event.encode ev in
    Ring.push t.rings.(vproc) ~t_ns ~tag ~a ~b ~c
  end

let record_copy t ~src_node ~dst_node ~bytes =
  if
    t.enabled
    && src_node >= 0 && src_node < t.n_nodes
    && dst_node >= 0 && dst_node < t.n_nodes
  then begin
    let i = (src_node * t.n_nodes) + dst_node in
    t.matrix.(i) <- t.matrix.(i) + bytes
  end

(* Sampling shares one countdown across vprocs: the stream is a uniform
   1-in-[sample_every] sample of all allocations, cheap to maintain. *)
let sample_alloc t ~vproc ~t_ns ~bytes =
  if t.enabled then begin
    t.sample_countdown <- t.sample_countdown - 1;
    if t.sample_countdown <= 0 then begin
      t.sample_countdown <- sample_every;
      record t ~vproc ~t_ns (Event.Alloc_sample { bytes })
    end
  end

let matrix_get t ~src_node ~dst_node =
  if src_node < 0 || src_node >= t.n_nodes || dst_node < 0 || dst_node >= t.n_nodes
  then 0
  else t.matrix.((src_node * t.n_nodes) + dst_node)

let matrix_total t = Array.fold_left ( + ) 0 t.matrix

let dropped t ~vproc = Ring.dropped t.rings.(vproc)
let total_events t ~vproc = Ring.total t.rings.(vproc)

let events t ~vproc =
  let out = ref [] in
  Ring.iter_oldest_first t.rings.(vproc) (fun seq t_ns tag a b c ->
      match Event.decode ~tag ~a ~b ~c with
      | Some ev -> out := (seq, t_ns, ev) :: !out
      | None -> ());
  List.rev !out

(* Merge [src] into [into]: used by the harness when combining outcomes
   of several instrumented runs.  Rings are merged by replaying events
   into the matching vproc's ring (so overwrite semantics still hold);
   the matrix adds elementwise when the node counts agree. *)
let merge ~into src =
  let n = min (Array.length into.rings) (Array.length src.rings) in
  for v = 0 to n - 1 do
    (* Events [src] already lost to overwrite are gone for good; keep
       them visible in the merged ring's drop counter. *)
    Ring.note_lost into.rings.(v) (Ring.dropped src.rings.(v));
    Ring.iter_oldest_first src.rings.(v) (fun _seq t_ns tag a b c ->
        Ring.push into.rings.(v) ~t_ns ~tag ~a ~b ~c)
  done;
  if into.n_nodes = src.n_nodes then
    Array.iteri
      (fun i bytes -> into.matrix.(i) <- into.matrix.(i) + bytes)
      src.matrix

(* --- Dump codec ---------------------------------------------------- *)

let dump_version = "obs-dump v1"

let to_buffer buf t =
  Buffer.add_string buf dump_version;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "vprocs %d\n" (Array.length t.rings));
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" t.n_nodes);
  Array.iteri
    (fun v node -> Buffer.add_string buf (Printf.sprintf "vproc-node %d %d\n" v node))
    t.node_of_vproc;
  Array.iteri
    (fun v ring ->
      let d = Ring.dropped ring in
      if d > 0 then Buffer.add_string buf (Printf.sprintf "dropped %d %d\n" v d))
    t.rings;
  for s = 0 to t.n_nodes - 1 do
    for d = 0 to t.n_nodes - 1 do
      let bytes = t.matrix.((s * t.n_nodes) + d) in
      if bytes > 0 then
        Buffer.add_string buf (Printf.sprintf "matrix %d %d %d\n" s d bytes)
    done
  done;
  Array.iteri
    (fun v ring ->
      Ring.iter_oldest_first ring (fun seq t_ns tag a b c ->
          match Event.decode ~tag ~a ~b ~c with
          | None -> ()
          | Some ev ->
              Buffer.add_string buf
                (Printf.sprintf "ev %d %d %.6f %s\n" v seq t_ns
                   (String.concat " " (Event.to_strings ev)))))
    t.rings;
  Buffer.add_string buf "end\n"

let to_string t =
  let buf = Buffer.create 4096 in
  to_buffer buf t;
  Buffer.contents buf

(* Strict by default: every line must parse and the stream must close
   with its "end" terminator, so a truncated or corrupt dump is an
   error rather than a silently shortened analysis.  [partial] keeps
   the old forgiving behaviour for salvage work: unparsable lines are
   skipped (and counted) and a missing terminator is tolerated. *)
let of_string ?(partial = false) s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> fail "empty dump"
  | header :: rest ->
      if header <> dump_version then fail "bad dump header %S" header
      else
        let* n_vprocs, rest =
          match rest with
          | l :: rest -> (
              match String.split_on_char ' ' l with
              | [ "vprocs"; n ] -> (
                  match int_of_string_opt n with
                  | Some n when n > 0 -> Ok (n, rest)
                  | _ -> fail "bad vprocs line %S" l)
              | _ -> fail "expected vprocs line, got %S" l)
          | [] -> fail "truncated dump"
        in
        let* n_nodes, rest =
          match rest with
          | l :: rest -> (
              match String.split_on_char ' ' l with
              | [ "nodes"; n ] -> (
                  match int_of_string_opt n with
                  | Some n when n > 0 -> Ok (n, rest)
                  | _ -> fail "bad nodes line %S" l)
              | _ -> fail "expected nodes line, got %S" l)
          | [] -> fail "truncated dump"
        in
        let node_of = Array.make n_vprocs 0 in
        (* Events arrive oldest-first per vproc; replay them through
           [record] so the reconstructed recorder behaves identically. *)
        let t =
          create
            ~capacity:(max default_capacity 1)
            ~n_vprocs ~n_nodes
            ~node_of_vproc:(fun v -> node_of.(v))
            ()
        in
        let parse_line l =
          match String.split_on_char ' ' l with
          | [ "vproc-node"; v; n ] -> (
              match (int_of_string_opt v, int_of_string_opt n) with
              | Some v, Some n when v >= 0 && v < n_vprocs ->
                  node_of.(v) <- n;
                  t.node_of_vproc.(v) <- n;
                  Ok ()
              | _ -> fail "bad vproc-node line %S" l)
          | [ "dropped"; v; d ] -> (
              (* Events lost before the dump was written: keep them in
                 the restored ring's drop counter. *)
              match (int_of_string_opt v, int_of_string_opt d) with
              | Some v, Some d when v >= 0 && v < n_vprocs && d >= 0 ->
                  Ring.note_lost t.rings.(v) d;
                  Ok ()
              | _ -> fail "bad dropped line %S" l)
          | [ "matrix"; s_; d_; b_ ] -> (
              match
                (int_of_string_opt s_, int_of_string_opt d_, int_of_string_opt b_)
              with
              | Some sn, Some dn, Some b
                when sn >= 0 && sn < n_nodes && dn >= 0 && dn < n_nodes ->
                  t.matrix.((sn * n_nodes) + dn) <- b;
                  Ok ()
              | _ -> fail "bad matrix line %S" l)
          | "ev" :: v :: _seq :: ts :: words -> (
              match (int_of_string_opt v, float_of_string_opt ts) with
              | Some v, Some t_ns when v >= 0 && v < n_vprocs -> (
                  match Event.of_strings words with
                  | Ok ev ->
                      record t ~vproc:v ~t_ns ev;
                      Ok ()
                  | Error e -> fail "bad event in %S: %s" l e)
              | _ -> fail "bad ev line %S" l)
          | _ -> fail "unrecognized dump line %S" l
        in
        let rec go saw_end = function
          | [] ->
              if saw_end || partial then Ok t
              else
                fail
                  "truncated dump: missing \"end\" terminator (use --partial \
                   to analyze the readable prefix)"
          | l :: rest ->
              if l = "end" then
                if rest = [] || partial then go true rest
                else fail "corrupt dump: %d lines after \"end\" terminator"
                    (List.length rest)
              else if saw_end then go saw_end rest
              else (
                match parse_line l with
                | Ok () -> go false rest
                | Error _ when partial -> go false rest
                | Error _ as e -> e)
        in
        go false rest

(* Human-readable tail of each vproc's ring, for post-mortem printing
   next to a failing trace. *)
let dump_tail t =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun v _ ->
      let evs = events t ~vproc:v in
      let n = List.length evs in
      let tail =
        if n <= 32 then evs else List.filteri (fun i _ -> i >= n - 32) evs
      in
      Buffer.add_string buf
        (Printf.sprintf "vproc %d (node %d): %d events recorded, %d dropped\n" v
           t.node_of_vproc.(v)
           (Ring.total t.rings.(v))
           (Ring.dropped t.rings.(v)));
      List.iter
        (fun (seq, t_ns, ev) ->
          Buffer.add_string buf
            (Printf.sprintf "  [%6d] %12.0fns %s\n" seq t_ns
               (String.concat " " (Event.to_strings ev))))
        tail)
    t.rings;
  Buffer.contents buf
