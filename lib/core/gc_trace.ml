(* The trace's kind is the same enumeration the flight recorder uses —
   the type equation keeps the two telemetry layers in sync. *)
type kind = Obs.Event.coll_kind = Minor | Major | Promotion | Global | Barrier

type event = {
  vproc : int;
  kind : kind;
  cause : Obs.Gc_cause.t;
  node : int;
  t_start_ns : float;
  t_end_ns : float;
  bytes : int;
}

type t = { mutable events : event list; mutable on : bool }

let create () = { events = []; on = false }
let enable t = t.on <- true
let record t e = if t.on then t.events <- e :: t.events
let events t = List.rev t.events
let clear t = t.events <- []

let glyph = function
  | Minor -> '.'
  | Major -> 'M'
  | Promotion -> 'p'
  | Global -> 'G'
  | Barrier -> 'b'

(* Later (more significant) phases win a shared bucket. *)
let rank = function
  | Minor -> 0
  | Promotion -> 1
  | Major -> 2
  | Barrier -> 3
  | Global -> 4

let render_timeline ?(width = 72) t ~n_vprocs =
  match events t with
  | [] -> "(no collector events recorded)\n"
  | evs ->
      (* Anchor the axis at the earliest recorded start, not at 0: a
         trace enabled mid-run would otherwise squash every event into
         the right edge of each lane. *)
      let t_begin =
        List.fold_left (fun acc e -> Float.min acc e.t_start_ns) infinity evs
      in
      let t_end =
        List.fold_left (fun acc e -> Float.max acc e.t_end_ns) t_begin evs
      in
      let span = Float.max (t_end -. t_begin) 1. in
      let lanes = Array.make_matrix n_vprocs width ' ' in
      let occupant = Array.make_matrix n_vprocs width (-1) in
      let paint v kind c0 c1 =
        if v >= 0 && v < n_vprocs then
          for ccol = c0 to c1 do
            if rank kind >= occupant.(v).(ccol) then begin
              occupant.(v).(ccol) <- rank kind;
              lanes.(v).(ccol) <- glyph kind
            end
          done
      in
      List.iter
        (fun e ->
          let col ns =
            min (width - 1)
              (int_of_float (float_of_int width *. (ns -. t_begin) /. span))
          in
          let c0 = col e.t_start_ns and c1 = col e.t_end_ns in
          (* Global events are recorded per vproc (under STW every vproc
             records the full span, so the old all-lanes painting falls
             out; under the concurrent collector each lane shows only
             its own slices and handshakes). *)
          paint e.vproc e.kind c0 c1)
        evs;
      let buf = Buffer.create 2048 in
      Buffer.add_string buf
        (Printf.sprintf "collector timeline (%.3f .. %.3f ms):\n"
           (t_begin /. 1e6) (t_end /. 1e6));
      Array.iteri
        (fun v lane ->
          Buffer.add_string buf (Printf.sprintf "  v%02d |%s|\n" v (String.init width (Array.get lane))))
        lanes;
      Buffer.add_string buf
        "  legend: . minor   M major   p promotion   G global   b barrier wait\n";
      Buffer.contents buf

(* Chrome trace-event JSON (the `about:tracing` / Perfetto format):
   complete ("X") events with microsecond timestamps, one thread lane
   per vproc.  Self-contained string building — the Metrics JSON module
   depends on this one, so it cannot be used here. *)
let to_chrome_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b s
  in
  let vprocs = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if not (Hashtbl.mem vprocs e.vproc) then begin
        Hashtbl.add vprocs e.vproc ();
        emit
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"vproc %d\"}}"
             e.vproc e.vproc)
      end;
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"gc\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"bytes\":%d,\"cause\":\"%s\",\"node\":%d}}"
           (Obs.Event.kind_to_string e.kind)
           (e.t_start_ns /. 1e3)
           (Float.max 0. ((e.t_end_ns -. e.t_start_ns) /. 1e3))
           e.vproc e.bytes
           (Obs.Gc_cause.to_string e.cause)
           e.node))
    (events t);
  Buffer.add_string b "]}";
  Buffer.contents b

let summary t =
  let evs = events t in
  let tally = Hashtbl.create 4 in
  let per_vproc = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let n, b =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tally e.kind)
      in
      Hashtbl.replace tally e.kind (n + 1, b + e.bytes);
      let key = (e.vproc, e.kind) in
      let vn, vb =
        Option.value ~default:(0, 0) (Hashtbl.find_opt per_vproc key)
      in
      Hashtbl.replace per_vproc key (vn + 1, vb + e.bytes))
    evs;
  let line (k, name) =
    match Hashtbl.find_opt tally k with
    | None -> Printf.sprintf "  %-10s 0\n" name
    | Some (n, b) -> Printf.sprintf "  %-10s %5d events, %9d bytes\n" name n b
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "collector events:\n";
  Array.iter (fun k -> Buffer.add_string buf (line k)) Obs.Event.kinds;
  (* Per-vproc breakdown: only vprocs that recorded events, in order. *)
  let vprocs =
    List.sort_uniq compare (List.map (fun e -> e.vproc) evs)
  in
  if vprocs <> [] then begin
    Buffer.add_string buf "per-vproc breakdown:\n";
    List.iter
      (fun v ->
        Buffer.add_string buf (Printf.sprintf "  v%02d:" v);
        Array.iter
          (fun (k, name) ->
            match Hashtbl.find_opt per_vproc (v, k) with
            | None -> ()
            | Some (n, b) ->
                Buffer.add_string buf
                  (Printf.sprintf " %s %d (%d bytes)" name n b))
          Obs.Event.kinds;
        Buffer.add_char buf '\n')
      vprocs
  end;
  Buffer.contents buf

(* --- Offline analysis of a flight recorder ------------------------ *)

let of_recorder r =
  let n_kinds = Array.length Obs.Event.kinds in
  let orphans = ref 0 in
  let recorded = ref [] in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    let pending = Array.make n_kinds [] in
    List.iter
      (fun (_, t_ns, ev) ->
        match ev with
        | Obs.Event.Coll_begin { kind; _ } ->
            let k = Obs.Event.kind_code kind in
            pending.(k) <- t_ns :: pending.(k)
        | Obs.Event.Coll_end { kind; cause; bytes } -> (
            let k = Obs.Event.kind_code kind in
            match pending.(k) with
            | t0 :: rest ->
                pending.(k) <- rest;
                recorded :=
                  {
                    vproc = v;
                    kind;
                    cause;
                    node = Obs.Recorder.node_of_vproc r v;
                    t_start_ns = t0;
                    t_end_ns = t_ns;
                    bytes;
                  }
                  :: !recorded
            | [] -> incr orphans)
        | _ -> ())
      (Obs.Recorder.events r ~vproc:v);
    Array.iter (fun l -> orphans := !orphans + List.length l) pending
  done;
  let by_start =
    List.sort (fun a b -> compare a.t_start_ns b.t_start_ns) !recorded
  in
  ({ events = List.rev by_start; on = true }, !orphans)

let request_windows r =
  let ws = ref [] in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    List.iter
      (fun (_, t_ns, ev) ->
        match ev with
        | Obs.Event.Req_done { latency_ns } ->
            ws := (t_ns -. float_of_int latency_ns, t_ns) :: !ws
        | _ -> ())
      (Obs.Recorder.events r ~vproc:v)
  done;
  !ws

let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let slow_requests ws =
  let lats = Array.of_list (List.map (fun (lo, hi) -> hi -. lo) ws) in
  Array.sort compare lats;
  if Array.length lats = 0 then []
  else
    let thresh = percentile lats 0.99 in
    List.filter (fun (lo, hi) -> hi -. lo >= thresh) ws

(* Share of [lo,hi] covered by the union of the collections' intervals. *)
let overlap_share evs (lo, hi) =
  let clipped =
    List.filter_map
      (fun c ->
        let s = Float.max lo c.t_start_ns and e = Float.min hi c.t_end_ns in
        if e > s then Some (s, e) else None)
      evs
  in
  let covered, _ =
    List.fold_left
      (fun (acc, cursor) (s, e) ->
        let s = Float.max s cursor in
        if e > s then (acc +. (e -. s), e) else (acc, cursor))
      (0., lo)
      (List.sort compare clipped)
  in
  if hi > lo then covered /. (hi -. lo) else 0.

let gc_overlap_share t ws =
  let evs = events t in
  let lat = List.fold_left (fun a (lo, hi) -> a +. (hi -. lo)) 0. ws in
  let gc =
    List.fold_left
      (fun a w -> a +. (overlap_share evs w *. (snd w -. fst w)))
      0. ws
  in
  gc /. Float.max 1. lat
