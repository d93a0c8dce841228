(* ------------------------------------------------------------------ *)
(* Minimal JSON                                                        *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (* Shortest decimal that parses back to the same double. *)
  let num_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else begin
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f
    end

  let escape_into b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let to_string j =
    let b = Buffer.create 1024 in
    let rec go = function
      | Null -> Buffer.add_string b "null"
      | Bool true -> Buffer.add_string b "true"
      | Bool false -> Buffer.add_string b "false"
      | Num f -> Buffer.add_string b (num_to_string f)
      | Str s ->
          Buffer.add_char b '"';
          escape_into b s;
          Buffer.add_char b '"'
      | Arr xs ->
          Buffer.add_char b '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char b ',';
              go x)
            xs;
          Buffer.add_char b ']'
      | Obj kvs ->
          Buffer.add_char b '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_char b '"';
              escape_into b k;
              Buffer.add_string b "\":";
              go v)
            kvs;
          Buffer.add_char b '}'
    in
    go j;
    Buffer.contents b

  exception Fail of int * string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" lit)
    in
    let utf8_into b code =
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
      end
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else begin
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              if !pos >= n then fail "unterminated escape";
              (match s.[!pos] with
              | '"' -> Buffer.add_char b '"'; incr pos
              | '\\' -> Buffer.add_char b '\\'; incr pos
              | '/' -> Buffer.add_char b '/'; incr pos
              | 'b' -> Buffer.add_char b '\b'; incr pos
              | 'f' -> Buffer.add_char b '\012'; incr pos
              | 'n' -> Buffer.add_char b '\n'; incr pos
              | 'r' -> Buffer.add_char b '\r'; incr pos
              | 't' -> Buffer.add_char b '\t'; incr pos
              | 'u' ->
                  if !pos + 4 >= n then fail "bad \\u escape";
                  let hex = String.sub s (!pos + 1) 4 in
                  (match int_of_string_opt ("0x" ^ hex) with
                  | Some code ->
                      utf8_into b code;
                      pos := !pos + 5
                  | None -> fail "bad \\u escape")
              | _ -> fail "bad escape");
              go ()
          | c ->
              Buffer.add_char b c;
              incr pos;
              go ()
        end
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then incr pos;
      let is_num_char c =
        match c with
        | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      if !pos = start then fail "expected a value";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elements (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (elements [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Fail (p, msg) ->
        Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms                                             *)
(* ------------------------------------------------------------------ *)

(* Bucket 0 holds values below 1; bucket i >= 1 covers
   [2^((i-1)/4), 2^(i/4)) — ~19% relative resolution up to 2^63. *)
let n_buckets = 256
let buckets_per_octave = 4.

let bucket_of v =
  if v < 1. then 0
  else begin
    let i =
      1 + int_of_float (buckets_per_octave *. (Float.log v /. Float.log 2.))
    in
    if i >= n_buckets then n_buckets - 1 else i
  end

let representative i =
  if i = 0 then 0.5
  else Float.exp2 ((float_of_int i -. 0.5) /. buckets_per_octave)

type hist = {
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let hist_create () =
  { counts = Array.make n_buckets 0; n = 0; sum = 0.; vmin = 0.; vmax = 0. }

let hist_add h v =
  let v = Float.max v 0. in
  let b = bucket_of v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.sum <- h.sum +. v;
  if h.n = 0 then begin
    h.vmin <- v;
    h.vmax <- v
  end
  else begin
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v
  end;
  h.n <- h.n + 1

let hist_merge ~into h =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts;
  if h.n > 0 then begin
    if into.n = 0 then begin
      into.vmin <- h.vmin;
      into.vmax <- h.vmax
    end
    else begin
      if h.vmin < into.vmin then into.vmin <- h.vmin;
      if h.vmax > into.vmax then into.vmax <- h.vmax
    end
  end;
  into.sum <- into.sum +. h.sum;
  into.n <- into.n + h.n

let hist_percentile h p =
  if h.n = 0 then 0.
  else begin
    (* Rank of the p-th percentile among n samples, 1-based.  [p *. n]
       can land a hair above the exact product (0.55 * 20 is
       11.000000000000002), and taking the ceiling of that would skip to
       the next sample, so shave a relative epsilon first.  Clamping to
       [1, n] keeps p <= 0 at the first sample and p >= 1 at the last
       instead of walking past the populated buckets. *)
    let x = p *. float_of_int h.n in
    let target = int_of_float (Float.ceil (x -. (Float.abs x *. 1e-12))) in
    let target = Stdlib.min h.n (Stdlib.max 1 target) in
    let rec go i cum =
      if i >= n_buckets then h.vmax
      else begin
        let cum = cum + h.counts.(i) in
        if cum >= target then Float.min h.vmax (Float.max h.vmin (representative i))
        else go (i + 1) cum
      end
    in
    go 0 0
  end

let hist_reset h =
  Array.fill h.counts 0 n_buckets 0;
  h.n <- 0;
  h.sum <- 0.;
  h.vmin <- 0.;
  h.vmax <- 0.

(* ------------------------------------------------------------------ *)
(* Windowed histograms                                                 *)
(* ------------------------------------------------------------------ *)

(* A sliding window over virtual time: a ring of per-epoch
   sub-histograms.  Samples land in the sub-histogram of their epoch
   (epoch = floor (t_ns / epoch_ns)); advancing time reuses the oldest
   slot, so at any moment the ring holds the last [epochs] epochs and a
   query merges the populated slots.  Recording stays O(1) and querying
   O(epochs * n_buckets) — cheap enough to evaluate on every scrape. *)

type windowed = {
  w_epoch_ns : float;
  w_ring : hist array;
  w_epoch_ids : int array; (* epoch id held by each slot; -1 = empty *)
  w_over : int array; (* samples above [w_thresh] per slot *)
  mutable w_cur : int; (* newest epoch id seen; -1 before any sample *)
  mutable w_thresh : float; (* SLO threshold; nan disables tracking *)
}

let windowed_create ?(epochs = 8) ~epoch_ns () =
  if epochs <= 0 then invalid_arg "windowed_create: epochs must be positive";
  if not (epoch_ns > 0.) then
    invalid_arg "windowed_create: epoch_ns must be positive";
  {
    w_epoch_ns = epoch_ns;
    w_ring = Array.init epochs (fun _ -> hist_create ());
    w_epoch_ids = Array.make epochs (-1);
    w_over = Array.make epochs 0;
    w_cur = -1;
    w_thresh = Float.nan;
  }

(* Rotate forward to epoch [e], clearing every slot that is being
   reused.  A jump larger than the ring clears everything once (the
   loop is clamped), so an idle stretch costs O(epochs), not O(gap). *)
let windowed_rotate w e =
  if e > w.w_cur then begin
    let n = Array.length w.w_ring in
    let lo = Stdlib.max (w.w_cur + 1) (e - n + 1) in
    for i = lo to e do
      let s = i mod n in
      hist_reset w.w_ring.(s);
      w.w_epoch_ids.(s) <- i;
      w.w_over.(s) <- 0
    done;
    w.w_cur <- e
  end

let windowed_add w ~t_ns v =
  let t_ns = Float.max t_ns 0. in
  let e = int_of_float (Float.floor (t_ns /. w.w_epoch_ns)) in
  windowed_rotate w e;
  let n = Array.length w.w_ring in
  let s = e mod n in
  (* A sample older than the ring retains (a laggard vproc clock) is
     dropped rather than polluting a newer epoch's slot. *)
  if w.w_epoch_ids.(s) = e then begin
    hist_add w.w_ring.(s) v;
    if (not (Float.is_nan w.w_thresh)) && v > w.w_thresh then
      w.w_over.(s) <- w.w_over.(s) + 1
  end

(* Merge the (up to) [last] newest populated epochs; also return how
   many samples in them exceeded the threshold. *)
let windowed_merge ?last w =
  let n = Array.length w.w_ring in
  let last = match last with None -> n | Some l -> Stdlib.min (Stdlib.max l 1) n in
  let acc = hist_create () in
  let over = ref 0 in
  let lo = w.w_cur - last + 1 in
  Array.iteri
    (fun s h ->
      let e = w.w_epoch_ids.(s) in
      if e >= 0 && e >= lo then begin
        hist_merge ~into:acc h;
        over := !over + w.w_over.(s)
      end)
    w.w_ring;
  (acc, !over)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let n_kinds = Array.length Obs.Event.kinds

type vrec = {
  pause : hist array; (* indexed by Obs.Event.kind_code *)
  bytes : hist array;
  req : hist; (* per-request latency, same scale as pauses (ns) *)
  v_causes : int array; (* indexed by Obs.Gc_cause.code *)
  mutable v_chunk_acquires : int;
  mutable v_steal_attempts : int;
  mutable v_steal_successes : int;
  mutable v_ratified : int;
  mutable v_ratify_skipped : int;
}

let vrec_create () =
  {
    pause = Array.init n_kinds (fun _ -> hist_create ());
    bytes = Array.init n_kinds (fun _ -> hist_create ());
    req = hist_create ();
    v_causes = Array.make Obs.Gc_cause.n_codes 0;
    v_chunk_acquires = 0;
    v_steal_attempts = 0;
    v_steal_successes = 0;
    v_ratified = 0;
    v_ratify_skipped = 0;
  }

(* A declared latency objective: "the [slo_percentile] of request
   latency over the last [slo_epochs] window epochs stays below
   [slo_threshold_ns]".  Burn rate is the observed share of requests
   over the threshold divided by the error budget (1 - percentile):
   burn < 1 means within budget, > 1 means burning it down. *)
type slo = {
  slo_percentile : float;
  slo_threshold_ns : float;
  slo_epochs : int;
}

type stream = {
  str_out : out_channel;
  str_interval_ns : float;
  mutable str_next_ns : float;
  mutable str_emitted : int;
  mutable str_closed : bool;
      (* the record outlives the channel so [stream_emitted] still
         answers after the run closed the stream *)
}

type t = {
  mutable vrecs : vrec array;
  w_pause : windowed; (* all non-barrier collection pauses *)
  w_barrier : windowed; (* barrier waits *)
  w_req : windowed; (* request latency; carries the SLO threshold *)
  mutable slo : slo option;
  mutable stream : stream option;
  mutable last_t_ns : float; (* newest event time seen, for exposition *)
}

let default_window_epoch_ns = 1_000_000. (* 1 ms of virtual time *)
let default_window_epochs = 8

let create ?(window_epoch_ns = default_window_epoch_ns)
    ?(window_epochs = default_window_epochs) ~n_vprocs () =
  {
    vrecs = Array.init n_vprocs (fun _ -> vrec_create ());
    w_pause = windowed_create ~epochs:window_epochs ~epoch_ns:window_epoch_ns ();
    w_barrier =
      windowed_create ~epochs:window_epochs ~epoch_ns:window_epoch_ns ();
    w_req = windowed_create ~epochs:window_epochs ~epoch_ns:window_epoch_ns ();
    slo = None;
    stream = None;
    last_t_ns = 0.;
  }

let set_slo t slo =
  t.slo <- slo;
  t.w_req.w_thresh <-
    (match slo with None -> Float.nan | Some s -> s.slo_threshold_ns)

let slo t = t.slo

let note_time t t_ns = if t_ns > t.last_t_ns then t.last_t_ns <- t_ns

let ensure t vproc =
  if vproc >= Array.length t.vrecs then begin
    let bigger = Array.init (vproc + 1) (fun _ -> vrec_create ()) in
    Array.blit t.vrecs 0 bigger 0 (Array.length t.vrecs);
    t.vrecs <- bigger
  end

(* [t_ns], when given, is the (virtual) time the pause *ended*: it
   routes the sample into the sliding window as well as the cumulative
   histogram.  Callers that have no clock (tests, offline merges) omit
   it and only the cumulative side is updated. *)
let record_pause ?cause ?t_ns t ~vproc ~kind ~ns ~bytes =
  if vproc >= 0 then begin
    ensure t vproc;
    let r = t.vrecs.(vproc) in
    let k = Obs.Event.kind_code kind in
    hist_add r.pause.(k) ns;
    hist_add r.bytes.(k) (float_of_int bytes);
    (match t_ns with
    | None -> ()
    | Some now ->
        note_time t now;
        let w = match kind with Gc_trace.Barrier -> t.w_barrier | _ -> t.w_pause in
        windowed_add w ~t_ns:now ns);
    match cause with
    | None -> ()
    | Some c ->
        let i = Obs.Gc_cause.code c in
        r.v_causes.(i) <- r.v_causes.(i) + 1
  end

let record_request ?t_ns t ~vproc ~ns =
  if vproc >= 0 then begin
    ensure t vproc;
    hist_add t.vrecs.(vproc).req ns;
    match t_ns with
    | None -> ()
    | Some now ->
        note_time t now;
        windowed_add t.w_req ~t_ns:now ns
  end

let record_chunk_acquire t ~vproc =
  if vproc >= 0 then begin
    ensure t vproc;
    t.vrecs.(vproc).v_chunk_acquires <- t.vrecs.(vproc).v_chunk_acquires + 1
  end

let record_ratify t ~vproc ~skipped =
  if vproc >= 0 then begin
    ensure t vproc;
    let r = t.vrecs.(vproc) in
    if skipped then r.v_ratify_skipped <- r.v_ratify_skipped + 1
    else r.v_ratified <- r.v_ratified + 1
  end

let record_steal t ~vproc ~success =
  if vproc >= 0 then begin
    ensure t vproc;
    let r = t.vrecs.(vproc) in
    r.v_steal_attempts <- r.v_steal_attempts + 1;
    if success then r.v_steal_successes <- r.v_steal_successes + 1
  end

let vrec_merge ~into r =
  for k = 0 to n_kinds - 1 do
    hist_merge ~into:into.pause.(k) r.pause.(k);
    hist_merge ~into:into.bytes.(k) r.bytes.(k)
  done;
  hist_merge ~into:into.req r.req;
  Array.iteri (fun i c -> into.v_causes.(i) <- into.v_causes.(i) + c) r.v_causes;
  into.v_chunk_acquires <- into.v_chunk_acquires + r.v_chunk_acquires;
  into.v_steal_attempts <- into.v_steal_attempts + r.v_steal_attempts;
  into.v_steal_successes <- into.v_steal_successes + r.v_steal_successes;
  into.v_ratified <- into.v_ratified + r.v_ratified;
  into.v_ratify_skipped <- into.v_ratify_skipped + r.v_ratify_skipped

let merge ~into t =
  Array.iteri
    (fun v r ->
      ensure into v;
      vrec_merge ~into:into.vrecs.(v) r)
    t.vrecs

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type dist = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
}

type kind_stats = { pause_ns : dist; copied_bytes : dist }

type vproc_stats = {
  vproc : int;
  minor : kind_stats;
  major : kind_stats;
  promotion : kind_stats;
  global : kind_stats;
  barrier : kind_stats;
  requests : dist;
  causes : (string * int) list;
  chunk_acquires : int;
  steal_attempts : int;
  steal_successes : int;
  ratified : int;  (* concurrent cycles this vproc was stopped to ratify *)
  ratify_skipped : int;  (* cycles it was quiescent and left running *)
}

type snapshot = { vprocs : vproc_stats list }

let dist_of_hist h =
  {
    count = h.n;
    sum = h.sum;
    min = h.vmin;
    max = h.vmax;
    p50 = hist_percentile h 0.50;
    p90 = hist_percentile h 0.90;
    p99 = hist_percentile h 0.99;
    p999 = hist_percentile h 0.999;
  }

let windowed_dist w = dist_of_hist (fst (windowed_merge w))

(* Windowed view over the last [window_epochs] epochs (or fewer while
   the ring is still filling): what "p99.9 right now" means. *)
type window_stats = {
  win_pause : dist;
  win_barrier : dist;
  win_request : dist;
  win_epoch_ns : float;
  win_epochs : int; (* ring size, i.e. the maximum lookback *)
  win_newest_epoch : int; (* -1 while no sample has been windowed *)
}

let window_stats t =
  {
    win_pause = windowed_dist t.w_pause;
    win_barrier = windowed_dist t.w_barrier;
    win_request = windowed_dist t.w_req;
    win_epoch_ns = t.w_pause.w_epoch_ns;
    win_epochs = Array.length t.w_pause.w_ring;
    win_newest_epoch =
      Stdlib.max t.w_pause.w_cur (Stdlib.max t.w_barrier.w_cur t.w_req.w_cur);
  }

type slo_status = {
  st_slo : slo;
  st_requests : int; (* requests observed in the SLO window *)
  st_over : int; (* of which above the threshold *)
  st_attained_ns : float; (* the target percentile actually attained *)
  st_burn_rate : float; (* (over/requests) / (1 - percentile) *)
}

let slo_status t =
  match t.slo with
  | None -> None
  | Some s ->
      let h, over = windowed_merge ~last:s.slo_epochs t.w_req in
      let budget = Float.max (1. -. s.slo_percentile) 1e-9 in
      let burn =
        if h.n = 0 then 0.
        else float_of_int over /. float_of_int h.n /. budget
      in
      Some
        {
          st_slo = s;
          st_requests = h.n;
          st_over = over;
          st_attained_ns = hist_percentile h s.slo_percentile;
          st_burn_rate = burn;
        }

(* The live (windowed) side of the report: sliding-window percentiles
   and SLO burn, which the JSON snapshot deliberately omits (its shape
   is pinned by checked-in benchmark artifacts). *)
let window_report t =
  let b = Buffer.create 256 in
  let w = window_stats t in
  if w.win_newest_epoch >= 0 then begin
    Buffer.add_string b
      (Printf.sprintf "sliding window (last %d x %s epochs):\n" w.win_epochs
         (Units.ns_to_string w.win_epoch_ns));
    let line name (d : dist) =
      if d.count > 0 then
        Buffer.add_string b
          (Printf.sprintf
             "  %-8s %7d  p50 %10s  p90 %10s  p99 %10s  p99.9 %10s\n" name
             d.count (Units.ns_to_string d.p50) (Units.ns_to_string d.p90)
             (Units.ns_to_string d.p99)
             (Units.ns_to_string d.p999))
    in
    line "pause" w.win_pause;
    line "barrier" w.win_barrier;
    line "request" w.win_request
  end;
  (match slo_status t with
  | None -> ()
  | Some st ->
      Buffer.add_string b
        (Printf.sprintf
           "slo: p%g <= %s over %d epochs: attained %s, %d/%d over \
            threshold, burn rate %.2f (%s)\n"
           (100. *. st.st_slo.slo_percentile)
           (Units.ns_to_string st.st_slo.slo_threshold_ns)
           st.st_slo.slo_epochs
           (Units.ns_to_string st.st_attained_ns)
           st.st_over st.st_requests st.st_burn_rate
           (if st.st_burn_rate <= 1. then "within budget" else "BURNING")));
  Buffer.contents b

let kind_stats_of r k =
  { pause_ns = dist_of_hist r.pause.(k); copied_bytes = dist_of_hist r.bytes.(k) }

let vproc_stats_of ~vproc r =
  let causes = ref [] in
  for i = Obs.Gc_cause.n_codes - 1 downto 0 do
    if r.v_causes.(i) > 0 then
      causes := (Obs.Gc_cause.code_name i, r.v_causes.(i)) :: !causes
  done;
  let ks k = kind_stats_of r (Obs.Event.kind_code k) in
  {
    vproc;
    minor = ks Minor;
    major = ks Major;
    promotion = ks Promotion;
    global = ks Global;
    barrier = ks Barrier;
    requests = dist_of_hist r.req;
    causes = !causes;
    chunk_acquires = r.v_chunk_acquires;
    steal_attempts = r.v_steal_attempts;
    steal_successes = r.v_steal_successes;
    ratified = r.v_ratified;
    ratify_skipped = r.v_ratify_skipped;
  }

let snapshot t =
  { vprocs = Array.to_list (Array.mapi (fun v r -> vproc_stats_of ~vproc:v r) t.vrecs) }

let aggregate t =
  let acc = vrec_create () in
  Array.iter (fun r -> vrec_merge ~into:acc r) t.vrecs;
  vproc_stats_of ~vproc:(-1) acc

let kind_stats vs (k : Gc_trace.kind) =
  match k with
  | Minor -> vs.minor
  | Major -> vs.major
  | Promotion -> vs.promotion
  | Global -> vs.global
  | Barrier -> vs.barrier

(* ------------------------------------------------------------------ *)
(* JSON serialization                                                  *)
(* ------------------------------------------------------------------ *)

let json_of_dist d =
  Json.Obj
    [
      ("count", Json.Num (float_of_int d.count));
      ("sum", Json.Num d.sum);
      ("min", Json.Num d.min);
      ("max", Json.Num d.max);
      ("p50", Json.Num d.p50);
      ("p90", Json.Num d.p90);
      ("p99", Json.Num d.p99);
      ("p999", Json.Num d.p999);
    ]

let json_of_kind ks =
  Json.Obj
    [
      ("pause_ns", json_of_dist ks.pause_ns);
      ("copied_bytes", json_of_dist ks.copied_bytes);
    ]

let json_of_vproc vs =
  Json.Obj
    (("vproc", Json.Num (float_of_int vs.vproc))
     :: Array.to_list
          (Array.map
             (fun (k, name) -> (name, json_of_kind (kind_stats vs k)))
             Obs.Event.kinds)
    @ [
      ("requests", json_of_dist vs.requests);
      ( "causes",
        Json.Obj
          (List.map (fun (name, n) -> (name, Json.Num (float_of_int n))) vs.causes)
      );
      ("chunk_acquires", Json.Num (float_of_int vs.chunk_acquires));
      ("steal_attempts", Json.Num (float_of_int vs.steal_attempts));
      ("steal_successes", Json.Num (float_of_int vs.steal_successes));
      ("ratified", Json.Num (float_of_int vs.ratified));
      ("ratify_skipped", Json.Num (float_of_int vs.ratify_skipped));
    ])

let snapshot_to_json s =
  Json.to_string
    (Json.Obj [ ("vprocs", Json.Arr (List.map json_of_vproc s.vprocs)) ])

exception Shape of string

let field k j =
  match Json.member k j with
  | Some v -> v
  | None -> raise (Shape ("missing field " ^ k))

let num_field k j =
  match field k j with
  | Json.Num f -> f
  | _ -> raise (Shape ("field " ^ k ^ " is not a number"))

let int_field k j = int_of_float (num_field k j)

let dist_of_json j =
  {
    count = int_field "count" j;
    sum = num_field "sum" j;
    min = num_field "min" j;
    max = num_field "max" j;
    p50 = num_field "p50" j;
    p90 = num_field "p90" j;
    p99 = num_field "p99" j;
    p999 = num_field "p999" j;
  }

let kind_of_json j =
  {
    pause_ns = dist_of_json (field "pause_ns" j);
    copied_bytes = dist_of_json (field "copied_bytes" j);
  }

let causes_of_json j =
  match field "causes" j with
  | Json.Obj kvs ->
      List.map
        (fun (k, v) ->
          match v with
          | Json.Num f -> (k, int_of_float f)
          | _ -> raise (Shape ("cause " ^ k ^ " is not a number")))
        kvs
  | _ -> raise (Shape "causes is not an object")

let vproc_of_json j =
  let ks k = kind_of_json (field (Obs.Event.kind_to_string k) j) in
  {
    vproc = int_field "vproc" j;
    minor = ks Minor;
    major = ks Major;
    promotion = ks Promotion;
    global = ks Global;
    barrier = ks Barrier;
    requests = dist_of_json (field "requests" j);
    causes = causes_of_json j;
    chunk_acquires = int_field "chunk_acquires" j;
    steal_attempts = int_field "steal_attempts" j;
    steal_successes = int_field "steal_successes" j;
    ratified = int_field "ratified" j;
    ratify_skipped = int_field "ratify_skipped" j;
  }

let snapshot_of_json s =
  match Json.parse s with
  | Error m -> Error m
  | Ok j -> (
      match
        match field "vprocs" j with
        | Json.Arr vs -> { vprocs = List.map vproc_of_json vs }
        | _ -> raise (Shape "vprocs is not an array")
      with
      | s -> Ok s
      | exception Shape m -> Error ("metrics snapshot: " ^ m))

(* ------------------------------------------------------------------ *)
(* Human-readable report                                               *)
(* ------------------------------------------------------------------ *)

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>per-vproc collector pauses:@,";
  Format.fprintf ppf "  %-6s %-10s %7s  %10s %10s %10s %10s %10s  %10s@,"
    "vproc" "kind" "count" "p50" "p90" "p99" "p99.9" "max" "copied";
  List.iter
    (fun vs ->
      Array.iter
        (fun (k, name) ->
          let ks = kind_stats vs k in
          let p = ks.pause_ns in
          if p.count > 0 then
            Format.fprintf ppf
              "  %-6s %-10s %7d  %10s %10s %10s %10s %10s  %10s@,"
              (if vs.vproc < 0 then "all" else Printf.sprintf "v%02d" vs.vproc)
              name p.count (Units.ns_to_string p.p50) (Units.ns_to_string p.p90)
              (Units.ns_to_string p.p99) (Units.ns_to_string p.p999)
              (Units.ns_to_string p.max)
              (Units.bytes_to_string (int_of_float ks.copied_bytes.sum)))
        Obs.Event.kinds;
      (let p = vs.requests in
       if p.count > 0 then
         Format.fprintf ppf "  %-6s %-10s %7d  %10s %10s %10s %10s %10s  %10s@,"
           (if vs.vproc < 0 then "all" else Printf.sprintf "v%02d" vs.vproc)
           "request" p.count (Units.ns_to_string p.p50)
           (Units.ns_to_string p.p90) (Units.ns_to_string p.p99)
           (Units.ns_to_string p.p999) (Units.ns_to_string p.max) "-");
      if vs.steal_attempts > 0 || vs.chunk_acquires > 0 then
        Format.fprintf ppf "  %-6s steals %d/%d, chunk acquires %d@,"
          (if vs.vproc < 0 then "all" else Printf.sprintf "v%02d" vs.vproc)
          vs.steal_successes vs.steal_attempts vs.chunk_acquires;
      if vs.ratified > 0 || vs.ratify_skipped > 0 then
        Format.fprintf ppf "  %-6s ratify: stopped %d, skipped %d@,"
          (if vs.vproc < 0 then "all" else Printf.sprintf "v%02d" vs.vproc)
          vs.ratified vs.ratify_skipped;
      if vs.causes <> [] then
        Format.fprintf ppf "  %-6s causes: %s@,"
          (if vs.vproc < 0 then "all" else Printf.sprintf "v%02d" vs.vproc)
          (String.concat ", "
             (List.map (fun (name, n) -> Printf.sprintf "%s %d" name n) vs.causes)))
    s.vprocs;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)
(* ------------------------------------------------------------------ *)

(* One self-contained OpenMetrics text block (ending in "# EOF").  The
   telemetry stream appends one block per emission, so a file holds a
   time series of expositions; [validate_metrics --openmetrics] splits
   on the terminator and checks each block. *)

let om_num = Json.num_to_string

let om_label_value s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let om_sample buf name labels value =
  Buffer.add_string buf name;
  (match labels with
  | [] -> ()
  | _ ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (om_label_value v);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf (om_num value);
  Buffer.add_char buf '\n'

let om_family buf name typ help =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ);
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help)

let om_summary buf name labels d =
  if d.count > 0 then begin
    om_sample buf name (labels @ [ ("quantile", "0.5") ]) d.p50;
    om_sample buf name (labels @ [ ("quantile", "0.9") ]) d.p90;
    om_sample buf name (labels @ [ ("quantile", "0.99") ]) d.p99;
    om_sample buf name (labels @ [ ("quantile", "0.999") ]) d.p999
  end;
  om_sample buf (name ^ "_count") labels (float_of_int d.count);
  om_sample buf (name ^ "_sum") labels d.sum

let to_openmetrics ?now_ns t =
  let now = match now_ns with Some n -> n | None -> t.last_t_ns in
  note_time t now;
  let buf = Buffer.create 4096 in
  let s = snapshot t in
  let vlabel vs = [ ("vproc", string_of_int vs.vproc) ] in
  om_family buf "gcsim_virtual_time_ns" "gauge"
    "Virtual time of this exposition (ns).";
  om_sample buf "gcsim_virtual_time_ns" [] now;
  om_family buf "gcsim_pause_ns" "summary"
    "Cumulative collector pause duration by vproc and kind (ns).";
  List.iter
    (fun vs ->
      Array.iter
        (fun (k, name) ->
          let ks = kind_stats vs k in
          if ks.pause_ns.count > 0 then
            om_summary buf "gcsim_pause_ns"
              (vlabel vs @ [ ("kind", name) ])
              ks.pause_ns)
        Obs.Event.kinds)
    s.vprocs;
  om_family buf "gcsim_request_ns" "summary"
    "Cumulative request latency by vproc (ns).";
  List.iter
    (fun vs ->
      if vs.requests.count > 0 then
        om_summary buf "gcsim_request_ns" (vlabel vs) vs.requests)
    s.vprocs;
  let w = window_stats t in
  let wlabel =
    [
      ("epoch_ns", om_num w.win_epoch_ns);
      ("epochs", string_of_int w.win_epochs);
    ]
  in
  om_family buf "gcsim_window_pause_ns" "summary"
    "Collector pauses (non-barrier) over the sliding window (ns).";
  om_summary buf "gcsim_window_pause_ns" wlabel w.win_pause;
  om_family buf "gcsim_window_barrier_ns" "summary"
    "Barrier waits over the sliding window (ns).";
  om_summary buf "gcsim_window_barrier_ns" wlabel w.win_barrier;
  om_family buf "gcsim_window_request_ns" "summary"
    "Request latency over the sliding window (ns).";
  om_summary buf "gcsim_window_request_ns" wlabel w.win_request;
  om_family buf "gcsim_copied_bytes" "counter"
    "Bytes copied or promoted by collections, by vproc and kind.";
  List.iter
    (fun vs ->
      Array.iter
        (fun (k, name) ->
          let ks = kind_stats vs k in
          if ks.copied_bytes.count > 0 then
            om_sample buf "gcsim_copied_bytes_total"
              (vlabel vs @ [ ("kind", name) ])
              ks.copied_bytes.sum)
        Obs.Event.kinds)
    s.vprocs;
  om_family buf "gcsim_steals" "counter"
    "Steal attempts by thief vproc and outcome.";
  List.iter
    (fun vs ->
      if vs.steal_attempts > 0 then begin
        om_sample buf "gcsim_steals_total"
          (vlabel vs @ [ ("outcome", "success") ])
          (float_of_int vs.steal_successes);
        om_sample buf "gcsim_steals_total"
          (vlabel vs @ [ ("outcome", "failure") ])
          (float_of_int (vs.steal_attempts - vs.steal_successes))
      end)
    s.vprocs;
  om_family buf "gcsim_chunk_acquires" "counter"
    "Global-heap chunk acquisitions by vproc.";
  List.iter
    (fun vs ->
      if vs.chunk_acquires > 0 then
        om_sample buf "gcsim_chunk_acquires_total" (vlabel vs)
          (float_of_int vs.chunk_acquires))
    s.vprocs;
  om_family buf "gcsim_ratify" "counter"
    "Concurrent-cycle ratify outcomes by vproc.";
  List.iter
    (fun vs ->
      if vs.ratified > 0 || vs.ratify_skipped > 0 then begin
        om_sample buf "gcsim_ratify_total"
          (vlabel vs @ [ ("outcome", "stopped") ])
          (float_of_int vs.ratified);
        om_sample buf "gcsim_ratify_total"
          (vlabel vs @ [ ("outcome", "skipped") ])
          (float_of_int vs.ratify_skipped)
      end)
    s.vprocs;
  om_family buf "gcsim_collections" "counter"
    "Collections by vproc and cause.";
  List.iter
    (fun vs ->
      List.iter
        (fun (cause, n) ->
          om_sample buf "gcsim_collections_total"
            (vlabel vs @ [ ("cause", cause) ])
            (float_of_int n))
        vs.causes)
    s.vprocs;
  (match slo_status t with
  | None -> ()
  | Some st ->
      om_family buf "gcsim_slo_burn_rate" "gauge"
        "Request-latency SLO burn rate over the SLO window (1 = budget).";
      om_sample buf "gcsim_slo_burn_rate" [] st.st_burn_rate;
      om_family buf "gcsim_slo_window_requests" "gauge"
        "Requests observed in the SLO window.";
      om_sample buf "gcsim_slo_window_requests" [] (float_of_int st.st_requests);
      om_sample buf "gcsim_slo_window_requests"
        [ ("over_threshold", "true") ]
        (float_of_int st.st_over);
      om_family buf "gcsim_slo_attained_ns" "gauge"
        "Latency actually attained at the SLO target percentile (ns).";
      om_sample buf "gcsim_slo_attained_ns" [] st.st_attained_ns;
      om_family buf "gcsim_slo_threshold_ns" "gauge"
        "Declared SLO latency threshold (ns).";
      om_sample buf "gcsim_slo_threshold_ns"
        [ ("percentile", om_num st.st_slo.slo_percentile) ]
        st.st_slo.slo_threshold_ns);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Streaming emission                                                  *)
(* ------------------------------------------------------------------ *)

let stream_to t ~path ~interval_ns =
  (match t.stream with
  | Some s when not s.str_closed -> close_out s.str_out
  | _ -> ());
  t.stream <-
    Some
      {
        str_out = open_out path;
        str_interval_ns = Float.max interval_ns 1.;
        str_next_ns = 0.;
        str_emitted = 0;
        str_closed = false;
      }

let stream_emit t ~now_ns s =
  output_string s.str_out (to_openmetrics ~now_ns t);
  flush s.str_out;
  s.str_emitted <- s.str_emitted + 1;
  s.str_next_ns <-
    (Float.floor (now_ns /. s.str_interval_ns) +. 1.) *. s.str_interval_ns

let stream_tick t ~now_ns =
  match t.stream with
  | Some s when (not s.str_closed) && now_ns >= s.str_next_ns ->
      stream_emit t ~now_ns s
  | _ -> ()

let stream_emitted t =
  match t.stream with Some s -> s.str_emitted | None -> 0

let stream_close t ~now_ns =
  match t.stream with
  | None -> ()
  | Some s ->
      if not s.str_closed then begin
        (* Always write a final block: a run shorter than the interval
           still leaves a complete exposition behind. *)
        stream_emit t ~now_ns s;
        close_out s.str_out;
        s.str_closed <- true
      end
