(* Benchmark-side spans, kept in memory and written once as Chrome
   trace-event JSON.  Process 0 holds the collector's own trace of the
   first traced job together with the job's phases, in virtual
   microseconds; process 1 holds every span on the host CPU clock. *)

module J = Manticore_gc.Metrics.Json

type clock = Host | Virtual

type span = {
  clock : clock;
  cat : string;
  name : string;
  t0 : float;  (* seconds (host CPU) or ns (virtual) *)
  t1 : float;
  args : (string * float) list;  (* counter deltas over the span *)
}

let recorded = ref []

let add ?(clock = Host) ~cat ~name ~t0 ~t1 args =
  recorded := { clock; cat; name; t0; t1; args } :: !recorded

let reset () = recorded := []

let to_us clock t = match clock with Host -> t *. 1e6 | Virtual -> t /. 1e3

let events s =
  let pid = match s.clock with Virtual -> 0 | Host -> 1 in
  let ev ph t extra =
    J.Obj
      ([ ("name", J.Str s.name); ("cat", J.Str s.cat); ("ph", J.Str ph);
         ("ts", J.Num (to_us s.clock t)); ("pid", J.Num (float_of_int pid));
         ("tid", J.Num 1000.) ]
      @ extra)
  in
  [ ev "B" s.t0 [];
    ev "E" s.t1 [ ("args", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) s.args)) ] ]

let process_name pid name =
  J.Obj
    [ ("name", J.Str "process_name"); ("ph", J.Str "M");
      ("pid", J.Num (float_of_int pid)); ("tid", J.Num 0.);
      ("args", J.Obj [ ("name", J.Str name) ]) ]

(* [collector] is a [Gc_trace.to_chrome_json] export (or ""). *)
let to_chrome ~collector =
  let collector_events =
    match J.parse collector with
    | Ok j -> (match J.member "traceEvents" j with Some (J.Arr evs) -> evs | _ -> [])
    | Error _ -> []
  in
  let ours = List.concat_map events (List.rev !recorded) in
  J.to_string
    (J.Obj
       [ ("displayTimeUnit", J.Str "ms");
         ( "traceEvents",
           J.Arr
             (process_name 0 "virtual time: collector events and job phases"
             :: process_name 1 "host CPU time: benchmark spans"
             :: (collector_events @ ours)) ) ])
