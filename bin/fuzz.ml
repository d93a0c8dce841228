(* Model-differential GC fuzzer front end.

   Modes:
   - campaign (default): generate and run [--programs] random programs of
     [--ops] ops each, starting from [--seed]; on the first divergence,
     shrink the trace (unless [--no-shrink]) and print a replayable
     reproducer (also written under [--fail-dir] when given);
   - replay: [--replay FILE] runs a saved trace, optionally shrinking a
     still-failing one with [--shrink].

   Exit codes: 0 all programs passed / replay passed; 1 divergence found;
   2 usage, out-of-range parameters or unreadable trace. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let cfg_of ~chaos ~mode ~slices =
  let base = Fuzz.Engine.default_cfg in
  {
    base with
    Fuzz.Engine.corrupt_copy = chaos;
    params =
      {
        base.Fuzz.Engine.params with
        Manticore_gc.Params.global_gc_mode = mode;
        conc_parallel_slices = slices;
      };
  }

let report_failure ~fail_dir (f : Fuzz.Driver.failure) =
  Printf.printf "FAILURE: seed %d, op %d: %s\n" f.Fuzz.Driver.seed
    f.Fuzz.Driver.op_index f.Fuzz.Driver.message;
  let trace ops = Fuzz.Op.trace_to_string ~seed:f.Fuzz.Driver.seed ops in
  let repro =
    match f.Fuzz.Driver.minimized with
    | Some ops ->
        (match f.Fuzz.Driver.shrink_stats with
        | Some st ->
            Printf.printf "minimized to %d ops (%d shrink runs):\n"
              st.Fuzz.Shrink.kept st.Fuzz.Shrink.runs
        | None -> ());
        trace ops
    | None -> trace f.Fuzz.Driver.program
  in
  print_string repro;
  Printf.printf "(replay with: fuzz --replay FILE)\n";
  match fail_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path =
        Filename.concat dir (Printf.sprintf "seed-%d.trace" f.Fuzz.Driver.seed)
      in
      write_file path repro;
      let events_path =
        Filename.concat dir (Printf.sprintf "seed-%d.events" f.Fuzz.Driver.seed)
      in
      write_file events_path f.Fuzz.Driver.events;
      (match f.Fuzz.Driver.minimized with
      | Some _ ->
          write_file
            (Filename.concat dir
               (Printf.sprintf "seed-%d.full.trace" f.Fuzz.Driver.seed))
            (Fuzz.Op.trace_to_string ~seed:f.Fuzz.Driver.seed
               f.Fuzz.Driver.program)
      | None -> ());
      Printf.printf "wrote %s\n" path;
      Printf.printf "wrote %s\n" events_path

let replay ~cfg ~shrink path =
  match Fuzz.Op.trace_of_string (read_file path) with
  | exception Sys_error m ->
      Printf.eprintf "cannot read trace: %s\n" m;
      2
  | Error m ->
      Printf.eprintf "cannot parse trace %s: %s\n" path m;
      2
  | Ok ops -> (
      match Fuzz.Engine.run_trace ~cfg ops with
      | Fuzz.Engine.Passed _ as o ->
          Format.printf "%s: %a@." path Fuzz.Engine.pp_outcome o;
          0
      | Fuzz.Engine.Failed _ as o ->
          Format.printf "%s: %a@." path Fuzz.Engine.pp_outcome o;
          if shrink then begin
            let ops', st = Fuzz.Driver.shrink_failure ~cfg ops in
            Printf.printf "minimized to %d ops (%d shrink runs):\n"
              st.Fuzz.Shrink.kept st.Fuzz.Shrink.runs;
            print_string (Fuzz.Op.trace_to_string ops')
          end;
          1)

let main seed ops programs replay_file shrink no_shrink chaos fail_dir profile
    mode slices =
  let cfg = cfg_of ~chaos ~mode ~slices in
  match (Manticore_gc.Params.validate cfg.Fuzz.Engine.params, replay_file) with
  | Error e, _ ->
      Printf.eprintf "invalid parameters: %s\n" e;
      2
  | Ok (), Some path -> replay ~cfg ~shrink path
  | Ok (), None -> (
      let log m = Printf.printf "%s\n%!" m in
      Printf.printf
        "fuzzing: %d program(s) x %d ops, base seed %d, %s global GC%s%s\n%!"
        programs ops seed
        (match mode with
        | Manticore_gc.Params.Stw -> "stop-the-world"
        | Manticore_gc.Params.Concurrent ->
            if slices > 1 then
              Printf.sprintf "concurrent (%d parallel slices)" slices
            else "concurrent")
        (match profile with
        | Fuzz.Gen.Default -> ""
        | Fuzz.Gen.Steal_message -> " (steal/message-weighted)"
        | Fuzz.Gen.Sessions -> " (session-lifecycle-weighted)"
        | Fuzz.Gen.Global_heavy -> " (global-collection-weighted)")
        (if chaos > 0 then
           Printf.sprintf " (chaos: corrupt every %d-th evacuation)" chaos
         else "");
      match
        Fuzz.Driver.campaign ~cfg ~profile ~shrink:(not no_shrink) ~log ~seed
          ~programs ~n_ops:ops ()
      with
      | Ok n ->
          Printf.printf "all %d programs passed\n" n;
          0
      | Error f ->
          report_failure ~fail_dir f;
          1)

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Base random seed.")

let ops =
  Arg.(
    value & opt int 200
    & info [ "ops" ] ~docv:"N" ~doc:"Ops per generated program.")

let programs =
  Arg.(
    value & opt int 20
    & info [ "programs" ] ~docv:"N" ~doc:"Number of programs to run.")

let replay_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE" ~doc:"Replay a saved trace file.")

let shrink =
  Arg.(
    value & flag
    & info [ "shrink" ] ~doc:"When a replayed trace fails, shrink it.")

let no_shrink =
  Arg.(
    value & flag
    & info [ "no-shrink" ] ~doc:"Do not shrink campaign failures.")

let chaos =
  Arg.(
    value & opt int 0
    & info [ "chaos-forwarding" ] ~docv:"N"
        ~doc:
          "Fault injection (testing the fuzzer): corrupt every N-th \
           evacuation copy so the checker has something to catch.")

let fail_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "fail-dir" ] ~docv:"DIR"
        ~doc:"Write failing traces into DIR (for CI artifacts).")

let profile =
  Arg.(
    value
    & opt
        (enum
           [ ("default", Fuzz.Gen.Default);
             ("steal-message", Fuzz.Gen.Steal_message);
             ("sessions", Fuzz.Gen.Sessions);
             ("global-heavy", Fuzz.Gen.Global_heavy) ])
        Fuzz.Gen.Default
    & info [ "weights" ] ~docv:"PROFILE"
        ~doc:
          "Op-weight profile: $(b,default); $(b,steal-message) to hammer \
           the scheduler's steal/message promotion paths; \
           $(b,sessions) to hammer the server session lifecycle \
           (open, request/response round trips, in-flight teardown) and \
           run generated send/recv/sync programs checked against a \
           rendezvous model (the only profile with that op); or \
           $(b,global-heavy) to force global collections constantly and \
           mutate while evacuation is in flight (pair with \
           $(b,--global-mode concurrent)).")

let mode =
  Arg.(
    value
    & opt
        (enum
           [ ("stw", Manticore_gc.Params.Stw);
             ("concurrent", Manticore_gc.Params.Concurrent) ])
        Manticore_gc.Params.Stw
    & info [ "global-mode" ] ~docv:"MODE"
        ~doc:
          "Global collector under test: $(b,stw) (default) or \
           $(b,concurrent) (incremental chunk evacuation with bounded \
           pauses).")

let slices =
  Arg.(
    value & opt int 1
    & info [ "conc-parallel-slices" ] ~docv:"N"
        ~doc:
          "Evacuation slices per collector turn for the concurrent global \
           collector (1 = the lead slice only; with $(b,--global-mode \
           concurrent) higher values dispatch assist slices on idle \
           vprocs with per-chunk claim arbitration).")

let cmd =
  let info_ =
    Cmd.info "fuzz"
      ~doc:"Model-differential fuzzer for the simulated Manticore heap"
  in
  Cmd.v info_
    Term.(
      const main $ seed $ ops $ programs $ replay_file $ shrink $ no_shrink
      $ chaos $ fail_dir $ profile $ mode $ slices)

let () = exit (Cmd.eval' cmd)
