(* The fuzzer's operation alphabet.

   A fuzz program is a flat list of ops over per-vproc register files
   (REG general registers and PROXY_SLOTS proxy slots per vproc, all
   rooted for the whole program).  Every op is total: it validates its
   operands against the *shadow model* and degrades to a no-op when the
   operand shapes do not fit (e.g. [Set_field] on an immediate), so any
   subsequence of a trace is itself a well-formed trace — the property
   the delta-debugging shrinker relies on. *)

let regs_per_vproc = 8
let proxy_slots_per_vproc = 4

type t =
  | Alloc_vec of { vproc : int; dst : int; srcs : int list }
      (* fresh vector whose fields are the current register values *)
  | Alloc_fill_vec of { vproc : int; dst : int; len : int; src : int }
      (* fresh vector of [len] aliases of one register — the way the
         generator builds objects past the chunk threshold that still
         carry pointers *)
  | Alloc_raw of { vproc : int; dst : int; words : int; fill : int }
      (* fresh raw object with a deterministic payload derived from
         [fill]; large [words] exercises the direct-global and
         large-object paths *)
  | Alloc_ref of { vproc : int; dst : int; src : int }
      (* Mut.alloc_ref: the mutable cell of the mutation extension *)
  | Set_field of { vproc : int; obj : int; idx : int; src : int }
      (* Mut.set_pointer_field on the object in [obj]; [idx] is reduced
         mod the object's length *)
  | Copy of { vproc : int; dst : int; src : int } (* alias, same vproc *)
  | Drop of { vproc : int; reg : int; imm : int }
      (* overwrite a register with an immediate: the only way the fuzz
         program kills a root *)
  | Promote of { vproc : int; reg : int } (* explicit Promote.value *)
  | Share of { src_vproc : int; src : int; dst_vproc : int; dst : int }
      (* promote on the owner, then alias into another vproc's register
         — the cross-vproc sharing point of paper §3.1 *)
  | Mk_proxy of { vproc : int; slot : int; src : int }
      (* publish a proxy whose referent is the register's (pointer)
         value; replaces whatever proxy held the slot *)
  | Drop_proxy of { vproc : int; slot : int }
  | Minor of { vproc : int }
  | Major of { vproc : int }
  | Global (* run the configured global collector to completion *)
  | Request_global
      (* set the pending flag only: the collection triggers at whatever
         safe point the following ops reach first *)
  | Global_step
      (* concurrent mode: advance the concurrent collection by one
         bounded slice, starting a cycle if none is active — the ops
         that follow then mutate while the evacuation is in flight.
         No-op under the STW collector. *)
  | Sched_phase of { seed : int; fibers : int; src : int; dst : int }
      (* run a Runtime.Sched session on the shared heap: vproc 0 spawns
         [fibers] fibers closing over register [src]; idle vprocs steal
         (lazy promotion), results are awaited (share promotion) and
         gathered into register [dst] *)
  | Chan_phase of { seed : int; msgs : int; src : int; dst : int }
      (* run a Runtime.Sched session over CML channels: a producer fiber
         sync-sends [msgs] indexed messages built over register [src]
         as a choice across two channels; the main fiber selects them
         all, closes the channels, and gathers the messages into
         register [dst] — the message-promotion (write-buffer) path *)
  | Session_phase of { seed : int; reqs : int; src : int; dst : int }
      (* run a Runtime.Sched session through the server lifecycle: a
         session fiber holding register [src] as state serves [reqs]
         request/response round trips over a channel pair, then the
         request channel is closed while the session is parked on its
         next recv — the in-flight teardown path — and the responses
         are gathered into register [dst] *)
  | Chan_mix of {
      seed : int;
      fibers : int;
      chans : int;
      steps : int;
      src : int;
      dst : int;
    }
      (* run a generated Runtime.Sched program over CML channels:
         [fibers] fibers share [chans] channels, each running a
         [seed]-derived script of [steps] sends, recvs and 2-3-arm
         syncs whose messages are fresh vectors over register [src];
         the main fiber closes every channel under them, checks the
         outcome against a pure rendezvous model, and gathers the
         received messages into register [dst] *)
  | Check (* full differential + invariant check, mid-program *)

(* ------------------------------------------------------------------ *)
(* Replayable text codec                                               *)
(* ------------------------------------------------------------------ *)

let to_string = function
  | Alloc_vec { vproc; dst; srcs } ->
      Printf.sprintf "vec %d %d %s" vproc dst
        (String.concat "," (List.map string_of_int srcs))
  | Alloc_fill_vec { vproc; dst; len; src } ->
      Printf.sprintf "fillvec %d %d %d %d" vproc dst len src
  | Alloc_raw { vproc; dst; words; fill } ->
      Printf.sprintf "raw %d %d %d %d" vproc dst words fill
  | Alloc_ref { vproc; dst; src } -> Printf.sprintf "ref %d %d %d" vproc dst src
  | Set_field { vproc; obj; idx; src } ->
      Printf.sprintf "setf %d %d %d %d" vproc obj idx src
  | Copy { vproc; dst; src } -> Printf.sprintf "copy %d %d %d" vproc dst src
  | Drop { vproc; reg; imm } -> Printf.sprintf "drop %d %d %d" vproc reg imm
  | Promote { vproc; reg } -> Printf.sprintf "promote %d %d" vproc reg
  | Share { src_vproc; src; dst_vproc; dst } ->
      Printf.sprintf "share %d %d %d %d" src_vproc src dst_vproc dst
  | Mk_proxy { vproc; slot; src } ->
      Printf.sprintf "mkproxy %d %d %d" vproc slot src
  | Drop_proxy { vproc; slot } -> Printf.sprintf "dropproxy %d %d" vproc slot
  | Minor { vproc } -> Printf.sprintf "minor %d" vproc
  | Major { vproc } -> Printf.sprintf "major %d" vproc
  | Global -> "global"
  | Request_global -> "reqglobal"
  | Global_step -> "gstep"
  | Sched_phase { seed; fibers; src; dst } ->
      Printf.sprintf "sched %d %d %d %d" seed fibers src dst
  | Chan_phase { seed; msgs; src; dst } ->
      Printf.sprintf "chan %d %d %d %d" seed msgs src dst
  | Session_phase { seed; reqs; src; dst } ->
      Printf.sprintf "session %d %d %d %d" seed reqs src dst
  | Chan_mix { seed; fibers; chans; steps; src; dst } ->
      Printf.sprintf "chanmix %d %d %d %d %d %d" seed fibers chans steps src
        dst
  | Check -> "check"

let of_string line =
  let fail () = Error (Printf.sprintf "unparseable op: %S" line) in
  let int s = int_of_string_opt s in
  match String.split_on_char ' ' (String.trim line) with
  | [ "vec"; v; d; srcs ] -> (
      let parts = String.split_on_char ',' srcs in
      match (int v, int d, List.map int_of_string_opt parts) with
      | Some vproc, Some dst, srcs when List.for_all Option.is_some srcs ->
          Ok (Alloc_vec { vproc; dst; srcs = List.map Option.get srcs })
      | _ -> fail ())
  | [ "fillvec"; v; d; l; s ] -> (
      match (int v, int d, int l, int s) with
      | Some vproc, Some dst, Some len, Some src ->
          Ok (Alloc_fill_vec { vproc; dst; len; src })
      | _ -> fail ())
  | [ "raw"; v; d; w; f ] -> (
      match (int v, int d, int w, int f) with
      | Some vproc, Some dst, Some words, Some fill ->
          Ok (Alloc_raw { vproc; dst; words; fill })
      | _ -> fail ())
  | [ "ref"; v; d; s ] -> (
      match (int v, int d, int s) with
      | Some vproc, Some dst, Some src -> Ok (Alloc_ref { vproc; dst; src })
      | _ -> fail ())
  | [ "setf"; v; o; i; s ] -> (
      match (int v, int o, int i, int s) with
      | Some vproc, Some obj, Some idx, Some src ->
          Ok (Set_field { vproc; obj; idx; src })
      | _ -> fail ())
  | [ "copy"; v; d; s ] -> (
      match (int v, int d, int s) with
      | Some vproc, Some dst, Some src -> Ok (Copy { vproc; dst; src })
      | _ -> fail ())
  | [ "drop"; v; r; i ] -> (
      match (int v, int r, int i) with
      | Some vproc, Some reg, Some imm -> Ok (Drop { vproc; reg; imm })
      | _ -> fail ())
  | [ "promote"; v; r ] -> (
      match (int v, int r) with
      | Some vproc, Some reg -> Ok (Promote { vproc; reg })
      | _ -> fail ())
  | [ "share"; sv; sr; dv; dr ] -> (
      match (int sv, int sr, int dv, int dr) with
      | Some src_vproc, Some src, Some dst_vproc, Some dst ->
          Ok (Share { src_vproc; src; dst_vproc; dst })
      | _ -> fail ())
  | [ "mkproxy"; v; sl; s ] -> (
      match (int v, int sl, int s) with
      | Some vproc, Some slot, Some src -> Ok (Mk_proxy { vproc; slot; src })
      | _ -> fail ())
  | [ "dropproxy"; v; sl ] -> (
      match (int v, int sl) with
      | Some vproc, Some slot -> Ok (Drop_proxy { vproc; slot })
      | _ -> fail ())
  | [ "minor"; v ] -> (
      match int v with Some vproc -> Ok (Minor { vproc }) | None -> fail ())
  | [ "major"; v ] -> (
      match int v with Some vproc -> Ok (Major { vproc }) | None -> fail ())
  | [ "global" ] -> Ok Global
  | [ "reqglobal" ] -> Ok Request_global
  | [ "gstep" ] -> Ok Global_step
  | [ "sched"; se; f; s; d ] -> (
      match (int se, int f, int s, int d) with
      | Some seed, Some fibers, Some src, Some dst ->
          Ok (Sched_phase { seed; fibers; src; dst })
      | _ -> fail ())
  | [ "chan"; se; ms; s; d ] -> (
      match (int se, int ms, int s, int d) with
      | Some seed, Some msgs, Some src, Some dst ->
          Ok (Chan_phase { seed; msgs; src; dst })
      | _ -> fail ())
  | [ "session"; se; rq; s; d ] -> (
      match (int se, int rq, int s, int d) with
      | Some seed, Some reqs, Some src, Some dst ->
          Ok (Session_phase { seed; reqs; src; dst })
      | _ -> fail ())
  | [ "chanmix"; se; f; c; st; s; d ] -> (
      match (int se, int f, int c, int st, int s, int d) with
      | Some seed, Some fibers, Some chans, Some steps, Some src, Some dst ->
          Ok (Chan_mix { seed; fibers; chans; steps; src; dst })
      | _ -> fail ())
  | [ "check" ] -> Ok Check
  | _ -> fail ()

let trace_to_string ?seed ops =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# manticore-fuzz-trace v1\n";
  (match seed with
  | Some s -> Buffer.add_string b (Printf.sprintf "# seed %d\n" s)
  | None -> ());
  List.iter
    (fun op ->
      Buffer.add_string b (to_string op);
      Buffer.add_char b '\n')
    ops;
  Buffer.contents b

let trace_of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc rest
        else begin
          match of_string line with
          | Ok op -> go (op :: acc) rest
          | Error m -> Error m
        end
  in
  go [] lines

let pp ppf op = Format.pp_print_string ppf (to_string op)
