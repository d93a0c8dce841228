(* Shared helpers for the collector tests: a small machine context,
   heap-structure builders, and a deep snapshot for before/after
   comparison across collections. *)

open Heap
open Manticore_gc

let small_params =
  {
    Params.default with
    Params.capacity_bytes = 8 * 1024 * 1024;
    local_heap_bytes = 8 * 1024;
    chunk_bytes = 4 * 1024;
    nursery_min_bytes = 1024;
    global_budget_per_vproc = 16 * 1024;
  }

let mk_ctx ?(params = small_params) ?(policy = Sim_mem.Page_policy.Local)
    ?(machine = Numa.Machines.tiny4) ?(n_vprocs = 2) () =
  let ctx = Ctx.create ~params ~machine ~n_vprocs ~policy () in
  Global_gc.install_sync_hook ctx;
  ctx

(* An OCaml-side view of a heap structure, insensitive to addresses. *)
type snap =
  | Imm of int
  | Raw of int64 list
  | Vec of snap list
  | Mix of string * snap list

let rec pp_snap ppf = function
  | Imm n -> Format.fprintf ppf "%d" n
  | Raw ws -> Format.fprintf ppf "raw[%d]" (List.length ws)
  | Vec ss ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";") pp_snap)
        ss
  | Mix (name, ss) ->
      Format.fprintf ppf "%s(%a)" name
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",") pp_snap)
        ss

let rec snapshot (ctx : Ctx.t) v =
  if Value.is_int v then Imm (Value.to_int v)
  else begin
    let store = ctx.Ctx.store in
    let addr = Value.to_ptr v in
    let h = Obj_repr.header store addr in
    let addr = if Header.is_forward h then Header.forward_addr h else addr in
    let n = Obj_repr.size_words store addr in
    match Obj_repr.kind store addr with
    | Obj_repr.Raw -> Raw (List.init n (fun i -> Obj_repr.get_raw store addr i))
    | Obj_repr.Vector ->
        Vec (List.init n (fun i -> snapshot ctx (Obj_repr.get_field store addr i)))
    | Obj_repr.Mixed d ->
        let slots = Array.to_list d.Descriptor.pointer_slots in
        Mix
          ( d.Descriptor.name,
            List.init n (fun i ->
                if List.mem i slots then
                  snapshot ctx (Obj_repr.get_field store addr i)
                else
                  match Obj_repr.get_field store addr i with
                  | v when Value.is_int v -> Imm (Value.to_int v)
                  | _ -> Imm 0) )
    | Obj_repr.Proxy -> Mix ("proxy", [])
  end

let snap = Alcotest.testable pp_snap ( = )

(* Build a cons list of ints (vectors of [head; tail]); 0 is nil. *)
let rec build_list ctx m = function
  | [] -> Value.of_int 0
  | x :: rest ->
      let tail = build_list ctx m rest in
      (* [tail] is protected by alloc_vector itself. *)
      Alloc.alloc_vector ctx m [| Value.of_int x; tail |]

let rec read_list ctx m v =
  if Value.is_int v then []
  else begin
    let v = Ctx.resolve ctx m v in
    let addr = Value.to_ptr v in
    let hd = Value.to_int (Ctx.get_field ctx m addr 0) in
    hd :: read_list ctx m (Ctx.get_field ctx m addr 1)
  end

(* A complete binary tree of vectors with leaf payloads. *)
let rec build_tree ctx m depth seed =
  if depth = 0 then Value.of_int seed
  else begin
    let l = build_tree ctx m (depth - 1) (2 * seed) in
    Roots.protect m.Ctx.roots l (fun cl ->
        let r = build_tree ctx m (depth - 1) ((2 * seed) + 1) in
        Alloc.alloc_vector ctx m [| Roots.get cl; r |])
  end

let assert_invariants ctx =
  match Ctx.check_invariants ctx with
  | Ok _ -> ()
  | Error errs -> Alcotest.failf "heap invariants violated:\n%s" (String.concat "\n" errs)

let in_local (m : Ctx.mutator) v =
  Value.is_ptr v && Local_heap.in_heap m.Ctx.lh (Value.to_ptr v)

(* Allocate a proxy in the global heap for [m] (what the runtime's channel
   implementation does) and register it in the vproc's proxy list. *)
let make_proxy ctx (m : Ctx.mutator) referent =
  let dest = Forward.global_dest ctx m ~on_copy:(fun _ _ -> ()) in
  let addr = dest.Forward.alloc_dst ((Proxy.size_words + 1) * 8) in
  Proxy.init ctx.Ctx.store ~addr ~owner:m.Ctx.id ~referent;
  let cell = Roots.add m.Ctx.proxies (Value.of_ptr addr) in
  (addr, cell)
