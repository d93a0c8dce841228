(* The differential checker: after any collection (or on demand) it
   walks every tracked root's reachable graph in the simulated heap and
   demands structural identity with the shadow model — same shapes, same
   immediates, same raw payloads, and the same aliasing (a bijection
   between resolved runtime addresses and shadow node ids).  On top of
   the differential walk it re-validates the paper's I1/I2 invariants
   and cross-checks the page index against the structures that own the
   pages.

   Everything here reads the store directly (uncharged): a check must
   not advance any vproc's virtual clock, or checking would perturb the
   schedule it is checking. *)

open Heap
open Manticore_gc
open Sim_mem

type root = { label : string; runtime : Value.t; shadow : Shadow.value }

type ctx = {
  c : Ctx.t;
  mutable errs : string list;
  addr_to_node : (int, int) Hashtbl.t;
  node_to_addr : (int, int) Hashtbl.t;
}

let err k fmt = Format.kasprintf (fun s -> k.errs <- s :: k.errs) fmt

(* Follow forwarding words to the object's current address.  Bounded:
   retargeting keeps real chains short; a long chain is itself a bug. *)
let resolve_addr (c : Ctx.t) addr =
  let mem = c.Ctx.store.Store.mem in
  let rec go addr depth =
    if depth > 16 then Error "forwarding chain too long"
    else if not (Memory.is_mapped mem addr && Addr.is_word_aligned addr) then
      Error "unmapped or unaligned"
    else begin
      let h = Memory.get_unchecked mem addr in
      if Header.is_forward h then go (Header.forward_addr h) (depth + 1)
      else if Header.is_header h then Ok addr
      else Error "word is neither header nor forwarding"
    end
  in
  go addr 0

(* ------------------------------------------------------------------ *)
(* Differential graph walk                                             *)
(* ------------------------------------------------------------------ *)

let rec compare_value k ~label (rv : Value.t) (sv : Shadow.value) =
  match sv with
  | Shadow.Imm n ->
      if not (Value.is_int rv) then
        err k "%s: shadow immediate %d, runtime %a" label n Value.pp rv
      else if Value.to_int rv <> n then
        err k "%s: shadow immediate %d, runtime immediate %d" label n
          (Value.to_int rv)
  | Shadow.Obj node ->
      if not (Value.is_ptr rv) then
        err k "%s: shadow object #%d, runtime %a" label node.Shadow.id Value.pp
          rv
      else begin
        match resolve_addr k.c (Value.to_ptr rv) with
        | Error m ->
            err k "%s: pointer %#x does not resolve (%s)" label
              (Value.to_ptr rv) m
        | Ok addr -> compare_node k ~label addr node
      end

and compare_node k ~label addr (node : Shadow.node) =
  let seen_addr = Hashtbl.find_opt k.addr_to_node addr in
  let seen_node = Hashtbl.find_opt k.node_to_addr node.Shadow.id in
  match (seen_addr, seen_node) with
  | Some id, Some a when id = node.Shadow.id && a = addr ->
      () (* pair already verified: sharing and cycles stop here *)
  | Some id, _ when id <> node.Shadow.id ->
      err k "%s: aliasing broken: runtime %#x is shadow #%d but expected #%d"
        label addr id node.Shadow.id
  | _, Some a when a <> addr ->
      err k
        "%s: aliasing broken: shadow #%d already seen at runtime %#x, now %#x"
        label node.Shadow.id a addr
  | _ ->
      Hashtbl.replace k.addr_to_node addr node.Shadow.id;
      Hashtbl.replace k.node_to_addr node.Shadow.id addr;
      compare_body k ~label addr node

and compare_body k ~label addr (node : Shadow.node) =
  let store = k.c.Ctx.store in
  match Obj_repr.kind store addr with
  | exception Invalid_argument m ->
      err k "%s: %#x unreadable (%s)" label addr m
  | rkind -> (
      let rlen = Obj_repr.size_words store addr in
      match (node.Shadow.kind, rkind) with
      | Shadow.Raw ws, Obj_repr.Raw ->
          if Array.length ws <> rlen then
            err k "%s: raw %#x length %d, shadow length %d" label addr rlen
              (Array.length ws)
          else
            Array.iteri
              (fun i w ->
                let rw = Obj_repr.get_raw store addr i in
                if rw <> w then
                  err k "%s: raw %#x word %d is %#Lx, shadow %#Lx" label addr i
                    rw w)
              ws
      | Shadow.Vec, Obj_repr.Vector ->
          if Array.length node.Shadow.fields <> rlen then
            err k "%s: vector %#x length %d, shadow length %d" label addr rlen
              (Array.length node.Shadow.fields)
          else compare_fields k ~label addr node
      | Shadow.Ref, Obj_repr.Mixed d when d.Descriptor.name = "mutref" ->
          compare_fields k ~label addr node
      | _ ->
          err k "%s: %#x kind mismatch (shadow %s)" label addr
            (match node.Shadow.kind with
            | Shadow.Vec -> "vector"
            | Shadow.Ref -> "ref"
            | Shadow.Raw _ -> "raw"))

and compare_fields k ~label addr node =
  let store = k.c.Ctx.store in
  Array.iteri
    (fun i sv ->
      match Obj_repr.get_field store addr i with
      | rv -> compare_value k ~label:(Printf.sprintf "%s.%d" label i) rv sv
      | exception Invalid_argument m ->
          err k "%s: %#x field %d unreadable (%s)" label addr i m)
    node.Shadow.fields

(* ------------------------------------------------------------------ *)
(* Page-index consistency                                              *)
(* ------------------------------------------------------------------ *)

let check_index k =
  let c = k.c in
  let index = c.Ctx.store.Store.index in
  let pb = Heap_index.page_bytes index in
  let n = Heap_index.n_pages index in
  (* What the owning structures say each page should be tagged. *)
  let expected = Array.make n `Free in
  let claim ~addr ~bytes tag who =
    if bytes > 0 then
      for p = addr / pb to (addr + bytes - 1) / pb do
        if p < 0 || p >= n then
          err k "heap-index: %s spans out-of-range page %d" who p
        else begin
          (match expected.(p) with
          | `Free -> ()
          | _ -> err k "heap-index: page %d claimed twice (%s)" p who);
          expected.(p) <- tag
        end
      done
  in
  Array.iter
    (fun (m : Ctx.mutator) ->
      let lh = m.Ctx.lh in
      claim ~addr:lh.Local_heap.base ~bytes:lh.Local_heap.bytes
        (`Local m.Ctx.id)
        (Printf.sprintf "local heap v%d" m.Ctx.id))
    c.Ctx.muts;
  List.iter
    (fun ch ->
      claim ~addr:ch.Chunk.base ~bytes:ch.Chunk.bytes (`Chunk ch.Chunk.base)
        (Printf.sprintf "chunk %#x" ch.Chunk.base))
    (Global_heap.in_use c.Ctx.global);
  (* Chunks condemned by an in-flight concurrent collection have left the
     heap's in-use set but still own their pages until the cycle's sweep
     releases them. *)
  List.iter
    (fun ch ->
      claim ~addr:ch.Chunk.base ~bytes:ch.Chunk.bytes (`Chunk ch.Chunk.base)
        (Printf.sprintf "condemned chunk %#x" ch.Chunk.base))
    (Ctx.conc_from_chunks c);
  List.iter
    (fun (addr, bytes) ->
      claim ~addr ~bytes (`Large addr) (Printf.sprintf "large %#x" addr))
    (Global_heap.large_list c.Ctx.global);
  Heap_index.iter_pages index (fun ~page_addr tag ->
      let p = page_addr / pb in
      let want = expected.(p) in
      let ok =
        match (tag, want) with
        | Heap_index.Free, `Free -> true
        | Heap_index.Local v, `Local w -> v = w
        | Heap_index.Global_chunk ch, `Chunk base -> ch.Chunk.base = base
        | Heap_index.Large l, `Large addr -> l.Heap_index.l_addr = addr
        | _ -> false
      in
      if not ok then
        err k "heap-index: page %#x tagged %s, structures say %s" page_addr
          (match tag with
          | Heap_index.Free -> "free"
          | Heap_index.Local v -> Printf.sprintf "local v%d" v
          | Heap_index.Global_chunk ch ->
              Printf.sprintf "chunk %#x" ch.Chunk.base
          | Heap_index.Large l -> Printf.sprintf "large %#x" l.Heap_index.l_addr)
          (match want with
          | `Free -> "free"
          | `Local v -> Printf.sprintf "local v%d" v
          | `Chunk base -> Printf.sprintf "chunk %#x" base
          | `Large addr -> Printf.sprintf "large %#x" addr))

(* ------------------------------------------------------------------ *)
(* Runtime root-cell sanity                                            *)
(* ------------------------------------------------------------------ *)

let check_runtime_roots k =
  Ctx.iter_all_roots k.c (fun ~vproc ~proxy cell ->
      let v = Roots.get cell in
      if Value.is_ptr v then begin
        let who =
          match vproc with
          | Some id ->
              Printf.sprintf "v%d %s cell" id (if proxy then "proxy" else "root")
          | None -> "global root cell"
        in
        match resolve_addr k.c (Value.to_ptr v) with
        | Error m -> err k "%s: %#x does not resolve (%s)" who (Value.to_ptr v) m
        | Ok addr ->
            if proxy && not (Proxy.is_proxy k.c.Ctx.store addr) then
              err k "%s: %#x is not a proxy object" who addr
      end)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let check (c : Ctx.t) ~(roots : root list) =
  let k =
    {
      c;
      errs = [];
      addr_to_node = Hashtbl.create 256;
      node_to_addr = Hashtbl.create 256;
    }
  in
  (match Ctx.check_invariants c with
  | Ok _ -> ()
  | Error errs -> List.iter (fun e -> err k "invariant: %s" e) errs);
  check_index k;
  check_runtime_roots k;
  List.iter (fun r -> compare_value k ~label:r.label r.runtime r.shadow) roots;
  match k.errs with [] -> Ok () | errs -> Error (List.rev errs)
