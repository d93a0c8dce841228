open Heap
open Manticore_gc

type descs = { node : Descriptor.desc }

let node_name = "pval_node"
let leaf_max = 256

let register (ctx : Ctx.t) =
  let table = ctx.Ctx.store.Store.table in
  match Descriptor.find_by_name table node_name with
  | Some d -> { node = d }
  | None ->
      {
        node =
          Descriptor.register table ~name:node_name ~size_words:3
            ~pointer_slots:[ 1; 2 ];
      }

(* {2 Tuples} *)

let tuple ctx m fields = Alloc.alloc_vector ctx m fields
let field ctx m v i = Ctx.get_field ctx m (Value.to_ptr v) i

(* {2 Lists} *)

let nil = Value.of_int 0
let is_nil v = Value.is_int v
let cons ctx m hd tl = Alloc.alloc_vector ctx m [| hd; tl |]
let head ctx m v = Ctx.get_field ctx m (Value.to_ptr v) 0
let tail ctx m v = Ctx.get_field ctx m (Value.to_ptr v) 1

let list_length ctx m v =
  let rec go acc v = if is_nil v then acc else go (acc + 1) (tail ctx m v) in
  go 0 v

let list_of_ints ctx m xs =
  (* Build back-to-front so each cons's tail is passed as a field (and
     thereby rooted by the allocator). *)
  List.fold_left
    (fun acc x -> cons ctx m (Value.of_int x) acc)
    nil (List.rev xs)

let ints_of_list ctx m v =
  let rec go acc v =
    if is_nil v then List.rev acc
    else go (Value.to_int (head ctx m v) :: acc) (tail ctx m v)
  in
  go [] v

let list_rev_append ctx m xs ys =
  let rec go xs ys =
    if is_nil xs then ys
    else begin
      let hd = head ctx m xs in
      let tl = tail ctx m xs in
      (* [tl] must survive the cons (hd and ys are protected as fields). *)
      Roots.protect m.Ctx.roots tl (fun ctl ->
          let ys' = cons ctx m hd ys in
          go (Roots.get ctl) ys')
    end
  in
  go xs ys

let list_append ctx m xs ys =
  Roots.protect m.Ctx.roots ys (fun cys ->
      let rxs = list_rev_append ctx m xs nil in
      list_rev_append ctx m rxs (Roots.get cys))

(* {2 Parallel arrays (value leaves)} *)

let empty = Value.of_int 0

let node_size ctx m v =
  (* Interior node: field 0 is the cached total size. *)
  Value.to_int (Ctx.get_field ctx m (Value.to_ptr v) 0)

let arr_length ctx m v =
  if Value.is_int v then 0
  else begin
    (* The reference may be a stale alias of a promoted object: resolve
       before the header-based dispatch. *)
    let addr = Value.to_ptr (Ctx.resolve ctx m v) in
    let h = Ctx.header_of ctx m addr in
    let id = Header.id h in
    if id = Header.vector_id || id = Header.raw_id then Header.length_words h
    else node_size ctx m v
  end

let farr_length = arr_length

let arr_node ctx m (d : descs) l r =
  (* Sizes read before the allocation (which may move l and r — but they
     are protected as fields, and sizes are immutable anyway). *)
  let total = arr_length ctx m l + arr_length ctx m r in
  Alloc.alloc_mixed ctx m d.node [| Value.of_int total; l; r |]

let is_node ctx m v =
  (not (Value.is_int v))
  && Header.id (Ctx.header_of ctx m (Value.to_ptr (Ctx.resolve ctx m v)))
     >= Header.first_mixed_id

(* Build a leaf vector of [hi - lo] elements of [f], rooting the interim
   results so [f] may allocate. *)
let build_leaf ctx (m : Ctx.mutator) ~lo ~hi ~f =
  let n = hi - lo in
  let cells = Array.init n (fun i -> Roots.add m.Ctx.roots (f (lo + i))) in
  let fields = Array.map Roots.get cells in
  Array.iter (fun c -> Roots.remove m.Ctx.roots c) cells;
  Alloc.alloc_vector ctx m fields

let rec tabulate_range ctx m d ~lo ~hi ~f =
  if hi - lo <= leaf_max then build_leaf ctx m ~lo ~hi ~f
  else begin
    let mid = (lo + hi) / 2 in
    let l = tabulate_range ctx m d ~lo ~hi:mid ~f in
    Roots.protect m.Ctx.roots l (fun cl ->
        let r = tabulate_range ctx m d ~lo:mid ~hi ~f in
        arr_node ctx m d (Roots.get cl) r)
  end

let arr_tabulate ctx m d ~n ~f =
  if n = 0 then empty else tabulate_range ctx m d ~lo:0 ~hi:n ~f

let rec arr_get ctx m v i =
  let addr = Value.to_ptr v in
  if is_node ctx m v then begin
    let l = Ctx.get_field ctx m addr 1 in
    let lsize = arr_length ctx m l in
    if i < lsize then arr_get ctx m l i
    else arr_get ctx m (Ctx.get_field ctx m addr 2) (i - lsize)
  end
  else Ctx.get_field ctx m addr i

let rec arr_iter ctx m v f =
  if not (Value.is_int v) then begin
    let addr = Value.to_ptr v in
    if is_node ctx m v then begin
      arr_iter ctx m (Ctx.get_field ctx m addr 1) f;
      arr_iter ctx m (Ctx.get_field ctx m addr 2) f
    end
    else
      let n = arr_length ctx m v in
      for i = 0 to n - 1 do
        f (Ctx.get_field ctx m addr i)
      done
  end

let arr_of_int_array ctx m d xs =
  arr_tabulate ctx m d ~n:(Array.length xs) ~f:(fun i -> Value.of_int xs.(i))

let arr_to_int_array ctx m v =
  let out = Array.make (arr_length ctx m v) 0 in
  let i = ref 0 in
  arr_iter ctx m v (fun x ->
      out.(!i) <- Value.to_int x;
      incr i);
  out

(* {2 Float arrays (raw leaves)} *)

let build_fleaf ctx m ~lo ~hi ~f =
  let n = hi - lo in
  let v = Alloc.alloc_raw ctx m ~words:n in
  for i = 0 to n - 1 do
    Alloc.init_float ctx m v i (f (lo + i))
  done;
  v

let rec ftabulate_range ctx m d ~lo ~hi ~f =
  if hi - lo <= leaf_max then build_fleaf ctx m ~lo ~hi ~f
  else begin
    let mid = (lo + hi) / 2 in
    let l = ftabulate_range ctx m d ~lo ~hi:mid ~f in
    Roots.protect m.Ctx.roots l (fun cl ->
        let r = ftabulate_range ctx m d ~lo:mid ~hi ~f in
        arr_node ctx m d (Roots.get cl) r)
  end

let farr_tabulate ctx m d ~n ~f =
  if n = 0 then empty else ftabulate_range ctx m d ~lo:0 ~hi:n ~f

let rec farr_get ctx m v i =
  let addr = Value.to_ptr v in
  if is_node ctx m v then begin
    let l = Ctx.get_field ctx m addr 1 in
    let lsize = arr_length ctx m l in
    if i < lsize then farr_get ctx m l i
    else farr_get ctx m (Ctx.get_field ctx m addr 2) (i - lsize)
  end
  else Ctx.get_float ctx m addr i

(* Join with flattening: two small leaves of the same kind merge into one
   flat leaf instead of growing the tree — keeping access paths shallow,
   as production rope implementations do. *)
let flatten_max = 64

let leaf_kind ctx m v =
  let id = Header.id (Ctx.header_of ctx m (Value.to_ptr (Ctx.resolve ctx m v))) in
  if id = Header.vector_id then `Vec
  else if id = Header.raw_id then `Raw
  else `Node

let arr_join ctx m d a b =
  if Value.is_int a then b
  else if Value.is_int b then a
  else begin
    let la = arr_length ctx m a and lb = arr_length ctx m b in
    if la + lb <= flatten_max then begin
      match (leaf_kind ctx m a, leaf_kind ctx m b) with
      | `Vec, `Vec ->
          let aa = Value.to_ptr (Ctx.resolve ctx m a)
          and ba = Value.to_ptr (Ctx.resolve ctx m b) in
          let fields =
            Array.init (la + lb) (fun i ->
                if i < la then Ctx.get_field ctx m aa i
                else Ctx.get_field ctx m ba (i - la))
          in
          Alloc.alloc_vector ctx m fields
      | `Raw, `Raw ->
          let floats =
            Array.init (la + lb) (fun i ->
                if i < la then farr_get ctx m a i else farr_get ctx m b (i - la))
          in
          (* a and b stay valid: reads precede the allocation. *)
          let v = Alloc.alloc_raw ctx m ~words:(la + lb) in
          Array.iteri (fun i x -> Alloc.init_float ctx m v i x) floats;
          v
      | _ -> arr_node ctx m d a b
    end
    else arr_node ctx m d a b
  end

let rec farr_fold ctx m v ~init ~f =
  if Value.is_int v then init
  else begin
    let addr = Value.to_ptr v in
    if is_node ctx m v then begin
      let acc = farr_fold ctx m (Ctx.get_field ctx m addr 1) ~init ~f in
      farr_fold ctx m (Ctx.get_field ctx m addr 2) ~init:acc ~f
    end
    else begin
      let n = arr_length ctx m v in
      let acc = ref init in
      for i = 0 to n - 1 do
        acc := f !acc (Ctx.get_float ctx m addr i)
      done;
      !acc
    end
  end

(* {2 Boxed floats} *)

let box_float ctx m x =
  let v = Alloc.alloc_raw ctx m ~words:1 in
  Alloc.init_float ctx m v 0 x;
  v

let unbox_float ctx m v = Ctx.get_float ctx m (Value.to_ptr v) 0
