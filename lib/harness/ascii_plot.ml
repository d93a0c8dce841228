type series = { label : string; points : (int * float) list }

let markers = [| 'D'; 'R'; 'Q'; 'B'; 'S'; 'Y'; 'Z'; 'W' |]

let render ~title ~xlabel ~ylabel ~ideal (series : series list) =
  let width = 64 and height = 24 in
  let xs = List.concat_map (fun s -> List.map fst s.points) series in
  let ys = List.concat_map (fun s -> List.map snd s.points) series in
  let xmax = List.fold_left max 1 xs in
  let ymax_data = List.fold_left Float.max 1. ys in
  let ymax = Float.max ymax_data (if ideal then float_of_int xmax else 1.) in
  let grid = Array.make_matrix height width ' ' in
  let put_xy x y ch =
    (* x in [0, xmax] -> column; y in [0, ymax] -> row (0 = bottom) *)
    let col =
      int_of_float (Float.round (float_of_int (width - 1) *. float_of_int x /. float_of_int xmax))
    in
    let row = int_of_float (Float.round (float_of_int (height - 1) *. y /. ymax)) in
    if col >= 0 && col < width && row >= 0 && row < height then begin
      let r = height - 1 - row in
      if grid.(r).(col) = ' ' || grid.(r).(col) = '.' then grid.(r).(col) <- ch
    end
  in
  if ideal then
    for x = 0 to xmax do
      put_xy x (float_of_int x) '.'
    done;
  List.iteri
    (fun i s ->
      let ch = markers.(i mod Array.length markers) in
      List.iter (fun (x, y) -> put_xy x y ch) s.points)
    series;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let ylab = Printf.sprintf "%s (max %.1f)" ylabel ymax in
  Buffer.add_string buf ylab;
  Buffer.add_char buf '\n';
  for r = 0 to height - 1 do
    let yval = ymax *. float_of_int (height - 1 - r) /. float_of_int (height - 1) in
    Buffer.add_string buf (Printf.sprintf "%6.1f |" yval);
    Buffer.add_string buf (String.init width (fun c -> grid.(r).(c)));
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (Printf.sprintf "%6s +%s\n" "" (String.make width '-'));
  (* X tick line: mark each distinct thread count. *)
  let tick_line = Bytes.make (width + 8) ' ' in
  let distinct_xs = List.sort_uniq compare xs in
  List.iter
    (fun x ->
      let col =
        8 + int_of_float (Float.round (float_of_int (width - 1) *. float_of_int x /. float_of_int xmax))
      in
      let s = string_of_int x in
      let start = max 8 (min (Bytes.length tick_line - String.length s) (col - (String.length s / 2))) in
      Bytes.blit_string s 0 tick_line start (String.length s))
    distinct_xs;
  Buffer.add_string buf (Bytes.to_string tick_line);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "%8s%s\n" "" xlabel);
  if ideal then Buffer.add_string buf "  legend: . ideal speedup\n"
  else Buffer.add_string buf "  legend:\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "          %c %s\n" markers.(i mod Array.length markers) s.label))
    series;
  Buffer.contents buf

(* Shade glyphs from cold to hot, picked by fraction of the matrix max. *)
let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |]

let heatmap ~title ~row_label ~col_label matrix =
  let cell_width = 12 in
  let n = Array.length matrix in
  let get r c = if c < Array.length matrix.(r) then matrix.(r).(c) else 0 in
  let vmax = Array.fold_left (Array.fold_left max) 0 matrix in
  let shade v =
    if v = 0 then shades.(0)
    else begin
      let frac = float_of_int v /. float_of_int (max vmax 1) in
      let i = 1 + int_of_float (frac *. float_of_int (Array.length shades - 2)) in
      shades.(min i (Array.length shades - 1))
    end
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "  %s \\ %s (bytes)\n" row_label col_label);
  Buffer.add_string buf (Printf.sprintf "  %8s" "");
  for c = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf " %*s" cell_width (Printf.sprintf "->n%d" c))
  done;
  Buffer.add_string buf (Printf.sprintf "  %12s\n" "row sum");
  let col_sums = Array.make n 0 in
  for r = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  %8s" (Printf.sprintf "n%d" r));
    let row_sum = ref 0 in
    for c = 0 to n - 1 do
      let v = get r c in
      row_sum := !row_sum + v;
      col_sums.(c) <- col_sums.(c) + v;
      Buffer.add_string buf
        (Printf.sprintf " %*s" cell_width (Printf.sprintf "%c %d" (shade v) v))
    done;
    Buffer.add_string buf (Printf.sprintf "  %12d\n" !row_sum)
  done;
  Buffer.add_string buf (Printf.sprintf "  %8s" "col sum");
  let total = ref 0 in
  for c = 0 to n - 1 do
    total := !total + col_sums.(c);
    Buffer.add_string buf
      (Printf.sprintf " %*s" cell_width (string_of_int col_sums.(c)))
  done;
  Buffer.add_string buf (Printf.sprintf "  %12d\n" !total);
  Buffer.contents buf
