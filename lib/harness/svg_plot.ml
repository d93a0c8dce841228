let palette =
  [| "#1e6fb8"; "#c23b22"; "#2e8b57"; "#8a2be2"; "#b8860b"; "#d81b60" |]

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render ~title ~xlabel ~ylabel ~ideal (series : Ascii_plot.series list) =
  let width = 640 and height = 440 in
  let ml, mr, mt, mb = (56, 150, 40, 48) in
  let pw = width - ml - mr and ph = height - mt - mb in
  let xs = List.concat_map (fun (s : Ascii_plot.series) -> List.map fst s.points) series in
  let ys = List.concat_map (fun (s : Ascii_plot.series) -> List.map snd s.points) series in
  let xmax = float_of_int (List.fold_left max 1 xs) in
  let ymax =
    Float.max
      (List.fold_left Float.max 1. ys)
      (if ideal then xmax else 1.)
  in
  let px x = float_of_int ml +. (float_of_int pw *. float_of_int x /. xmax) in
  let py y =
    float_of_int (mt + ph) -. (float_of_int ph *. y /. ymax)
  in
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out
    {|<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif" font-size="12">
|}
    width height width height;
  out {|<rect width="%d" height="%d" fill="white"/>
|} width height;
  out
    {|<text x="%d" y="22" font-size="15" font-weight="bold">%s</text>
|}
    ml (esc title);
  (* Axes. *)
  out
    {|<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>
<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>
|}
    ml mt ml (mt + ph) ml (mt + ph) (ml + pw) (mt + ph);
  (* X ticks at the distinct thread counts. *)
  List.iter
    (fun x ->
      let fx = px x in
      out
        {|<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>
<text x="%.1f" y="%d" text-anchor="middle">%d</text>
|}
        fx (mt + ph) fx (mt + ph + 5) fx (mt + ph + 18) x)
    (List.sort_uniq compare xs);
  (* Y ticks: 5 even divisions. *)
  for i = 0 to 5 do
    let y = ymax *. float_of_int i /. 5. in
    let fy = py y in
    out
      {|<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>
<text x="%d" y="%.1f" text-anchor="end">%.0f</text>
|}
      (ml - 5) fy ml fy (ml - 8) (fy +. 4.) y
  done;
  out
    {|<text x="%d" y="%d" text-anchor="middle">%s</text>
|}
    (ml + (pw / 2))
    (height - 10) (esc xlabel);
  out
    {|<text x="16" y="%d" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>
|}
    (mt + (ph / 2))
    (mt + (ph / 2))
    (esc ylabel);
  (* Ideal diagonal. *)
  if ideal then
    out
      {|<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#999" stroke-dasharray="6 4"/>
|}
      (px 0) (py 0.)
      (px (int_of_float xmax))
      (py xmax);
  (* Series. *)
  List.iteri
    (fun i (s : Ascii_plot.series) ->
      let color = palette.(i mod Array.length palette) in
      let pts =
        String.concat " "
          (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (px x) (py y)) s.points)
      in
      out
        {|<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>
|}
        pts color;
      List.iter
        (fun (x, y) ->
          out {|<circle cx="%.1f" cy="%.1f" r="3.5" fill="%s"/>
|} (px x)
            (py y) color)
        s.points;
      (* Legend entry. *)
      let ly = mt + 10 + (i * 20) in
      out
        {|<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>
<text x="%d" y="%d">%s</text>
|}
        (ml + pw + 12) ly
        (ml + pw + 36)
        ly color
        (ml + pw + 42)
        (ly + 4) (esc s.label))
    series;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf
