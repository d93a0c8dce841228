(** Self-contained SVG rendering of speedup figures — the publishable
    twin of {!Ascii_plot}, with no external dependencies. *)

val render :
  title:string -> xlabel:string -> ylabel:string -> ideal:bool ->
  Ascii_plot.series list -> string
(** A 640 x 440 SVG document: one polyline per series with point
    markers, a dashed ideal-speedup diagonal when [ideal] is set, axes
    with ticks at the data's thread counts, and a legend. *)
