(** Text rendering of the paper's speedup plots: one chart, several named
    series over a shared x-axis (thread counts), with the ideal-speedup
    diagonal drawn for reference, as in Figures 4–7. *)

type series = { label : string; points : (int * float) list }
(** [(threads, speedup)] pairs, ascending in threads. *)

val render :
  title:string -> xlabel:string -> ylabel:string -> ideal:bool ->
  series list -> string
(** Render to a multi-line string, a chart area of 64 x 24 characters.
    When [ideal] is set, the y=x diagonal is drawn with ['.'].  Each
    series gets a distinct letter marker, listed in the legend below the
    chart. *)

val heatmap :
  title:string -> row_label:string -> col_label:string -> int array array ->
  string
(** Render a square count matrix (e.g. the NUMA traffic matrix, rows =
    source node, columns = destination node) as an ASCII heatmap: each
    cell shows a shade glyph scaled to the matrix maximum plus the raw
    value, with row/column/total sums in the margins. *)
