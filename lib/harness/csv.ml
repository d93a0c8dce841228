open Manticore_gc

let of_sweep (results : Figures.sweep_result list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "benchmark,scale,threads,elapsed_ns,speedup,minors,majors,globals,promoted_bytes\n";
  List.iter
    (fun (r : Figures.sweep_result) ->
      let base =
        match r.Figures.points with
        | (1, o) :: _ -> o.Run_config.elapsed_ns
        | _ -> Float.nan
      in
      List.iter
        (fun (n, (o : Run_config.outcome)) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%g,%d,%.0f,%.4f,%d,%d,%d,%d\n" r.Figures.workload
               r.Figures.scale n o.Run_config.elapsed_ns
               (base /. o.Run_config.elapsed_ns)
               o.Run_config.gc.Gc_stats.minor_count
               o.Run_config.gc.Gc_stats.major_count
               o.Run_config.gc.Gc_stats.global_count
               o.Run_config.gc.Gc_stats.promoted_bytes))
        r.Figures.points)
    results;
  Buffer.contents buf

let write ~path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)
