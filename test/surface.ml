(* Dead-surface scanner, pinned by surface.t.

   [surface exports ROOT] lists, as [Module.name], each [val] declared in
   ROOT/lib/*/*.mli whose name appears as a whole word in no .ml file
   under lib, bin, bench, perfbench, test or examples other than the
   module's own implementation.

   [surface env ROOT] lists the environment variables that .ml files
   under lib, bin and bench read with [getenv] or [getenv_opt].  A read
   whose name is not a string literal is listed as "FILE: non-literal
   name", so it cannot slip past the list.

   Both print one entry a line, sorted, and nothing else. *)

let ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every [.ext] file under [root/dir], as a path relative to [root],
   skipping build and hidden directories. *)
let rec files_under ~root ~ext dir =
  let full = Filename.concat root dir in
  if not (Sys.file_exists full && Sys.is_directory full) then []
  else
    Sys.readdir full |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if name = "_build" || name.[0] = '.' then []
           else if Sys.is_directory (Filename.concat root path) then
             files_under ~root ~ext path
           else if Filename.check_suffix name ext then [ path ]
           else [])

(* Call [f word stop] on each maximal run of identifier characters in
   [s], where [stop] is the index just past the word. *)
let iter_words f s =
  let n = String.length s in
  let rec go i =
    if i < n then
      if ident_char s.[i] then begin
        let j = ref i in
        while !j < n && ident_char s.[!j] do incr j done;
        f (String.sub s i (!j - i)) !j;
        go !j
      end
      else go (i + 1)
  in
  go 0

(* The value a signature line declares, if it is [val name : ...]. *)
let val_name line =
  let line = String.trim line in
  if not (String.starts_with ~prefix:"val " line) then None
  else begin
    let rest = String.trim (String.sub line 4 (String.length line - 4)) in
    let k = ref 0 in
    while !k < String.length rest && ident_char rest.[!k] do incr k done;
    if !k = 0 then None else Some (String.sub rest 0 !k)
  end

let exports root =
  (* Each word, with the files it appears in (most recent first). *)
  let seen = Hashtbl.create 8192 in
  List.iter
    (fun dir ->
      List.iter
        (fun file ->
          iter_words
            (fun w _ ->
              match Hashtbl.find_opt seen w with
              | Some (f :: _) when f = file -> ()
              | fs -> Hashtbl.replace seen w (file :: Option.value fs ~default:[]))
            (read_file (Filename.concat root file)))
        (files_under ~root ~ext:".ml" dir))
    [ "lib"; "bin"; "bench"; "perfbench"; "test"; "examples" ];
  files_under ~root ~ext:".mli" "lib"
  |> List.filter (fun mli -> Filename.dirname (Filename.dirname mli) = "lib")
  |> List.concat_map (fun mli ->
         let base = Filename.chop_suffix mli ".mli" in
         let modname = String.capitalize_ascii (Filename.basename base) in
         String.split_on_char '\n' (read_file (Filename.concat root mli))
         |> List.filter_map val_name
         |> List.filter (fun name ->
                not
                  (List.exists (( <> ) (base ^ ".ml"))
                     (Option.value (Hashtbl.find_opt seen name) ~default:[])))
         |> List.map (fun name -> modname ^ "." ^ name))
  |> List.sort_uniq compare

let env root =
  List.concat_map
    (fun dir ->
      List.concat_map
        (fun file ->
          let s = read_file (Filename.concat root file) in
          let n = String.length s in
          let found = ref [] in
          iter_words
            (fun w stop ->
              if w = "getenv" || w = "getenv_opt" then begin
                let i = ref stop in
                while !i < n && String.contains " \t\n(" s.[!i] do incr i done;
                let close =
                  if !i < n && s.[!i] = '"' then String.index_from_opt s (!i + 1) '"'
                  else None
                in
                let name =
                  match close with
                  | Some j -> String.sub s (!i + 1) (j - !i - 1)
                  | None -> file ^ ": non-literal name"
                in
                found := name :: !found
              end)
            s;
          !found)
        (files_under ~root ~ext:".ml" dir))
    [ "lib"; "bin"; "bench" ]
  |> List.sort_uniq compare

let () =
  match Sys.argv with
  | [| _; "exports"; root |] -> List.iter print_endline (exports root)
  | [| _; "env"; root |] -> List.iter print_endline (env root)
  | _ ->
      prerr_endline "usage: surface (exports | env) ROOT";
      exit 2
