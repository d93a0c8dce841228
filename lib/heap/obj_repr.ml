open Sim_mem

type kind = Raw | Vector | Mixed of Descriptor.desc | Proxy

let header (s : Store.t) addr = Memory.get_unchecked s.mem addr
let set_header (s : Store.t) addr w = Memory.set s.mem addr w

let kind s addr =
  let h = header s addr in
  if Header.is_forward h then
    invalid_arg "Obj_repr.kind: forwarding word, not an object";
  let id = Header.id h in
  if id = Header.raw_id then Raw
  else if id = Header.vector_id then Vector
  else if id = Header.proxy_id then Proxy
  else Mixed (Descriptor.find s.Store.table id)

let size_words s addr =
  let h = header s addr in
  if Header.is_forward h then
    invalid_arg "Obj_repr.size_words: forwarding word";
  Header.length_words h

let total_bytes s addr = (size_words s addr + 1) * Addr.word_bytes
let field_addr addr i = addr + ((i + 1) * Addr.word_bytes)

let get_field (s : Store.t) addr i = Value.of_word (Memory.get s.mem (field_addr addr i))

let set_field (s : Store.t) addr i (v : Value.t) =
  Memory.set s.mem (field_addr addr i) (v :> int)

let get_raw (s : Store.t) addr i = Memory.get_raw s.mem (field_addr addr i)
let set_raw (s : Store.t) addr i w = Memory.set_raw s.mem (field_addr addr i) w
let get_float (s : Store.t) addr i = Memory.get_float s.mem (field_addr addr i)
let set_float (s : Store.t) addr i f = Memory.set_float s.mem (field_addr addr i) f

let init_raw s ~addr ~words =
  set_header s addr (Header.encode ~id:Header.raw_id ~length_words:words)

let init_vector s ~addr fields =
  set_header s addr
    (Header.encode ~id:Header.vector_id ~length_words:(Array.length fields));
  Array.iteri (fun i v -> set_field s addr i v) fields

let init_mixed s ~addr (d : Descriptor.desc) fields =
  if Array.length fields <> d.size_words then
    invalid_arg "Obj_repr.init_mixed: field count mismatch";
  set_header s addr (Header.encode ~id:d.id ~length_words:d.size_words);
  Array.iteri (fun i v -> set_field s addr i v) fields

let iter_pointer_slots s addr f =
  match kind s addr with
  | Raw | Proxy -> ()
  | Vector ->
      let n = size_words s addr in
      for i = 0 to n - 1 do
        f (field_addr addr i)
      done
  | Mixed d -> d.scan_slots (fun slot -> f (field_addr addr slot))

let copy_object (s : Store.t) ~src ~dst =
  let bytes = total_bytes s src in
  Memory.copy_words s.mem ~src ~dst ~words:(bytes / Addr.word_bytes);
  bytes
