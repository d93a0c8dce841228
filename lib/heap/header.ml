let raw_id = 0
let vector_id = 1
let proxy_id = 2
let first_mixed_id = 3
let max_id = (1 lsl 15) - 1
let max_length_words = (1 lsl 46) - 1

let encode ~id ~length_words =
  if id < 0 || id > max_id then invalid_arg "Header.encode: id out of range";
  if length_words < 0 || length_words > max_length_words then
    invalid_arg "Header.encode: length out of range";
  (length_words lsl 16) lor (id lsl 1) lor 1

let is_header w = w land 1 = 1
let id w = (w lsr 1) land max_id
let length_words w = w lsr 16

let forward addr =
  if addr = 0 || addr land 7 <> 0 then invalid_arg "Header.forward: bad address";
  addr

let is_forward w = w land 1 = 0
let forward_addr w = w

let pp ppf w =
  if is_forward w then Format.fprintf ppf "fwd->%#x" (forward_addr w)
  else Format.fprintf ppf "hdr{id=%d;len=%d}" (id w) (length_words w)
