type t = int

let max_imm = (1 lsl 61) - 1
let min_imm = -(1 lsl 61)

let of_int n =
  if n < min_imm || n > max_imm then invalid_arg "Value.of_int: out of range";
  (n lsl 1) lor 1

let is_int v = v land 1 = 1

let to_int v =
  if not (is_int v) then invalid_arg "Value.to_int: pointer";
  v asr 1

let of_ptr addr =
  if addr = 0 || addr land 7 <> 0 then invalid_arg "Value.of_ptr: bad address";
  addr

let is_ptr v = v land 1 = 0 && v <> 0

let to_ptr v =
  if not (is_ptr v) then invalid_arg "Value.to_ptr: immediate";
  v

let unit = of_int 0
let of_bool b = of_int (if b then 1 else 0)
let to_bool v = to_int v <> 0
let of_word v =
  if v land 1 = 1 then v
  else if v = 0 then invalid_arg "Value.of_word: null"
  else if v land 7 <> 0 then invalid_arg "Value.of_word: unaligned pointer"
  else v

let equal (a : t) (b : t) = a = b

let pp ppf v =
  if is_int v then Format.fprintf ppf "%d" (to_int v)
  else Format.fprintf ppf "ptr:%#x" (to_ptr v)
