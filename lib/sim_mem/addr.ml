let word_bytes = 8
let null = 0
let is_word_aligned a = a land 7 = 0

let word_index a =
  if not (is_word_aligned a) then invalid_arg "Addr.word_index: unaligned";
  a lsr 3

let of_word_index i = i lsl 3
let words bytes = (bytes + 7) lsr 3
let round_up_words bytes = (bytes + 7) land lnot 7
