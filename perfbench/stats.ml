(* Order statistics used by the benchmark's reports. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of exact samples: the smallest sample with at
   least [p] of the samples at or below it (0 when there are none). *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let max_of xs = Array.fold_left Float.max 0. xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* Mean of the largest [share] of the samples (at least one): the
   expected size of a sample in that tail.  Unlike a single order
   statistic it does not jump when the tail straddles two modes, such
   as barrier waits and whole-heap copies. *)
let top_mean xs share =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let k = max 1 (int_of_float (Float.round (float_of_int n *. share))) in
    mean (Array.sub a (n - k) k)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by Python's [statistics.quantiles(xs, n=4)]
   (the "exclusive" method), so the benchmark's spread agrees with the
   one computed over its outputs by outside tools.  With one sample both
   are that sample. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0., 0.)
  else if n = 1 then (a.(0), a.(0))
  else begin
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)
  end

(* Interquartile distance as a share of the median. *)
let spread xs =
  let m = median xs in
  let q1, q3 = quartiles xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m
