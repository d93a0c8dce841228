(* All fields are floats, so OCaml stores the record flat: [roll] and
   [charge] store unboxed floats, with no allocation and no write
   barrier.  [window] is an integral float.  Window indices stay far
   below 2^53, where subtracting integral floats is exact. *)
type t = {
  gb_per_s : float; (* real service rate: GB/s = bytes per ns *)
  cap_gb_per_s : float; (* shared capacity for saturation accounting *)
  window_ns : float;
  cap_bytes : float; (* servable bytes per window *)
  mutable window : float; (* index of the current window *)
  mutable bytes : float; (* offered in the current window, incl. carry *)
  mutable total : float;
}

let create ~gb_per_s ?(cap_scale = 1.) ?(window_ns = 100_000.) () =
  if gb_per_s <= 0. || window_ns <= 0. || cap_scale < 1. then
    invalid_arg "Contention.create";
  let cap_gb_per_s = gb_per_s /. cap_scale in
  {
    gb_per_s;
    cap_gb_per_s;
    window_ns;
    cap_bytes = cap_gb_per_s *. window_ns;
    window = 0.;
    bytes = 0.;
    total = 0.;
  }

let roll t now_ns =
  let w = Float.of_int (int_of_float (now_ns /. t.window_ns)) in
  if w > t.window then begin
    (* Unserved overflow spills forward; idle windows drain it. *)
    let carry = Float.max 0. (t.bytes -. t.cap_bytes) in
    let idle = w -. t.window -. 1. in
    t.bytes <- Float.max 0. (carry -. (idle *. t.cap_bytes));
    t.window <- w
  end
  (* A charge from a lagging clock lands in the current window. *)

(* Overflow is billed at a multiple of its (capacity-rate) service time
   that grows with utilization: queueing delay under overload punishes
   every requester, not just the marginal byte, so delivered throughput
   converges to the capacity from above (within ~10%) instead of
   drifting past it. *)
let overflow_scale = 40.

let charge t ~now_ns ~bytes =
  roll t now_ns;
  let b = float_of_int bytes in
  let over0 = Float.max 0. (t.bytes -. t.cap_bytes) in
  t.bytes <- t.bytes +. b;
  t.total <- t.total +. b;
  let over1 = Float.max 0. (t.bytes -. t.cap_bytes) in
  let u = t.bytes /. t.cap_bytes in
  (b /. t.gb_per_s)
  +. ((over1 -. over0) *. overflow_scale *. u /. t.cap_gb_per_s)

(* Reading must not move the meter, so it rolls a copy. *)
let utilization t ~now_ns =
  let t = { t with window = t.window } in
  roll t now_ns;
  t.bytes /. t.cap_bytes

let service_ns t ~bytes = float_of_int bytes /. t.gb_per_s
let total_bytes t = t.total
