(** Bandwidth contention for one shared resource (a memory bank or an
    interconnect link), modeled as a windowed leaky bucket.

    Traffic is accounted into fixed windows of simulated time.  A charge
    always pays its own transfer time ([bytes / capacity]); once a
    window's traffic exceeds what the resource can serve in a window, the
    requester additionally pays for exactly the *new* overflow it
    creates, and unserved overflow carries into the next window.  Summed
    over requesters, the paid delay equals the excess service time, so
    delivered throughput is capped at the rated bandwidth — the property
    behind Figure 7's collapse, where every core queues on node 0's bank
    — while remaining robust to the clock skew of turn-based simulation
    (a charge from a vproc whose clock lags simply lands in the current
    window). *)

type t

val create : gb_per_s:float -> ?cap_scale:float -> ?window_ns:float -> unit -> t
(** [gb_per_s] is the real per-transfer service rate.  [cap_scale]
    (default 1) divides the *shared capacity* used for saturation
    accounting without touching per-access cost: the evaluation harness
    runs workloads scaled down ~32x, so their traffic must meet a
    proportionally scarcer capacity for the saturation behaviours of
    Figures 6-7 to appear.  Default window: 100 microseconds of
    simulated time. *)

val charge : t -> now_ns:float -> bytes:int -> float
(** [charge t ~now_ns ~bytes] returns the delay in ns the requester
    observes: the transfer's own service time plus its share of any
    capacity overflow. *)

val service_ns : t -> bytes:int -> float
(** The uncontended transfer time, [bytes / capacity] — the part of a
    {!charge} that a prefetch pipeline can hide under access latency.
    The remainder of the charge is queueing overflow, which cannot be
    hidden. *)

val utilization : t -> now_ns:float -> float
(** Offered load over capacity for the window containing [now_ns]
    (may exceed 1 under overload).  A pure read: it does not change the
    meter, so every later charge costs what it would have without it. *)

val total_bytes : t -> float
(** All traffic ever charged, for measured-bandwidth reports. *)

