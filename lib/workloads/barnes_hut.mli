(** The Barnes-Hut benchmark (paper §4.1): the classic O(N log N) N-body
    solver.  Each iteration builds a quadtree over the particles and then
    computes gravitational forces against the tree.  The paper runs 20
    iterations over 400,000 Plummer-distributed particles; the default
    scaled size is 2,000 particles for 3 iterations.

    Tree construction is sequential (on the main vproc) and force
    computation is parallel — the sequential portion the paper blames for
    Barnes-Hut's flattening past ~36 threads.  The tree is shared by
    every force task, so it is promoted at the first steal.

    Heap representation: particles are 5-word raw objects
    [mass; x; y; vx; vy]; tree nodes are mixed-type objects
    [mass; mx; my; q0; q1; q2; q3] whose descriptor scans only the four
    child slots (§3.2). *)

open Heap
open Manticore_gc
open Runtime

val theta : float

val main : Sched.t -> Pml.Pval.descs -> Ctx.mutator -> scale:float -> Value.t
(** Returns a boxed checksum: the sum of |x| + |y| over the final
    particle positions ([nan] would indicate a numeric blow-up). *)

val plausible : scale:float -> float -> bool
(** Sanity bounds for the checksum: finite, positive, and no larger than
    the particle count times the box diagonal. *)
