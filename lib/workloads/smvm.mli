(** The SMVM benchmark (paper §4.1): sparse-matrix by dense-vector
    multiplication.  The paper's matrix has 1,091,362 non-zeros and a
    16,614-element vector; the default scaled size is ~40,000 non-zeros
    over 4,096 rows with a 4,096-element vector.

    The dense vector is the interesting object: it is read by every task
    on every vproc, so it is promoted once (lazily, at the first steal)
    and lands wherever the placement policy puts the promoting vproc's
    chunks.  Under local placement all 48 cores hammer one node's bank —
    the saturation that makes SMVM the least scalable benchmark in
    Figure 5 and the one case where interleaving wins past 24 threads
    (Figure 6). *)

open Heap
open Manticore_gc
open Runtime

val main : Sched.t -> Pml.Pval.descs -> Ctx.mutator -> scale:float -> Value.t
(** Returns the boxed sum of the output vector. *)

val expected : scale:float -> float
