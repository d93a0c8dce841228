(** The Raytracer benchmark (paper §4.1): renders an image in parallel as
    a two-dimensional sequence.  The original ID program is a simple ray
    tracer with no acceleration structures; ours casts one primary ray
    and one shadow ray per pixel against a small sphere scene.  The paper
    renders 512x512; the default scaled size is 64x64.

    Embarrassingly parallel with a small read-shared scene — the second
    of the two benchmarks that scale near-ideally in the paper. *)

open Heap
open Manticore_gc
open Runtime

val size_of_scale : float -> int

val main : Sched.t -> Pml.Pval.descs -> Ctx.mutator -> scale:float -> Value.t
(** Returns the boxed checksum (sum of pixel luminances). *)

val expected : scale:float -> float
