(** Matrix-free linear operators.

    The sparse-first solver core works against this interface instead of
    materialized matrices: a [t] knows its shape and how to apply [A x]
    and [Aᵀ y] into caller-provided buffers.  CSR-backed operators apply
    in O(nnz), which is what makes estimation feasible at 10⁴–10⁵ OD
    pairs where a dense Gram is unbuildable.

    {b Concurrency.} An operator may close over scratch buffers (the
    workspace's normal-equations operator owns its link-space buffer),
    so one operator value must not be applied from several domains at
    once.  Parallelism belongs inside an application (pooled CSR
    matvec), not across applications. *)

type t = {
  rows : int;
  cols : int;
  apply_into : Vec.t -> dst:Vec.t -> unit;
  apply_t_into : Vec.t -> dst:Vec.t -> unit;
}

(** [make ~rows ~cols ~apply_into ~apply_t_into] wraps raw closures.
    The closures receive already shape-checked arguments. *)
val make :
  rows:int ->
  cols:int ->
  apply_into:(Vec.t -> dst:Vec.t -> unit) ->
  apply_t_into:(Vec.t -> dst:Vec.t -> unit) ->
  t

(** [apply_into t x ~dst] writes [A x] into [dst] (length [rows]);
    raises [Invalid_argument] on shape mismatch. *)
val apply_into : t -> Vec.t -> dst:Vec.t -> unit

(** [apply_t_into t y ~dst] writes [Aᵀ y] into [dst] (length [cols]). *)
val apply_t_into : t -> Vec.t -> dst:Vec.t -> unit

(** Allocating conveniences over the [_into] forms. *)
val apply : t -> Vec.t -> Vec.t

val apply_t : t -> Vec.t -> Vec.t

(** [of_csr ?pool m] applies the sparse matrix in O(nnz); forward
    products use the pooled row-partitioned kernel and are bit-identical
    at every pool size. *)
val of_csr : ?pool:Tmest_parallel.Pool.t -> Csr.t -> t
