(** Compressed sparse row (CSR) matrices.

    Routing matrices are sparse 0/1 matrices with a handful of nonzeros per
    column (one per link on the demand's path); CSR keeps the estimation
    methods' matrix-vector products cheap on the larger networks. *)

type t

(** [of_triplets ~rows ~cols entries] builds a CSR matrix from
    [(row, col, value)] triplets.  Duplicate coordinates are summed;
    explicit zeros are dropped. *)
val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t

(** [of_dense m] converts a dense matrix, dropping zeros. *)
val of_dense : Mat.t -> t

val rows : t -> int
val cols : t -> int

(** [nnz m] is the number of stored entries. *)
val nnz : t -> int

(** [get m i j] is the entry at [(i, j)] (0 if not stored). *)
val get : t -> int -> int -> float

(** [matvec ?pool m x] is [m * x] ([pool] as in {!matvec_into}). *)
val matvec : ?pool:Tmest_parallel.Pool.t -> t -> Vec.t -> Vec.t

(** [matvec_into ?pool m x ~dst] writes [m * x] into [dst] without
    allocating.  [dst] must not alias [x].  With [pool], rows are
    computed in parallel row blocks (large operands only); every row
    owns its [dst] slot and accumulates in sequential order, so the
    result is bit-identical at every pool size. *)
val matvec_into : ?pool:Tmest_parallel.Pool.t -> t -> Vec.t -> dst:Vec.t -> unit

(** [tmatvec m x] is [mᵀ * x]. *)
val tmatvec : t -> Vec.t -> Vec.t

(** [tmatvec_into m x ~dst] writes [mᵀ * x] into [dst] without
    allocating.  [dst] must not alias [x]. *)
val tmatvec_into : t -> Vec.t -> dst:Vec.t -> unit

(** [normal_apply_into ?pool m x ~link ~dst] writes [mᵀ(m x)] into
    [dst], staging the forward product in the caller-owned [link]
    buffer (length [rows m]; must not alias [x] or [dst]).  The forward
    half runs on [pool] with nnz-weighted granularity; results are
    bit-identical to [matvec_into] followed by [tmatvec_into] at every
    pool size.  This is the per-iteration kernel of the matrix-free
    normal-equation operators. *)
val normal_apply_into :
  ?pool:Tmest_parallel.Pool.t -> t -> Vec.t -> link:Vec.t -> dst:Vec.t -> unit

(** [to_dense m] expands to a dense matrix. *)
val to_dense : t -> Mat.t

(** [col_sq_norms m] is the vector of column sums-of-squares
    [d_j = Σ_i m_ij²] — the exact diagonal of the Gram matrix [mᵀm],
    computed in one O(nnz) pass (the building block of Jacobi
    preconditioners; exact, so no stochastic trace/diagonal estimation
    is ever needed for Gram diagonals). *)
val col_sq_norms : t -> Vec.t

(** [row_nonzeros m i] is the list of [(col, value)] pairs of row [i],
    in increasing column order. *)
val row_nonzeros : t -> int -> (int * float) list

(** [iter_row m i f] applies [f col value] over row [i]'s stored entries. *)
val iter_row : t -> int -> (int -> float -> unit) -> unit

(** [transpose m] is [mᵀ] in CSR form. *)
val transpose : t -> t

(** [gram m] is the dense Gram matrix [mᵀ * m]. *)
val gram : t -> Mat.t
