(** Shared solver workspace: one preprocessing pass, many cheap solves.

    Every estimation method in the comparison solves against the same
    routing matrix [R], and most of them need the same derived
    artifacts: the CSR transpose [Rᵀ], the dense Gram matrix [RᵀR], its
    regularized Cholesky factor, spectral norms (gradient Lipschitz
    constants), the access-link row indices and the materialized prior
    vectors.  A [Workspace.t] wraps one routing context and computes
    each artifact lazily, exactly once, so that sweeps over
    regularization parameters, measurement windows and 5-minute
    snapshots pay the preprocessing cost a single time.

    All cached values are produced by the very same expressions the
    methods previously evaluated inline, so estimates obtained through a
    workspace are bit-identical to the historical per-call results.
    Cached matrices are shared — callers must treat them as read-only.

    The workspace also keeps per-artifact hit/miss/time counters (see
    {!stats}) so the effect of the caching is observable in the
    benchmark harness and the CLI rather than asserted.

    {b Thread safety}: every cache, counter and scratch arena is guarded
    by one internal mutex, so a single workspace may be driven from
    several domains of a {!Tmest_parallel.Pool} concurrently.  Hit/miss
    totals stay exact under contention — concurrent requests for the
    same artifact serialize and all but the first count as hits.
    Scratch arenas are additionally keyed by the calling domain (see
    {!scratch}), so concurrent solves never share work vectors. *)

type t

(** Prior families the estimation methods accept (paper Section 4).
    Defined here (rather than in {!Estimator}) so the workspace can key
    its prior cache on the family; [Estimator.prior_kind] re-exports the
    constructors. *)
type prior_kind =
  | Prior_gravity  (** simple gravity model (the paper's default prior) *)
  | Prior_wcb  (** worst-case-bound midpoints *)
  | Prior_uniform  (** total traffic spread evenly over all pairs *)

(** Solver-core mode.  [Dense] makes the dense artifacts ({!gram},
    {!dense}, Cholesky, eigen) available — the small-[n] fast path of
    the methods that keep one (Cao, Fanout, the degraded-mode repair)
    and the only path of the dense-only methods.  [Sparse] never
    builds a dense [n_od x n_od] matrix: solvers consume matrix-free
    operators ({!op}, {!normal_op}, {!gram_sq_op}) instead, which is
    what makes 100–500-PoP networks (10⁴–10⁵ OD pairs) feasible.
    [Auto] (the default) picks [Sparse] above {!sparse_gate} OD pairs. *)
type mode = Auto | Dense | Sparse

(** OD-pair count above which [Auto] resolves to [Sparse] (2048; the
    paper networks with 132 and 600 pairs stay dense). *)
val sparse_gate : int

(** Preconditioner policy for the iterative solvers.  [Precond_auto]
    resolves to each method's measured best configuration: the
    quadratic solvers (bayes, vardi, cao's bootstrap) take Jacobi in
    sparse mode — iteration counts dominate wall-clock at 100–500 PoPs
    and the exact Gram diagonal costs one O(nnz) pass — and none in
    dense mode (see {!resolve_precond}), so the default policy leaves
    dense-mode results unpreconditioned; entropy and fanout resolve
    [Precond_auto] to none (the KL-prox and block-simplex geometries
    measured slower under the diagonal metric). *)
type precond_kind = Precond_auto | Precond_jacobi | Precond_none

(** [create ?pool ?sink ?mode routing] wraps a routing context.  No
    artifact is computed until first use.  [pool], when given, is the
    domain pool row-partitioned kernels and multi-chain samplers use for
    solves against this workspace (absent: everything runs
    sequentially).  [sink] (default {!Tmest_obs.Obs.null}) receives
    trace events from every cache, solver and estimator run against this
    workspace.  [mode] (default [Auto]) selects the solver core; see
    {!mode}. *)
val create :
  ?pool:Tmest_parallel.Pool.t -> ?sink:Tmest_obs.Obs.sink -> ?mode:mode ->
  Tmest_net.Routing.t -> t

val routing : t -> Tmest_net.Routing.t

(** [is_sparse t] is true when the mode resolved to [Sparse]. *)
val is_sparse : t -> bool

(** [resolve_precond t kind] resolves [Precond_auto] against this
    workspace's mode (Jacobi when sparse, none when dense); other kinds
    pass through.  Never returns [Precond_auto].  Methods whose
    geometry measured slower under the diagonal metric (entropy,
    fanout) bypass this and treat [Precond_auto] as none themselves. *)
val resolve_precond : t -> precond_kind -> precond_kind

(** [sink t] is the trace sink attached at {!create}; the null sink
    unless a driver passed one ([--trace]). *)
val sink : t -> Tmest_obs.Obs.sink

(** [solver_stop t stop ~label ~max_iter ~tol] resolves a
    caller-supplied {!Tmest_opt.Stop.t} against a method's defaults:
    unset limits take [max_iter]/[tol], an unset (null) sink falls back
    to this workspace's {!sink}, and [label] names the solve in trace
    records unless the caller already attached one. *)
val solver_stop :
  t -> Tmest_opt.Stop.t -> label:string -> max_iter:int -> tol:float ->
  Tmest_opt.Stop.t

(** [pool t] is the domain pool attached at {!create} (or via
    {!set_pool}); consumers fall back to sequential code when [None]. *)
val pool : t -> Tmest_parallel.Pool.t option

(** [set_pool t p] swaps the attached pool — benchmark drivers use this
    to sweep job counts against one warmed-up workspace. *)
val set_pool : t -> Tmest_parallel.Pool.t option -> unit

(** [num_links t] / [num_pairs t]: dimensions of the wrapped [R]. *)
val num_links : t -> int

val num_pairs : t -> int

(** [ingress_rows t] / [egress_rows t]: per-node access-link row
    indices, materialized once ([ingress_rows t].(n) is the row carrying
    node [n]'s total ingress traffic).  Do not mutate. *)
val ingress_rows : t -> int array

val egress_rows : t -> int array

(** {1 Memoized linear-algebra artifacts}

    The dense artifacts ({!gram}, {!gram_sq}, {!gram_chol},
    {!gram_eigen}, {!dense}, {!gram_norm}) raise [Invalid_argument] in
    sparse mode — the error names the matrix-free replacement.  The
    CSR/operator artifacts work in both modes. *)

(** [gram t] is the dense [RᵀR], computed once.  Dense mode only. *)
val gram : t -> Tmest_linalg.Mat.t

(** [gram_sq t] is the entry-wise square of {!gram}: Cao's dense
    second-moment system (Vardi applies {!gram_sq_op} in both modes).
    Dense mode only. *)
val gram_sq : t -> Tmest_linalg.Mat.t

(** [gram_chol t] is the ridge-regularized Cholesky factor of {!gram}
    (default {!Tmest_linalg.Chol.factor_regularized} ridge).  Dense
    mode only. *)
val gram_chol : t -> Tmest_linalg.Chol.t

(** [gram_eigen t] is the symmetric eigendecomposition of {!gram}
    (null-space bases, numerical ranks).  Dense mode only. *)
val gram_eigen : t -> Tmest_linalg.Eigen.t

(** [transpose t] is [Rᵀ] in CSR form. *)
val transpose : t -> Tmest_linalg.Csr.t

(** [dense t] is [R] as a dense matrix (LP-based methods).  Dense mode
    only. *)
val dense : t -> Tmest_linalg.Mat.t

(** {1 Matrix-free operator artifacts}

    Available in both modes; in sparse mode they are the {e only} form
    of the measurement system.  Operators are cached per calling domain
    (the normal-equations operators own link-space buffers, so every
    domain gets private closures) and counted under the [op] stats class — in sparse mode
    this class replaces the [gram]/[dense] classes, which would
    otherwise silently read 0. *)

(** [op t] is the routing matrix [R] as a matrix-free operator; forward
    products use the pooled CSR kernel (reading the {e current}
    {!pool} on every application). *)
val op : t -> Tmest_linalg.Op.t

(** [normal_op t] is the normal-equations operator [x ↦ Rᵀ(Rx)] — the
    matrix-free replacement for {!gram}. *)
val normal_op : t -> Tmest_linalg.Op.t

(** [gram_sq_op t] applies the entry-wise squared Gram [(RᵀR)∘(RᵀR)]
    without forming it: the factorization [ZᵀZ] has one [Z] row per
    used link pair, [nnz(Z) = Σ_i h_i²] (squared OD path lengths).
    Matrix-free replacement for {!gram_sq} (Vardi/Cao second-moment
    systems). *)
val gram_sq_op : t -> Tmest_linalg.Op.t

(** [op_norm t] is [‖RᵀR‖₂] estimated by power iteration on the sparse
    operator [v ↦ Rᵀ(Rv)] — the Lipschitz building block of the
    first-order methods (Entropy, Bayes).  Memoized by
    {!cached_lipschitz} under the key ["op_norm"]. *)
val op_norm : t -> float

(** [gram_norm t] is [‖RᵀR‖₂] estimated by power iteration on the
    {e dense} {!gram} matrix, memoized under the key ["gram_norm"].
    Numerically this can differ from {!op_norm} in the last bits
    (different summation order), and Cao's dense path uses it, so both
    are kept.  Dense mode only. *)
val gram_norm : t -> float

(** [cached_lipschitz t ~key ~compute] memoizes a Lipschitz constant
    under [key] in the workspace's one spectral-norm table, counted
    under the [lipschitz] stats class and traced as a [ws.lipschitz]
    span on a miss.  Use for constants that depend on the routing
    matrix plus fixed scalar parameters (encode the parameters in the
    key); [compute] runs at most once per key, under the workspace
    lock, so it must not call back into the workspace. *)
val cached_lipschitz : t -> key:string -> compute:(unit -> float) -> float

(** [lipschitz_of_op t ~dim apply] is
    {!Tmest_opt.Fista.lipschitz_of_op}, uncached but counted in
    {!stats} (per-window matrices and joint multi-routing operators that
    cannot be reused).  For a dense matrix [h], passing
    [Tmest_linalg.Mat.matvec h] gives exactly
    {!Tmest_opt.Fista.lipschitz_of_gram}[ h]. *)
val lipschitz_of_op :
  t -> dim:int -> (Tmest_linalg.Vec.t -> Tmest_linalg.Vec.t) -> float

(** {1 Preconditioners}

    All preconditioner artifacts are memoized per routing context and
    counted under the [precond] stats class.  Diagonals are {e exact}
    (one O(nnz) pass over the stored routing entries), never stochastic
    estimates, so preconditioned runs stay bit-reproducible across job
    counts. *)

(** [gram_diag t] is the exact diagonal of [RᵀR]
    ({!Tmest_linalg.Csr.col_sq_norms}), memoized.  Both modes. *)
val gram_diag : t -> Tmest_linalg.Vec.t

(** [precond_vec t ~key ~compute] memoizes a method-specific
    preconditioner diagonal under [key] (encode parameters with [%h]).
    The value is shared read-only across domains. *)
val precond_vec :
  t -> key:string -> compute:(unit -> Tmest_linalg.Vec.t) ->
  Tmest_linalg.Vec.t

(** [note_iterations t ~name ~iterations] records the iteration count
    of the most recent solve of method [name] (bounded MRU; called by
    [Estimator.solve]).  With an enabled sink also emits a
    [solve.<name>.iterations] counter sample — iteration counts are
    deterministic, so traces stay reproducible. *)
val note_iterations : t -> name:string -> iterations:int -> unit

(** [last_iterations t ~name] is the iteration count noted by the most
    recent solve of method [name], if any. *)
val last_iterations : t -> name:string -> int option

(** {1 Load-dependent values} *)

(** [total_traffic t ~loads] is the total network traffic [Σ te(n)]
    read off the ingress access-link rows (the [stot] normalization of
    Section 3.2.1).  Not cached: a plain sum over the memoized
    {!ingress_rows}. *)
val total_traffic : t -> loads:Tmest_linalg.Vec.t -> float

(** [cached_prior t ~kind ~loads ~compute] memoizes a materialized
    prior vector per [(kind, loads)], keyed by the load vector itself
    (physical equality first, then structural) in a bounded
    most-recently-used list of 8 entries, so sweeps that reuse one
    snapshot hit the cache while long scans cannot grow it without
    bound.  The computation closure lives with the caller
    ({!Estimator.build_prior_ws}) so the workspace does not depend on
    the method modules.  Treat the result as read-only. *)
val cached_prior :
  t ->
  kind:prior_kind ->
  loads:Tmest_linalg.Vec.t ->
  compute:(unit -> Tmest_linalg.Vec.t) ->
  Tmest_linalg.Vec.t

(** {1 Scratch-buffer pool}

    Solver work vectors, keyed by consumer name, dimension and calling
    domain, so the allocation-free solver hot paths
    ({!Tmest_opt.Fista.solve_into} and friends) reuse one set of buffers
    across every solve against this routing context while concurrent
    solves on different domains each own a private arena.  Buffers are
    handed out as uninitialized storage: contents do not survive between
    [scratch] calls with the same key, and two concurrent consumers on
    one domain must use distinct names. *)

(** [scratch t ~name ~dim ~count] is a pool of at least [count] vectors
    of dimension [dim], created on first use and cached under
    [(name, dim, domain)].  Growing [count] extends the cached pool in
    place. *)
val scratch :
  t -> name:string -> dim:int -> count:int -> Tmest_linalg.Vec.t array

(** [scratch_mat t ~name ~rows ~cols] is a matrix arena with the same
    per-domain keying as {!scratch} ([(name, rows, cols, domain)]):
    window scans refill one samples matrix per scanning domain instead
    of allocating a fresh [window x L] matrix per window position.
    Contents are uninitialized storage between uses. *)
val scratch_mat : t -> name:string -> rows:int -> cols:int -> Tmest_linalg.Mat.t

(** {1 Warm-start cache}

    Bounded MRU cache of previous solutions, keyed by a caller-built
    string identifying the method and its parameters (e.g.
    ["entropy:sigma2=0x1.f4p+9:prior=gravity"]).  Window scans solve the
    same problem against slowly drifting load vectors, so the previous
    window's solution is an excellent starting iterate.  Opt-in:
    {!Estimator.run_ws} only consults this cache when asked, because a
    warm-started first-order solve stops at a {e different} point within
    the solver tolerance than a cold one. *)

(** [warm_start t ~key ~dim] is the most recent stored solution under
    [key], if any of matching dimension.  Counted under the [warm]
    stats class ([hits] = served, [misses] = empty lookups).  Treat the
    result as read-only. *)
val warm_start : t -> key:string -> dim:int -> Tmest_linalg.Vec.t option

(** [store_warm_start t ~key v] records [v] (copied) as the starting
    iterate for future solves under [key], evicting the least recently
    used entry beyond the cache bound. *)
val store_warm_start : t -> key:string -> Tmest_linalg.Vec.t -> unit

(** {1 Observability}

    Beyond the counter snapshots below, a workspace with an enabled
    {!sink} streams the same information as trace events: cumulative
    [ws.<artifact>.hits]/[.misses] counter samples on every cache
    probe, a [ws.<artifact>] span around each artifact computation, a
    [ws.prior] span per materialized prior, and [ws.scratch.*] arena
    gauges. *)

(** One artifact class's counters: [misses] is the number of times the
    artifact was actually computed, [hits] the number of times a cached
    value was served, [seconds] the cumulative wall-clock time spent
    computing (misses only), read off {!Tmest_obs.Obs.Clock} — wall
    time once a driver installs a wall-clock source there. *)
type counter = { hits : int; misses : int; seconds : float }

(** One counter per class (one {!stats_rows} row each) plus the solve
    allocation figures.  {!total_traffic} is a plain sum and has no
    class. *)
type stats = {
  gram : counter;  (** dense [RᵀR] (+ entry-wise square); dense mode *)
  chol : counter;  (** regularized Cholesky factor; dense mode *)
  eigen : counter;  (** symmetric eigendecomposition; dense mode *)
  transpose : counter;  (** CSR transpose *)
  dense : counter;  (** dense [R]; dense mode *)
  op : counter;
      (** matrix-free operators + Z factor, both modes; in sparse mode
          they replace [gram]/[dense], which then read 0 *)
  lipschitz : counter;
      (** all spectral-norm estimates: {!op_norm}, {!gram_norm},
          {!cached_lipschitz} keys, and uncached {!lipschitz_of_op}
          calls (misses only) *)
  prior : counter;  (** materialized prior vectors *)
  solve : counter;  (** full estimator runs via [Estimator.run_ws]
                        ([misses] = number of solves) *)
  warm : counter;  (** warm-start lookups ([hits] = starts served) *)
  precond : counter;
      (** preconditioner artifacts: Gram diagonal and method
          diagonals ([hits] = cached reuses) *)
  solve_words : float;
      (** cumulative words (minor+major) allocated inside recorded
          solves *)
  peak_solve_words : float;
      (** largest single-solve allocation (churn: iterative methods
          re-allocate per iteration, so this can exceed live memory) *)
  heap_words : float;
      (** process top-of-heap watermark observed after a recorded solve
          — the dense-matrix witness: a materialized [n_od x n_od] Gram
          must live on the heap, so sparse-mode runs keep this far
          below [n_od²] words no matter how much the solvers churn *)
}

(** [stats t] is a snapshot of the counters. *)
val stats : t -> stats

(** [reset_stats t] zeroes all counters (cached artifacts are kept). *)
val reset_stats : t -> unit

(** [record_solve t ~seconds ~words] accounts one full estimator run
    ([words] = words allocated during the solve, measured by the caller
    via [Gc.allocated_bytes] deltas); called by [Estimator.run_ws].
    Also samples the GC's top-of-heap watermark into [heap_words].
    Allocation figures are stats-only: the watermark is process-global
    and monotone, and per-solve allocation deltas depend on process
    history (first-run lazy initialization), so tracing either would
    break one-job trace determinism.  Emits only the [ws.solves]
    counter sample when the sink is enabled. *)
val record_solve : t -> seconds:float -> words:float -> unit

(** [pp_stats ppf s] prints a compact human-readable summary. *)
val pp_stats : Format.formatter -> stats -> unit

(** [stats_rows s] is [(artifact, hits, misses, seconds)] per artifact
    class, in a stable order — machine-readable form for benchmark
    emitters. *)
val stats_rows : stats -> (string * int * int * float) list
