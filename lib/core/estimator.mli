(** A uniform face over all estimation methods, for drivers (CLI,
    benchmarks) that select a method by name.

    The single entry point is {!solve}: one method value, one shared
    {!Workspace.t}, one {!Options.t} bundling everything that modulates
    a run (warm starts, an explicit starting iterate, the trace sink).
    There are no throwaway-workspace conveniences — construct a
    workspace once per routing context and reuse it; that is where all
    caching, scratch reuse and observability live. *)

(** Re-export of {!Workspace.prior_kind} so drivers can speak prior
    names without depending on the workspace module directly. *)
type prior_kind = Workspace.prior_kind =
  | Prior_gravity  (** simple gravity model (the paper's default prior) *)
  | Prior_wcb  (** worst-case-bound midpoints *)
  | Prior_uniform  (** total traffic spread evenly over all pairs *)

type t =
  | Gravity
  | Kruithof of { prior : prior_kind }
  | Entropy of { sigma2 : float; prior : prior_kind }
  | Bayes of { sigma2 : float; prior : prior_kind }
  | Wcb_midpoint
  | Fanout of { window : int }
  | Vardi of { sigma_inv2 : float; window : int }
  | Cao of { phi : float; c : float; sigma_inv2 : float; window : int }
  | Tomogravity_iter of { prior : prior_kind }
      (** iterative tomogravity ({!Tomogravity}): alternating
          KL-projections between the gravity marginals and the link
          constraints *)
  | Cumulant of { w2 : float; w3 : float; window : int }
      (** second/third-moment cumulant rate tomography ({!Cumulant})
          over a measurement window *)
  | Mcmc_int of { samples : int; thin : int; chains : int }
      (** integer-valued posterior sampling ({!Mcmc_int}) with
          Rng.of_pair-split chains *)

(** [name t] is a short identifier (e.g. ["entropy"]). *)
val name : t -> string

(** [of_name s] parses a method with default parameters.
    @raise Invalid_argument on unknown names. *)
val of_name : string -> t

(** [all_names ()] lists the known method identifiers. *)
val all_names : unit -> string list

(** [uses_time_series t] is true for methods that consume a window of
    load measurements rather than one snapshot. *)
val uses_time_series : t -> bool

(** [supports_sparse t] is the single capability predicate for
    sparse-mode workspaces: false only for the LP-based worst-case
    bounds ([Wcb_midpoint]), which need a dense simplex tableau per
    demand and refuse above the gate; true for every method with a
    matrix-free path.  Drivers listing or sweeping methods on a
    sparse-mode workspace must filter through this predicate instead
    of hard-coding names. *)
val supports_sparse : t -> bool

(** Per-run options for {!solve}.

    The record is private: construct it with {!make} (and re-tag it with
    {!with_warm_tag}), so every construction site stays valid when a
    field is added.  Fields remain readable everywhere. *)
module Options : sig
  type t = private {
    warm : bool;
        (** start iterative methods from the workspace's cached solution
            for the same method and parameters — the previous window of
            a scan — and store the new solution back.  Warm runs
            converge to the same optimum within the solver tolerance but
            are {e not} bit-identical to cold runs; leave unset where
            exact reproducibility across call orders matters. *)
    warm_tag : string option;
        (** suffixes the warm-start cache key, giving this caller a
            private warm-start chain; parallel window scans tag by chunk
            so concurrent chunks never cross-feed starting iterates. *)
    x0 : Tmest_linalg.Vec.t option;
        (** explicit starting iterate (bits/s); overrides the warm-start
            cache lookup.  The solution is still stored back under the
            warm key when [warm] is set. *)
    sink : Tmest_obs.Obs.sink;
        (** trace destination for this run; the null sink (default)
            falls back to the workspace's {!Workspace.sink}. *)
    degrade : Degrade.policy option;
        (** degraded mode: run {!Degrade.repair} on the measurements
            before the method sees them.  [None] (default) trusts the
            inputs.  With a policy and {e clean} inputs the repair is a
            no-op returning the original arrays, so the solve stays
            bit-identical to the plain path. *)
    precond : Workspace.precond_kind;
        (** preconditioning policy threaded to the iterative methods.
            The default [Precond_auto] resolves per method to the
            measured best configuration: Jacobi for the quadratic
            solvers (bayes, vardi, cao) in sparse mode, none in dense
            mode (so the default leaves dense-mode solves, the paper
            networks included, unpreconditioned), and none for
            entropy/fanout whose prox geometries measured
            slower under the diagonal metric.  Preconditioned solves
            converge to the same optimum within the solver tolerance
            but are {e not} bit-identical to unpreconditioned ones;
            pass [Precond_none] where that matters.  For a fixed
            policy, results are deterministic and independent of the
            jobs count. *)
  }

  (** Cold, untagged, no explicit start, null sink, no degraded mode,
      automatic preconditioning. *)
  val default : t

  val make :
    ?warm:bool ->
    ?warm_tag:string ->
    ?x0:Tmest_linalg.Vec.t ->
    ?sink:Tmest_obs.Obs.sink ->
    ?degrade:Degrade.policy ->
    ?precond:Workspace.precond_kind ->
    unit ->
    t

  (** [with_warm_tag tag t] is [t] with [warm_tag = Some tag]. *)
  val with_warm_tag : string -> t -> t
end

(** [prior kind ws ~loads] materializes a prior vector through the
    workspace's [(kind, loads)] cache, so repeated solves on the same
    snapshot reuse one prior (WCB priors in particular cost two LPs per
    demand). *)
val prior :
  prior_kind ->
  Workspace.t ->
  loads:Tmest_linalg.Vec.t ->
  Tmest_linalg.Vec.t

(** [solve ?opts t ws ~loads ~load_samples] executes the method against
    a shared workspace.  Snapshot methods use [loads]; time-series
    methods take the last [window] rows of [load_samples] (and fall back
    to fewer if the series is shorter).  Returns the demand estimate in
    bits/s and accounts the wall-clock in the workspace's [solve]
    counter.

    With an enabled trace sink (either [opts.sink] or the workspace's),
    the run is wrapped in a [solve/<method>] span and every iterative
    solver underneath emits per-iteration records.

    With [opts.degrade] set, the inputs first pass through
    {!Degrade.repair} (the window only for time-series methods); the
    policy's [on_health] hook observes what was repaired. *)
val solve :
  ?opts:Options.t ->
  t ->
  Workspace.t ->
  loads:Tmest_linalg.Vec.t ->
  load_samples:Tmest_linalg.Mat.t ->
  Tmest_linalg.Vec.t
