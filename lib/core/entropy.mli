(** Entropy-regularized ("tomogravity") estimation
    (Section 4.2.1, eq. 6; Zhang et al. 2003).

    {v  min ‖R s − t‖² + σ⁻² D(s ‖ prior)   subject to   s >= 0  v}

    where [D] is the generalized Kullback–Leibler divergence.  Solved by
    accelerated proximal gradient; the KL proximal step has a closed form
    through the Lambert-W function, so no inner iteration is needed.
    Like {!Bayes}, the solve runs in total-traffic-normalized units and
    [σ²] is the dimensionless regularization parameter. *)

type result = {
  estimate : Tmest_linalg.Vec.t;
  iterations : int;
  converged : bool;
}

(** [estimate ?stop ws ~loads ~prior ~sigma2] solves the problem.
    Prior entries that are zero stay zero in the estimate (KL structural
    zeros); pass a floor-adjusted prior if that is not desired.  [stop]
    ({!Tmest_opt.Stop.t}) carries solver limits (defaults 4000
    iterations, tolerance 1e-10) and the trace sink; an unset sink falls
    back to the workspace's.

    [precond] (default {!Workspace.Precond_none}) selects diagonal
    preconditioning in the exact curvature metric [diag(2·diag(RᵀR))];
    the KL prox is applied in the same metric so the fixed point is
    unchanged, only the iteration count.  [Precond_auto] resolves to
    none for this method (the diagonal metric measured
    slower on the KL geometry — request Jacobi explicitly to use it).
    @raise Invalid_argument on dimension mismatch or [sigma2 <= 0]. *)
val estimate :
  ?x0:Tmest_linalg.Vec.t ->
  ?stop:Tmest_opt.Stop.t ->
  ?precond:Workspace.precond_kind ->
  Workspace.t ->
  loads:Tmest_linalg.Vec.t ->
  prior:Tmest_linalg.Vec.t ->
  sigma2:float ->
  result

(** [estimate_fixed ?stop ws ~loads ~prior ~sigma2 ~fixed]
    solves the same problem with some demands pinned to known values
    ([fixed] maps pair index to the measured demand): the pinned columns
    are moved to the right-hand side and excluded from the optimization.
    Used when combining tomography with direct measurements
    (Section 5.3.6). *)
val estimate_fixed :
  ?x0:Tmest_linalg.Vec.t ->
  ?stop:Tmest_opt.Stop.t ->
  ?precond:Workspace.precond_kind ->
  Workspace.t ->
  loads:Tmest_linalg.Vec.t ->
  prior:Tmest_linalg.Vec.t ->
  sigma2:float ->
  fixed:(int * float) list ->
  result
