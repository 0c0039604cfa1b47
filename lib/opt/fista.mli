(** Accelerated projected-gradient (FISTA) solver for smooth convex
    objectives over the non-negative orthant.

    Used for the larger regularized estimation problems (Bayesian, Vardi)
    where forming and factoring normal equations per active-set change
    would be too slow. *)

type result = {
  x : Tmest_linalg.Vec.t;
  iterations : int;
  converged : bool;
}

(** Number of scratch buffers of the problem dimension consumed by
    [solve_into] (current iterate, candidate iterate, extrapolation
    point, gradient). *)
val scratch_size : int

(** [solve_into ~dim ~gradient_into ~lipschitz ()] minimizes a convex
    differentiable [f] with gradient [gradient_into] (destination-passing:
    [gradient_into v ~dst] writes ∇f(v) into [dst]) and gradient
    Lipschitz constant [lipschitz] over the projection set.

    Iterations are allocation-free: all work happens in [scratch_size]
    preallocated buffers (supplied via [scratch], validated by
    {!Scratch.take}, or allocated once at entry).  The returned [x] is a
    fresh copy and never aliases the scratch pool.

    - [x0]: starting point (default 0); projected before use.
    - [stop]: shared stopping/observability policy ({!Stop.t}); solver
      defaults are 2000 iterations and a tolerance of 1e-9 — stop when
      the projected-gradient step moves [x] by less than
      [tol * (1 + ‖x‖)] in Euclidean norm.  With an enabled trace sink
      the solver emits one span plus a per-iteration record (step norm,
      step size, restart flag); with the null sink the iterations stay
      allocation-free and results bit-identical.
    - [project_into]: projection onto the feasible set, written to [dst]
      (which may alias the input); defaults to clamping onto [{x >= 0}].
    - [objective]: evaluated on the new iterate {e only} when tracing is
      enabled, to fill the objective column of iteration records; it
      never influences the solve.
    - [dinv]: inverse of a positive diagonal metric [D]; the gradient
      step becomes [y − step·D⁻¹∇f(y)] (diagonal preconditioning).
      [lipschitz] must then bound [D^{-1/2} H D^{-1/2}], i.e. the
      preconditioned curvature.  Omitting [dinv] reproduces the
      unpreconditioned path bit for bit.
    - Restarts the momentum whenever it points uphill (adaptive restart),
      which matters for the badly conditioned small-regularization runs. *)
val solve_into :
  ?x0:Tmest_linalg.Vec.t ->
  ?stop:Stop.t ->
  ?scratch:Tmest_linalg.Vec.t array ->
  ?project_into:(Tmest_linalg.Vec.t -> dst:Tmest_linalg.Vec.t -> unit) ->
  ?objective:(Tmest_linalg.Vec.t -> float) ->
  ?dinv:Tmest_linalg.Vec.t ->
  dim:int ->
  gradient_into:(Tmest_linalg.Vec.t -> dst:Tmest_linalg.Vec.t -> unit) ->
  lipschitz:float ->
  unit ->
  result

(** [solve ~dim ~gradient ~lipschitz ()] is {!solve_into} with an
    allocating gradient callback and the non-negative orthant
    projection; kept as the convenient non-hot-path entry point. *)
val solve :
  ?x0:Tmest_linalg.Vec.t ->
  ?stop:Stop.t ->
  dim:int ->
  gradient:(Tmest_linalg.Vec.t -> Tmest_linalg.Vec.t) ->
  lipschitz:float ->
  unit ->
  result

(** [lipschitz_of_gram h] is the largest eigenvalue of the symmetric
    positive-semidefinite matrix [h], estimated by power iteration; a
    valid gradient Lipschitz constant for [f(x) = ½xᵀhx − qᵀx]. *)
val lipschitz_of_gram : ?iters:int -> Tmest_linalg.Mat.t -> float

(** [lipschitz_of_op ~dim apply] estimates ‖H‖₂ for a symmetric PSD
    operator given only matrix-vector products. *)
val lipschitz_of_op :
  ?iters:int -> dim:int -> (Tmest_linalg.Vec.t -> Tmest_linalg.Vec.t) -> float
