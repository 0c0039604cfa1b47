(** Vardi's Poissonian moment-matching estimator (Section 4.2.2).

    Under [s_p ~ Poisson(λ_p)], the link loads satisfy [E t = R λ] and
    [Cov t = R diag(λ) Rᵀ].  Given a time series of load measurements,
    the sample mean and covariance are matched to these expressions in
    least squares:

    {v min ‖R λ − t̂‖² + σ⁻² ‖R diag(λ) Rᵀ − Σ̂‖_F²,   λ >= 0 v}

    Both terms are quadratic in [λ] (the Frobenius term has Hessian
    [(RᵀR) ∘ (RᵀR)], the entry-wise square of the Gram matrix), so the
    problem is a non-negative quadratic program solved by accelerated
    projected gradient, with the Hessian applied matrix-free
    ({!Workspace.normal_op} plus {!Workspace.gram_sq_op}) in both
    workspace modes.  [σ⁻² ∈ (0, 1]] expresses faith in the Poisson
    assumption ([σ⁻² = 1] trusts it fully).

    Traffic is rescaled internally so the *counting units* are
    explicit: the Poisson mean-variance link only holds in the unit the
    traffic is counted in, and [unit_bps] (default 1 Mbps) sets it. *)

type result = {
  estimate : Tmest_linalg.Vec.t;  (** estimated mean rates, bits/s *)
  mean_residual : float;  (** ‖Rλ − t̂‖ / ‖t̂‖ at the solution *)
  iterations : int;
}

(** [estimate ?x0 ?stop ?unit_bps ws ~load_samples ~sigma_inv2]
    runs the estimator on a [K x L] matrix of load samples.  [x0] is an
    optional warm-start estimate in bits/s (converted internally to the
    counting unit).  [precond] (default {!Workspace.Precond_none})
    applies diagonal preconditioning in the exact curvature metric
    [d_i = 2(g_i + σ⁻²·g_i²)] where [g = diag(RᵀR)]; same fixed point,
    fewer iterations.
    @raise Invalid_argument if [sigma_inv2 < 0] or dimensions differ. *)
val estimate :
  ?x0:Tmest_linalg.Vec.t ->
  ?stop:Tmest_opt.Stop.t ->
  ?unit_bps:float ->
  ?precond:Workspace.precond_kind ->
  Workspace.t ->
  load_samples:Tmest_linalg.Mat.t ->
  sigma_inv2:float ->
  result
