(** Accelerated proximal-gradient method for composite objectives
    [f(x) + h(x)] with [f] smooth and [h] prox-friendly.

    The entropy ("tomogravity") estimator is solved with
    [f(s) = ‖R s − t‖²] and [h(s) = σ⁻² D(s ‖ prior)]; the proximal
    operator of a scaled generalized KL divergence has the closed form
    [prox(v) = c · W₀((p/c) · e^(v/c))] evaluated through the log-domain
    Lambert-W to avoid overflow. *)

type result = {
  x : Tmest_linalg.Vec.t;
  iterations : int;
  converged : bool;
}

(** Number of scratch buffers of the problem dimension consumed by
    [solve_into]. *)
val scratch_size : int

(** [solve_into ~dim ~gradient_into ~prox_into ~lipschitz ()] minimizes
    [f + h] where [gradient_into v ~dst] writes ∇f(v) into [dst],
    [prox_into step v ~dst] writes [argmin_u h(u) + ‖u−v‖²/(2 step)]
    into [dst] ([dst] may alias [v]), and [lipschitz] bounds ∇f's
    Lipschitz constant.  Iterations are allocation-free: all work
    happens in [scratch_size] preallocated buffers (supplied via
    [scratch] or allocated once at entry); the returned [x] is a fresh
    copy.

    [stop] bundles the iteration budget (default 3000), tolerance
    (default 1e-9) and trace sink ({!Stop.t}); with an enabled sink the
    solver emits one span plus per-iteration records, and [objective]
    (evaluated only when tracing) fills their objective column.

    [dinv] applies diagonal preconditioning: the forward step becomes
    [y − step·D⁻¹∇f(y)] with [D = diag(1/dinv)], and [prox_into] must
    apply the prox in the same metric (see {!kl_prox_scaled_into});
    [lipschitz] must bound the preconditioned curvature.  Omitting it
    reproduces the historical path bit for bit. *)
val solve_into :
  ?x0:Tmest_linalg.Vec.t ->
  ?stop:Stop.t ->
  ?scratch:Tmest_linalg.Vec.t array ->
  ?objective:(Tmest_linalg.Vec.t -> float) ->
  ?dinv:Tmest_linalg.Vec.t ->
  dim:int ->
  gradient_into:(Tmest_linalg.Vec.t -> dst:Tmest_linalg.Vec.t -> unit) ->
  prox_into:(float -> Tmest_linalg.Vec.t -> dst:Tmest_linalg.Vec.t -> unit) ->
  lipschitz:float ->
  unit ->
  result

(** [solve ~dim ~gradient ~prox ~lipschitz ()] is {!solve_into} with
    allocating callbacks; kept as the convenient non-hot-path entry
    point. *)
val solve :
  ?x0:Tmest_linalg.Vec.t ->
  ?stop:Stop.t ->
  dim:int ->
  gradient:(Tmest_linalg.Vec.t -> Tmest_linalg.Vec.t) ->
  prox:(float -> Tmest_linalg.Vec.t -> Tmest_linalg.Vec.t) ->
  lipschitz:float ->
  unit ->
  result

(** [kl_prox_into ~weight ~prior step v ~dst] writes the proximal
    operator of [weight · D(· ‖ prior)] (generalized KL,
    [D(s‖p) = Σ s ln(s/p) − s + p]) with step size [step] into [dst],
    element-wise.  [dst] may alias [v].  Entries with [prior <= 0] are
    mapped to 0. *)
val kl_prox_into :
  weight:float ->
  prior:Tmest_linalg.Vec.t ->
  float ->
  Tmest_linalg.Vec.t ->
  dst:Tmest_linalg.Vec.t ->
  unit

(** [kl_prox ~weight ~prior step v] is the allocating form of
    {!kl_prox_into}. *)
val kl_prox :
  weight:float -> prior:Tmest_linalg.Vec.t -> float -> Tmest_linalg.Vec.t ->
  Tmest_linalg.Vec.t

(** [kl_prox_scaled_into ~weight ~prior ~dinv step v ~dst] is
    {!kl_prox_into} in the diagonal metric [D = diag(1/dinv)]
    ([argmin_u weight·D(u‖prior) + ‖u−v‖²_D/(2·step)]): separable, with
    coordinate [i] seeing the effective step [step·dinv.(i)].  The
    matching prox for {!solve_into}'s [dinv] option.  [dst] may alias
    [v]. *)
val kl_prox_scaled_into :
  weight:float ->
  prior:Tmest_linalg.Vec.t ->
  dinv:Tmest_linalg.Vec.t ->
  float ->
  Tmest_linalg.Vec.t ->
  dst:Tmest_linalg.Vec.t ->
  unit

(** [kl_divergence s p] is [Σ sᵢ ln(sᵢ/pᵢ) − sᵢ + pᵢ], with the usual
    conventions [0 ln 0 = 0]; infinite if some [sᵢ > 0] has [pᵢ = 0]. *)
val kl_divergence : Tmest_linalg.Vec.t -> Tmest_linalg.Vec.t -> float
