(** Shared plumbing for the estimation methods. *)

(** The library's log source ("tmest.core"): solvers report
    non-convergence and numerical trouble here at [Warning] level.
    Silence or route it with the usual [Logs] machinery. *)
val log_src : Logs.src

(** [total_traffic routing ~loads] is the total network traffic
    [Σ te(n)] read off the ingress access-link rows — the [stot] used to
    normalize estimation problems (Section 3.2.1). *)
val total_traffic : Tmest_net.Routing.t -> loads:Tmest_linalg.Vec.t -> float

(** [check_dims routing ~loads] validates the load vector length. *)
val check_dims : Tmest_net.Routing.t -> loads:Tmest_linalg.Vec.t -> unit

(** [path_variances rt sigma] is [v] with [v.(p) = r_pᵀ Σ r_p]: the
    link covariance [sigma] ([L x L]) summed along OD pair [p]'s route,
    where [r_p] is row [p] of the transposed routing matrix [rt] — the
    second-moment right-hand side of the Vardi and Cao estimators. *)
val path_variances : Tmest_linalg.Csr.t -> Tmest_linalg.Mat.t -> Tmest_linalg.Vec.t

(** [residual_norm routing ~loads estimate] is [‖R s − t‖ / ‖t‖]:
    how consistent an estimate is with the link measurements. *)
val residual_norm :
  Tmest_net.Routing.t ->
  loads:Tmest_linalg.Vec.t ->
  Tmest_linalg.Vec.t ->
  float
