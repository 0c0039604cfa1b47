(** Conjugate gradients for symmetric positive-(semi)definite systems.

    Matrix-free: only matrix-vector products are needed, so it works
    with CSR routing Grams and implicit normal equations without
    forming dense factors. *)

type result = {
  x : Tmest_linalg.Vec.t;
  iterations : int;
  residual_norm : float;  (** ‖b − A x‖ at exit *)
  converged : bool;
}

(** Number of scratch buffers of the system dimension consumed by
    [solve_into] (iterate, residual, search direction, operator
    output). *)
val scratch_size : int

(** [solve_into ~apply_into ~b ()] solves [A x = b] for SPD [A] given
    as the destination-passing product [apply_into v ~dst] (never
    called with [dst] aliasing [v]).  Iterations are allocation-free:
    all work happens in [scratch_size] preallocated buffers (supplied
    via [scratch] or allocated once at entry); the returned [x] is a
    fresh copy.  [stop] ({!Stop.t}) bundles the stopping rule — residual
    below [tol * ‖b‖] (default [tol = 1e-10]) or [max_iter] iterations
    (default [2 * dim]) — and the trace sink; with an enabled sink the
    solver emits one span plus a per-iteration record (residual norm,
    step length α). *)
val solve_into :
  ?x0:Tmest_linalg.Vec.t ->
  ?stop:Stop.t ->
  ?scratch:Tmest_linalg.Vec.t array ->
  apply_into:(Tmest_linalg.Vec.t -> dst:Tmest_linalg.Vec.t -> unit) ->
  b:Tmest_linalg.Vec.t ->
  unit ->
  result

(** [solve ~apply ~b ()] is {!solve_into} with an allocating
    matrix-vector product. *)
val solve :
  ?x0:Tmest_linalg.Vec.t ->
  ?stop:Stop.t ->
  apply:(Tmest_linalg.Vec.t -> Tmest_linalg.Vec.t) ->
  b:Tmest_linalg.Vec.t ->
  unit ->
  result

(** [solve_mat a b] is [solve] with a dense SPD matrix. *)
val solve_mat :
  ?stop:Stop.t -> Tmest_linalg.Mat.t -> Tmest_linalg.Vec.t ->
  result
