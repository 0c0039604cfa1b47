module Vec = Tmest_linalg.Vec
module Csr = Tmest_linalg.Csr
module Proxgrad = Tmest_opt.Proxgrad
module Stop = Tmest_opt.Stop
module Routing = Tmest_net.Routing

type result = {
  estimate : Vec.t;
  iterations : int;
  converged : bool;
}

let solve ?x0 ?(stop = Stop.default) ?(precond = Workspace.Precond_none) ws
    ~loads ~prior ~sigma2 ~mask =
  let stop =
    Workspace.solver_stop ws stop ~label:"entropy/proxgrad" ~max_iter:4000
      ~tol:1e-10
  in
  let routing = Workspace.routing ws in
  Problem.check_dims routing ~loads;
  if sigma2 <= 0. then invalid_arg "Entropy.estimate: sigma2 must be positive";
  let p = Routing.num_pairs routing in
  if Array.length prior <> p then
    invalid_arg "Entropy.estimate: prior dimension mismatch";
  let r = routing.Routing.matrix in
  let scale = Workspace.total_traffic ws ~loads in
  let scale = if scale > 0. then scale else 1. in
  let t_n = Vec.scale (1. /. scale) loads in
  let prior_n =
    Vec.mapi (fun i x -> if mask.(i) then 0. else x /. scale) prior
  in
  let w = 1. /. sigma2 in
  (* grad = 2 Rᵀ(R s − t), staged through one links-dimension buffer so
     solver iterations allocate nothing. *)
  let l = Routing.num_links routing in
  let pool = Workspace.pool ws in
  let tmp_l = (Workspace.scratch ws ~name:"entropy.links" ~dim:l ~count:1).(0) in
  let gradient_into s ~dst =
    Csr.matvec_into ?pool r s ~dst:tmp_l;
    Vec.sub_into tmp_l t_n ~dst:tmp_l;
    Csr.tmatvec_into r tmp_l ~dst;
    Vec.scale_into 2. dst ~dst
  in
  (* Jacobi preconditioning in the curvature metric D = diag(2g),
     g = exact diag(RᵀR): the KL prox stays separable under a diagonal
     metric (coordinate i sees the effective step step·dinv_i), and the
     preconditioned curvature D^{-1/2}(2G)D^{-1/2} = g^{-1/2}G g^{-1/2}
     has its mass compressed toward 1, which is what collapses the
     iteration count on the path-length-skewed large networks.  Entries
     with g_i = 0 (OD pair crossing no link) keep unit scaling.  Block
     degrades to Jacobi here: the diagonal is already exact, and the
     prox separability requires a diagonal metric.

     [Precond_auto] resolves to {e no} preconditioning for this method:
     measured on the 100-PoP synthetic backbone, the Jacobi metric
     raises the iteration count (3016 -> 3947) — rescaling the KL prox
     slows the multiplicative adjustment of the heavy coordinates more
     than the normalized quadratic gains.  Jacobi stays available
     explicitly. *)
  let dinv =
    match precond with
    | Workspace.Precond_none | Workspace.Precond_auto -> None
    | Workspace.Precond_jacobi ->
        Some
          (Workspace.precond_vec ws ~key:"normal.jacobi.dinv"
             ~compute:(fun () ->
               Vec.map
                 (fun g -> if g > 0. then 1. /. (2. *. g) else 1.)
                 (Workspace.gram_diag ws)))
  in
  let lipschitz =
    match dinv with
    | None -> 2. *. Workspace.op_norm ws
    | Some dinv ->
        (* ‖D^{-1/2} H D^{-1/2}‖ for H = 2G — shared with every other
           consumer of the Jacobi-preconditioned normal equations. *)
        Workspace.cached_lipschitz ws ~key:"normal.jacobi.norm"
          ~compute:(fun () ->
            let ds = Vec.map sqrt dinv in
            Tmest_opt.Fista.lipschitz_of_op ~dim:p (fun v ->
                let u = Vec.mul ds v in
                let h = Csr.tmatvec r (Csr.matvec r u) in
                Vec.mapi (fun i hi -> 2. *. hi *. ds.(i)) h))
  in
  let prox_into =
    match dinv with
    | None -> Proxgrad.kl_prox_into ~weight:w ~prior:prior_n
    | Some dinv -> Proxgrad.kl_prox_scaled_into ~weight:w ~prior:prior_n ~dinv
  in
  let start =
    match x0 with
    | None -> Vec.copy prior_n
    | Some v ->
        (* Warm start, rescaled to the solver's normalized units and
           forced onto the prior's support. *)
        Vec.mapi
          (fun i x -> if prior_n.(i) <= 0. then 0. else Stdlib.max 0. (x /. scale))
          v
  in
  let scratch =
    Workspace.scratch ws ~name:"proxgrad" ~dim:p
      ~count:Proxgrad.scratch_size
  in
  (* Only evaluated on traced runs, to fill the objective column of
     per-iteration records; allocates freely. *)
  let objective s =
    let resid = Vec.sub (Csr.matvec r s) t_n in
    Vec.dot resid resid
    +. (w *. Proxgrad.kl_divergence s prior_n)
  in
  let res =
    Proxgrad.solve_into ~x0:start ~stop ~scratch ~objective ?dinv ~dim:p
      ~gradient_into ~prox_into ~lipschitz ()
  in
  if not res.Proxgrad.converged then
    Logs.warn ~src:Problem.log_src (fun m ->
        m "Entropy.estimate: no convergence after %d iterations (sigma2 = %g)"
          res.Proxgrad.iterations sigma2);
  {
    estimate = Vec.scale scale res.Proxgrad.x;
    iterations = res.Proxgrad.iterations;
    converged = res.Proxgrad.converged;
  }

let estimate ?x0 ?stop ?precond ws ~loads ~prior ~sigma2 =
  let mask = Array.make (Workspace.num_pairs ws) false in
  solve ?x0 ?stop ?precond ws ~loads ~prior ~sigma2 ~mask

let estimate_fixed ?x0 ?stop ?precond ws ~loads ~prior ~sigma2 ~fixed =
  let p = Workspace.num_pairs ws in
  let mask = Array.make p false in
  let s_fixed = Vec.zeros p in
  List.iter
    (fun (pair, value) ->
      if pair < 0 || pair >= p then
        invalid_arg "Entropy.estimate_fixed: pair index out of range";
      if value < 0. then
        invalid_arg "Entropy.estimate_fixed: negative measured demand";
      mask.(pair) <- true;
      s_fixed.(pair) <- value)
    fixed;
  (* Move the measured demands' contribution to the right-hand side. *)
  let loads' =
    Vec.sub loads (Routing.link_loads (Workspace.routing ws) s_fixed)
  in
  let res = solve ?x0 ?stop ?precond ws ~loads:loads' ~prior ~sigma2 ~mask in
  let estimate =
    Vec.mapi
      (fun i v -> if mask.(i) then s_fixed.(i) else v)
      res.estimate
  in
  { res with estimate }
