module Vec = Tmest_linalg.Vec
module Csr = Tmest_linalg.Csr
module Fista = Tmest_opt.Fista
module Stop = Tmest_opt.Stop
module Routing = Tmest_net.Routing

type result = {
  estimate : Vec.t;
  iterations : int;
  converged : bool;
}

let estimate ?x0 ?(stop = Stop.default) ?(precond = Workspace.Precond_none) ws
    ~loads ~prior ~sigma2 =
  let stop =
    Workspace.solver_stop ws stop ~label:"bayes/fista" ~max_iter:4000
      ~tol:1e-10
  in
  let routing = Workspace.routing ws in
  Problem.check_dims routing ~loads;
  if sigma2 <= 0. then invalid_arg "Bayes.estimate: sigma2 must be positive";
  let p = Routing.num_pairs routing in
  if Array.length prior <> p then
    invalid_arg "Bayes.estimate: prior dimension mismatch";
  let r = routing.Routing.matrix in
  let scale = Workspace.total_traffic ws ~loads in
  let scale = if scale > 0. then scale else 1. in
  let t_n = Vec.scale (1. /. scale) loads in
  let prior_n = Vec.scale (1. /. scale) prior in
  let w = 1. /. sigma2 in
  (* grad = 2 Rᵀ(R s − t) + 2 w (s − prior), staged through one
     links-dimension buffer so solver iterations allocate nothing. *)
  let l = Routing.num_links routing in
  let pool = Workspace.pool ws in
  let tmp_l = (Workspace.scratch ws ~name:"bayes.links" ~dim:l ~count:1).(0) in
  let gradient_into s ~dst =
    Csr.matvec_into ?pool r s ~dst:tmp_l;
    Vec.sub_into tmp_l t_n ~dst:tmp_l;
    Csr.tmatvec_into r tmp_l ~dst;
    for i = 0 to p - 1 do
      dst.(i) <- 2. *. (dst.(i) +. (w *. (s.(i) -. prior_n.(i))))
    done
  in
  (* Curvature is H = 2G + 2wI, so the exact diagonal metric is
     d_i = 2g_i + 2w — strictly positive for any w > 0, no zero guard
     needed. *)
  let dinv =
    match Workspace.resolve_precond ws precond with
    | Workspace.Precond_none -> None
    | Workspace.Precond_jacobi | Workspace.Precond_auto ->
        Some
          (Workspace.precond_vec ws
             ~key:(Printf.sprintf "bayes.jacobi.dinv:%h" w)
             ~compute:(fun () ->
               Vec.map
                 (fun g -> 1. /. ((2. *. g) +. (2. *. w)))
                 (Workspace.gram_diag ws)))
  in
  let lipschitz =
    match dinv with
    | None -> (2. *. Workspace.op_norm ws) +. (2. *. w)
    | Some dinv ->
        Workspace.cached_lipschitz ws
          ~key:(Printf.sprintf "bayes.jacobi.norm:%h" w)
          ~compute:(fun () ->
            let ds = Vec.map sqrt dinv in
            Tmest_opt.Fista.lipschitz_of_op ~dim:p (fun v ->
                let u = Vec.mul ds v in
                let h = Csr.tmatvec r (Csr.matvec r u) in
                Vec.mapi
                  (fun i hi -> ((2. *. hi) +. (2. *. w *. u.(i))) *. ds.(i))
                  h))
  in
  let start =
    match x0 with
    | None -> prior_n
    | Some v ->
        (* Warm start, rescaled to the solver's normalized units. *)
        Vec.map (fun x -> Stdlib.max 0. (x /. scale)) v
  in
  let scratch =
    Workspace.scratch ws ~name:"fista" ~dim:p ~count:Fista.scratch_size
  in
  (* Traced runs only; allocates freely. *)
  let objective s =
    let resid = Vec.sub (Csr.matvec r s) t_n in
    let dev = Vec.sub s prior_n in
    Vec.dot resid resid +. (w *. Vec.dot dev dev)
  in
  let res =
    Fista.solve_into ~x0:start ~stop ~scratch ~objective ?dinv ~dim:p
      ~gradient_into ~lipschitz ()
  in
  if not res.Fista.converged then
    Logs.warn ~src:Problem.log_src (fun m ->
        m "Bayes.estimate: no convergence after %d iterations (sigma2 = %g)"
          res.Fista.iterations sigma2);
  {
    estimate = Vec.scale scale res.Fista.x;
    iterations = res.Fista.iterations;
    converged = res.Fista.converged;
  }
