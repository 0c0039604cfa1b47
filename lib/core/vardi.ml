module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Csr = Tmest_linalg.Csr
module Op = Tmest_linalg.Op
module Fista = Tmest_opt.Fista
module Stop = Tmest_opt.Stop
module Desc = Tmest_stats.Desc
module Routing = Tmest_net.Routing

type result = {
  estimate : Vec.t;
  mean_residual : float;
  iterations : int;
}

let estimate ?x0 ?(stop = Stop.default) ?(unit_bps = 1e6)
    ?(precond = Workspace.Precond_none) ws ~load_samples ~sigma_inv2 =
  if sigma_inv2 < 0. then invalid_arg "Vardi.estimate: negative sigma_inv2";
  let stop =
    Workspace.solver_stop ws stop ~label:"vardi/fista" ~max_iter:6000
      ~tol:1e-12
  in
  if unit_bps <= 0. then invalid_arg "Vardi.estimate: unit_bps <= 0";
  let routing = Workspace.routing ws in
  let l = Routing.num_links routing and p = Routing.num_pairs routing in
  if Mat.cols load_samples <> l then
    invalid_arg "Vardi.estimate: load samples do not match the routing matrix";
  if Mat.rows load_samples < 2 then
    invalid_arg "Vardi.estimate: need at least two load samples";
  (* Work in counting units so Poisson moments are commensurate. *)
  let k = Mat.rows load_samples in
  let samples =
    Array.init k (fun i -> Vec.scale (1. /. unit_bps) (Mat.row load_samples i))
  in
  let t_hat, sigma_hat = Desc.sample_mean_cov samples in
  let w = sigma_inv2 in
  (* Linear term/2 = Rᵀ t̂ + w * v with v_p = r_pᵀ Σ̂ r_p. *)
  let v = Problem.path_variances (Workspace.transpose ws) sigma_hat in
  let lin = Vec.axpy w v (Csr.tmatvec routing.Routing.matrix t_hat) in
  (* Hessian/2 = H₀ = G + w * (G entry-wise squared); grad = 2 (H₀ x −
     lin).  H₀ is applied matrix-free in both modes as
     normal_op + w · gram_sq_op, never touching a p x p matrix: on the
     paper networks this beats rebuilding and multiplying a dense H₀. *)
  (* Exact curvature diagonal: diag(2H₀)_i = 2(g_i + w·g_i²), since the
     (i,i) entry of G entry-wise squared is g_i². *)
  let dinv =
    match Workspace.resolve_precond ws precond with
    | Workspace.Precond_none -> None
    | Workspace.Precond_jacobi | Workspace.Precond_auto ->
        Some
          (Workspace.precond_vec ws
             ~key:(Printf.sprintf "vardi.jacobi.dinv:%h" w)
             ~compute:(fun () ->
               Vec.map
                 (fun g ->
                   let d = 2. *. (g +. (w *. g *. g)) in
                   if d > 0. then 1. /. d else 1.)
                 (Workspace.gram_diag ws)))
  in
  let normal = Workspace.normal_op ws in
  let gsq = Workspace.gram_sq_op ws in
  let tmp = (Workspace.scratch ws ~name:"vardi.h0" ~dim:p ~count:1).(0) in
  let apply_h0_into x ~dst =
    Op.apply_into normal x ~dst;
    Op.apply_into gsq x ~dst:tmp;
    Vec.axpy_into w tmp dst ~dst
  in
  let gradient_into x ~dst =
    apply_h0_into x ~dst;
    Vec.sub_into dst lin ~dst;
    Vec.scale_into 2. dst ~dst
  in
  let lipschitz =
    match dinv with
    | None ->
        2.
        *. Workspace.cached_lipschitz ws
             ~key:(Printf.sprintf "vardi.h0op:%h" w)
             ~compute:(fun () ->
               Fista.lipschitz_of_op ~dim:p (fun x ->
                   let dst = Vec.zeros p in
                   apply_h0_into x ~dst;
                   dst))
    | Some dinv ->
        2.
        *. Workspace.cached_lipschitz ws
             ~key:(Printf.sprintf "vardi.h0op.jacobi:%h" w)
             ~compute:(fun () ->
               let ds = Vec.map sqrt dinv in
               Fista.lipschitz_of_op ~dim:p (fun x ->
                   let dst = Vec.zeros p in
                   apply_h0_into (Vec.mul ds x) ~dst;
                   Vec.mul ds dst))
  in
  (* Traced runs only; allocates freely. *)
  let objective x =
    let hx = Vec.zeros p in
    apply_h0_into x ~dst:hx;
    Vec.dot x hx -. (2. *. Vec.dot lin x)
  in
  (* Warm starts arrive in bits/s; the solver works in counting units. *)
  let x0 = Option.map (fun v0 -> Vec.scale (1. /. unit_bps) v0) x0 in
  let scratch =
    Workspace.scratch ws ~name:"fista" ~dim:p ~count:Fista.scratch_size
  in
  let res =
    Fista.solve_into ?x0 ~stop ~scratch ~objective ?dinv ~dim:p ~gradient_into
      ~lipschitz ()
  in
  let lambda = res.Fista.x in
  let pred = Csr.matvec routing.Routing.matrix lambda in
  let denom = Vec.norm2 t_hat in
  let mean_residual =
    if denom = 0. then 0. else Vec.dist2 pred t_hat /. denom
  in
  if mean_residual > 0.5 then
    Logs.warn ~src:Problem.log_src (fun m ->
        m "Vardi.estimate: first-moment residual %.2f — the covariance \
           term dominates; the Poisson assumption is likely violated \
           (sigma_inv2 = %g)" mean_residual sigma_inv2);
  {
    estimate = Vec.scale unit_bps lambda;
    mean_residual;
    iterations = res.Fista.iterations;
  }
