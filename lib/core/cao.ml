module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Csr = Tmest_linalg.Csr
module Fista = Tmest_opt.Fista
module Stop = Tmest_opt.Stop
module Obs = Tmest_obs.Obs
module Desc = Tmest_stats.Desc
module Routing = Tmest_net.Routing

type result = {
  estimate : Vec.t;
  objective : float;
  iterations : int;
}

let estimate ?x0 ?(stop = Stop.default) ?(unit_bps = 1e6)
    ?(precond = Workspace.Precond_none) ws ~load_samples ~phi ~c ~sigma_inv2 =
  if phi <= 0. then invalid_arg "Cao.estimate: phi must be positive";
  (* [tol] scales the relative-progress stall test of the backtracking
     outer loop (historical constant 1e-12). *)
  let stop =
    Workspace.solver_stop ws stop ~label:"cao" ~max_iter:400 ~tol:1e-12
  in
  let max_iter = Stop.max_iter stop ~default:400 in
  let progress_tol = Stop.tol stop ~default:1e-12 in
  let sink = stop.Stop.sink in
  let traced = sink.Obs.enabled in
  let label = Stop.label stop ~default:"cao" in
  if c < 1. then invalid_arg "Cao.estimate: need c >= 1";
  if sigma_inv2 < 0. then invalid_arg "Cao.estimate: negative sigma_inv2";
  let routing = Workspace.routing ws in
  let l = Routing.num_links routing and p = Routing.num_pairs routing in
  if Mat.cols load_samples <> l then
    invalid_arg "Cao.estimate: load samples do not match the routing matrix";
  let k = Mat.rows load_samples in
  if k < 2 then invalid_arg "Cao.estimate: need at least two load samples";
  let samples =
    Array.init k (fun i -> Vec.scale (1. /. unit_bps) (Mat.row load_samples i))
  in
  let t_hat, sigma_hat = Desc.sample_mean_cov samples in
  let pool = Workspace.pool ws in
  (* First- and second-moment systems G = RᵀR and G∘G.  Dense mode keeps
     the historical materialized matrices (and the dense-Gram spectral
     norm, whose last bits differ from the operator estimate); sparse
     mode applies both matrix-free. *)
  let g_matvec_into, g2_matvec_into, lip =
    if Workspace.is_sparse ws then begin
      let normal = Workspace.normal_op ws in
      let gsq = Workspace.gram_sq_op ws in
      ( (fun x ~dst -> Tmest_linalg.Op.apply_into normal x ~dst),
        (fun x ~dst -> Tmest_linalg.Op.apply_into gsq x ~dst),
        2. *. Workspace.op_norm ws )
    end
    else begin
      let g = Workspace.gram ws in
      let g2 = Workspace.gram_sq ws in
      ( (fun x ~dst -> Mat.matvec_into ?pool g x ~dst),
        (fun x ~dst -> Mat.matvec_into ?pool g2 x ~dst),
        2. *. Workspace.gram_norm ws )
    end
  in
  let rt_t = Csr.tmatvec routing.Routing.matrix t_hat in
  let v = Problem.path_variances (Workspace.transpose ws) sigma_hat in
  let w = sigma_inv2 in
  (* All per-iteration work — u(λ), matrix-vector products, gradient,
     line-search candidates — lives in one pooled buffer set. *)
  let bufs = Workspace.scratch ws ~name:"cao" ~dim:p ~count:5 in
  let u_buf = bufs.(0) and tmp_p = bufs.(1) and grad = bufs.(2) in
  let lambda = ref bufs.(3) and cand = ref bufs.(4) in
  let u_of_into lam ~dst =
    for i = 0 to p - 1 do
      dst.(i) <- phi *. (Stdlib.max lam.(i) 0. ** c)
    done
  in
  let objective lam =
    u_of_into lam ~dst:u_buf;
    g_matvec_into lam ~dst:tmp_p;
    let first = Vec.dot lam tmp_p -. (2. *. Vec.dot rt_t lam) in
    g2_matvec_into u_buf ~dst:tmp_p;
    let second = Vec.dot u_buf tmp_p -. (2. *. Vec.dot v u_buf) in
    first +. (w *. second)
  in
  let gradient_into lam ~dst =
    u_of_into lam ~dst:u_buf;
    g2_matvec_into u_buf ~dst:tmp_p;
    g_matvec_into lam ~dst;
    for i = 0 to p - 1 do
      let d_first = 2. *. (dst.(i) -. rt_t.(i)) in
      let d_second_du = 2. *. (tmp_p.(i) -. v.(i)) in
      let du_dlambda = phi *. c *. (Stdlib.max lam.(i) 0. ** (c -. 1.)) in
      dst.(i) <- d_first +. (w *. d_second_du *. du_dlambda)
    done
  in
  (match x0 with
  | Some v0 ->
      (* Warm start (bits/s): skip the first-moment bootstrap solve. *)
      if Vec.dim v0 <> p then invalid_arg "Cao.estimate: x0 dimension mismatch";
      for i = 0 to p - 1 do
        !lambda.(i) <- Stdlib.max (v0.(i) /. unit_bps) 0.
      done
  | None ->
      (* Start from the first-moment-only solution.  The bootstrap is a
         plain non-negative least-squares solve with curvature 2G, so it
         takes the same exact Jacobi metric d = 2·diag(G) as the entropy
         estimator; the nonconvex outer loop below already adapts its
         step by backtracking and is left untouched. *)
      let dinv =
        match Workspace.resolve_precond ws precond with
        | Workspace.Precond_none -> None
        | Workspace.Precond_jacobi | Workspace.Precond_auto ->
            Some
              (Workspace.precond_vec ws ~key:"normal.jacobi.dinv"
                 ~compute:(fun () ->
                   Vec.map
                     (fun g -> if g > 0. then 1. /. (2. *. g) else 1.)
                     (Workspace.gram_diag ws)))
      in
      let boot_lip =
        match dinv with
        | None -> lip
        | Some dinv ->
            Workspace.cached_lipschitz ws ~key:"normal.jacobi.norm"
              ~compute:(fun () ->
                let ds = Vec.map sqrt dinv in
                Fista.lipschitz_of_op ~dim:p (fun x ->
                    let dst = Vec.zeros p in
                    g_matvec_into (Vec.mul ds x) ~dst;
                    Vec.mapi (fun i hi -> 2. *. hi *. ds.(i)) dst))
      in
      let init =
        Fista.solve_into
          ~stop:
            (Stop.make ~max_iter:2000 ~tol:1e-10 ~sink
               ~label:(label ^ "/bootstrap-fista") ())
          ~dim:p ?dinv
          ~scratch:
            (Workspace.scratch ws ~name:"fista" ~dim:p
               ~count:Fista.scratch_size)
          ~gradient_into:(fun x ~dst ->
            g_matvec_into x ~dst;
            Vec.sub_into dst rt_t ~dst;
            Vec.scale_into 2. dst ~dst)
          ~lipschitz:boot_lip ()
      in
      Vec.blit_into init.Fista.x ~dst:!lambda);
  let f = ref (objective !lambda) in
  let step = ref (1. /. lip) in
  let iterations = ref 0 in
  let stalled = ref false in
  if traced then
    Obs.span_begin sink label
      ~args:[ ("dim", Obs.Int p); ("max_iter", Obs.Int max_iter) ];
  while (not !stalled) && !iterations < max_iter do
    incr iterations;
    gradient_into !lambda ~dst:grad;
    (* Backtracking projected gradient: halve the step until descent. *)
    let rec try_step eta attempts =
      if attempts = 0 then None
      else begin
        Vec.axpy_into (-.eta) grad !lambda ~dst:!cand;
        Vec.clamp_nonneg_into !cand ~dst:!cand;
        let fc = objective !cand in
        if fc < !f -. 1e-12 then Some (fc, eta)
        else try_step (eta /. 2.) (attempts - 1)
      end
    in
    (match try_step (!step *. 2.) 40 with
    | None -> stalled := true
    | Some (fc, eta) ->
        let progress = !f -. fc in
        let tmp = !lambda in
        lambda := !cand;
        cand := tmp;
        f := fc;
        step := eta;
        if progress < progress_tol *. (1. +. abs_float fc) then
          stalled := true);
    if traced then
      Obs.iter sink ~solver:label ~iter:!iterations ~objective:!f
        ~step:!step ()
  done;
  if traced then Obs.span_end sink label;
  {
    estimate = Vec.scale unit_bps !lambda;
    objective = !f;
    iterations = !iterations;
  }
