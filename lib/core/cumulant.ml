module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Csr = Tmest_linalg.Csr
module Op = Tmest_linalg.Op
module Fista = Tmest_opt.Fista
module Stop = Tmest_opt.Stop
module Routing = Tmest_net.Routing

type result = {
  estimate : Vec.t;
  iterations : int;
  converged : bool;
}

(* Entry-wise power of the routing matrix, preserving the sparsity
   pattern: under ECMP the fractional split weights make R^(k) differ
   from R, and the k-th cumulant of a sum of independent pair rates is
   exactly R^(k) applied to the pair cumulants. *)
let entrywise_pow csr k =
  let triplets = ref [] in
  for i = Csr.rows csr - 1 downto 0 do
    Csr.iter_row csr i (fun j v -> triplets := (i, j, v ** k) :: !triplets)
  done;
  Csr.of_triplets ~rows:(Csr.rows csr) ~cols:(Csr.cols csr) !triplets

let estimate ?x0 ?(stop = Stop.default) ?(unit_bps = 1e6)
    ?(precond = Workspace.Precond_none) ws ~load_samples ~w2 ~w3 =
  if w2 < 0. || w3 < 0. then
    invalid_arg "Cumulant.estimate: negative moment weight";
  if unit_bps <= 0. then invalid_arg "Cumulant.estimate: unit_bps <= 0";
  let stop =
    Workspace.solver_stop ws stop ~label:"cumulant/fista" ~max_iter:6000
      ~tol:1e-12
  in
  let routing = Workspace.routing ws in
  let l = Routing.num_links routing and p = Routing.num_pairs routing in
  if Mat.cols load_samples <> l then
    invalid_arg
      "Cumulant.estimate: load samples do not match the routing matrix";
  let k = Mat.rows load_samples in
  if k < 2 then invalid_arg "Cumulant.estimate: need at least two load samples";
  (* Work in counting units so the Poisson cumulant ladder
     (kappa_1 = kappa_2 = kappa_3 = lambda) is commensurate. *)
  let inv_u = 1. /. unit_bps in
  let ybar = Vec.zeros l and m2 = Vec.zeros l and m3 = Vec.zeros l in
  let kf = float_of_int k in
  for i = 0 to l - 1 do
    let mean = ref 0. in
    for s = 0 to k - 1 do
      mean := !mean +. (Mat.get load_samples s i *. inv_u)
    done;
    let mean = !mean /. kf in
    ybar.(i) <- mean;
    let s2 = ref 0. and s3 = ref 0. in
    for s = 0 to k - 1 do
      let d = (Mat.get load_samples s i *. inv_u) -. mean in
      s2 := !s2 +. (d *. d);
      s3 := !s3 +. (d *. d *. d)
    done;
    m2.(i) <- !s2 /. (kf -. 1.);
    (* Unbiased k-statistic for the third cumulant needs k >= 3; with a
       2-sample window the third-moment term is dropped below. *)
    m3.(i) <- (if k >= 3 then kf *. !s3 /. ((kf -. 1.) *. (kf -. 2.)) else 0.)
  done;
  let w3 = if k >= 3 then w3 else 0. in
  (* Moment calibration: real traffic is not unit-rate Poisson — its
     dispersion law is closer to var = phi * mean^c — so the raw
     second/third-moment systems would contradict the first-moment one
     and drag the fit toward whichever is heavier.  Estimate the
     effective cumulant ratios u2 = kappa2/kappa1 and u3 =
     kappa3/kappa2 from the aggregate over links (a scaled-Poisson
     process has exactly constant ratios), and rescale the moment
     targets so all three systems agree in aggregate; the per-link
     deviations remain as the tomographic signal. *)
  let sum v = Array.fold_left ( +. ) 0. v in
  let s1 = sum ybar and s2 = sum m2 and s3 = sum m3 in
  let u2 = if s1 > 0. && s2 > 0. then s2 /. s1 else 1. in
  let u3 = if s2 > 0. && s3 > 0. then s3 /. s2 else 1. in
  (* A non-positive aggregate third moment means the window is too
     short to say anything about skew; drop that system. *)
  let w3 = if s3 > 0. then w3 else 0. in
  Vec.scale_into (1. /. u2) m2 ~dst:m2;
  Vec.scale_into (1. /. (u2 *. u3)) m3 ~dst:m3;
  (* The three moment systems R lambda = kappa_1, R^(2) lambda =
     kappa_2, R^(3) lambda = kappa_3 share one rate vector; stack them
     as a weighted non-negative least-squares problem and solve it
     matrix-free through [Op] — never a p x p matrix. *)
  let pool = Workspace.pool ws in
  let a = Workspace.op ws in
  let r2 = entrywise_pow routing.Routing.matrix 2. in
  let r3 = entrywise_pow routing.Routing.matrix 3. in
  let a2 = Op.of_csr ?pool r2 in
  let a3 = Op.of_csr ?pool r3 in
  let ly = (Workspace.scratch ws ~name:"cumulant.links" ~dim:l ~count:1).(0) in
  let tp = (Workspace.scratch ws ~name:"cumulant.pairs" ~dim:p ~count:1).(0) in
  let apply_h_into x ~dst =
    Op.apply_into a x ~dst:ly;
    Op.apply_t_into a ly ~dst:dst;
    Op.apply_into a2 x ~dst:ly;
    Op.apply_t_into a2 ly ~dst:tp;
    Vec.axpy_into w2 tp dst ~dst;
    if w3 > 0. then begin
      Op.apply_into a3 x ~dst:ly;
      Op.apply_t_into a3 ly ~dst:tp;
      Vec.axpy_into w3 tp dst ~dst
    end
  in
  (* Linear term/2 = R^T kappa_1 + w2 R2^T kappa_2 + w3 R3^T kappa_3. *)
  let lin = Csr.tmatvec routing.Routing.matrix ybar in
  Vec.axpy_into w2 (Csr.tmatvec r2 m2) lin ~dst:lin;
  if w3 > 0. then Vec.axpy_into w3 (Csr.tmatvec r3 m3) lin ~dst:lin;
  let dinv =
    match Workspace.resolve_precond ws precond with
    | Workspace.Precond_none -> None
    | Workspace.Precond_jacobi | Workspace.Precond_auto ->
        (* Exact curvature diagonal: diag(2H)_j = 2(g_j + w2 g2_j +
           w3 g3_j) with g{,2,3} the column square norms of R^(1,2,3). *)
        Some
          (Workspace.precond_vec ws
             ~key:(Printf.sprintf "cumulant.jacobi.dinv:%h:%h" w2 w3)
             ~compute:(fun () ->
               let g = Workspace.gram_diag ws in
               let g2 = Csr.col_sq_norms r2 in
               let g3 = Csr.col_sq_norms r3 in
               Vec.init p (fun j ->
                   let d =
                     2. *. (g.(j) +. (w2 *. g2.(j)) +. (w3 *. g3.(j)))
                   in
                   if d > 0. then 1. /. d else 1.)))
  in
  let gradient_into x ~dst =
    apply_h_into x ~dst;
    Vec.sub_into dst lin ~dst;
    Vec.scale_into 2. dst ~dst
  in
  let lipschitz =
    match dinv with
    | None ->
        2.
        *. Workspace.cached_lipschitz ws
             ~key:(Printf.sprintf "cumulant.h:%h:%h" w2 w3)
             ~compute:(fun () ->
               Fista.lipschitz_of_op ~dim:p (fun x ->
                   let dst = Vec.zeros p in
                   apply_h_into x ~dst;
                   dst))
    | Some dinv ->
        2.
        *. Workspace.cached_lipschitz ws
             ~key:(Printf.sprintf "cumulant.h.jacobi:%h:%h" w2 w3)
             ~compute:(fun () ->
               let ds = Vec.map sqrt dinv in
               Fista.lipschitz_of_op ~dim:p (fun x ->
                   let dst = Vec.zeros p in
                   apply_h_into (Vec.mul ds x) ~dst;
                   Vec.mul ds dst))
  in
  (* Traced runs only; allocates freely. *)
  let objective x =
    let hx = Vec.zeros p in
    apply_h_into x ~dst:hx;
    Vec.dot x hx -. (2. *. Vec.dot lin x)
  in
  (* Warm starts arrive in bits/s; the solver works in counting units. *)
  let x0 = Option.map (fun v0 -> Vec.scale inv_u v0) x0 in
  let scratch =
    Workspace.scratch ws ~name:"fista" ~dim:p ~count:Fista.scratch_size
  in
  let res =
    Fista.solve_into ?x0 ~stop ~scratch ~objective ?dinv ~dim:p ~gradient_into
      ~lipschitz ()
  in
  {
    estimate = Vec.scale unit_bps res.Fista.x;
    iterations = res.Fista.iterations;
    converged = res.Fista.converged;
  }
