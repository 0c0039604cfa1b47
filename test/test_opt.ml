open Tmest_linalg
open Tmest_opt

let check_float eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Simplex                                                             *)
(* ------------------------------------------------------------------ *)

(* min -x1 - 2x2 s.t. x1 + x2 + s1 = 4, x1 + 3x2 + s2 = 6, x >= 0.
   Optimum of max x1 + 2x2 over the polytope: vertex (3, 1), value 5. *)
let std_a =
  Mat.of_rows [| [| 1.; 1.; 1.; 0. |]; [| 1.; 3.; 0.; 1. |] |]

let std_b = Vec.of_list [ 4.; 6. ]

let test_simplex_basic_max () =
  match Simplex.lp_max std_a std_b (Vec.of_list [ 1.; 2.; 0.; 0. ]) with
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Simplex.Optimal { x; objective } ->
      check_float 1e-8 "objective" 5. objective;
      check_float 1e-8 "x1" 3. x.(0);
      check_float 1e-8 "x2" 1. x.(1)

let test_simplex_basic_min () =
  (* Minimum of x1 + 2x2 over the same region is 0 at the origin. *)
  match Simplex.lp_min std_a std_b (Vec.of_list [ 1.; 2.; 0.; 0. ]) with
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Simplex.Optimal { objective; _ } -> check_float 1e-8 "objective" 0. objective

let test_simplex_infeasible () =
  (* x1 = -1 with x1 >= 0 is infeasible. *)
  let a = Mat.of_rows [| [| 1. |] |] in
  Alcotest.(check bool) "raises Infeasible" true
    (try
       ignore (Simplex.make a (Vec.of_list [ -1. ]));
       false
     with Simplex.Infeasible -> true)

let test_simplex_unbounded () =
  (* max x1 s.t. x1 - x2 = 0: ray (t, t). *)
  let a = Mat.of_rows [| [| 1.; -1. |] |] in
  match Simplex.lp_max a (Vec.of_list [ 0. ]) (Vec.of_list [ 1.; 0. ]) with
  | Simplex.Unbounded -> ()
  | Simplex.Optimal _ -> Alcotest.fail "expected unbounded"

let test_simplex_warm_restart () =
  (* Solving several objectives on one state must agree with one-shot. *)
  let t = Simplex.make std_a std_b in
  let objs =
    [
      Vec.of_list [ 1.; 2.; 0.; 0. ];
      Vec.of_list [ 2.; 1.; 0.; 0. ];
      Vec.of_list [ 1.; 0.; 0.; 0. ];
      Vec.of_list [ 0.; 1.; 0.; 0. ];
    ]
  in
  List.iter
    (fun c ->
      match (Simplex.maximize t c, Simplex.lp_max std_a std_b c) with
      | Simplex.Optimal a, Simplex.Optimal b ->
          check_float 1e-8 "warm = cold" b.objective a.objective
      | _ -> Alcotest.fail "expected optimal")
    objs

let test_simplex_degenerate () =
  (* Classic degenerate LP; must terminate and find max = 1. *)
  let a =
    Mat.of_rows
      [| [| 1.; 1.; 1.; 0. |]; [| 1.; 0.; 0.; 1. |] |]
  in
  let b = Vec.of_list [ 1.; 1. ] in
  match Simplex.lp_max a b (Vec.of_list [ 1.; 1.; 0.; 0. ]) with
  | Simplex.Optimal { objective; _ } -> check_float 1e-8 "obj" 1. objective
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_simplex_redundant_rows () =
  (* Duplicate constraint row: phase 1 leaves an artificial pinned at 0. *)
  let a =
    Mat.of_rows [| [| 1.; 1. |]; [| 1.; 1. |]; [| 1.; 0. |] |]
  in
  let b = Vec.of_list [ 2.; 2.; 1. ] in
  match Simplex.lp_max a b (Vec.of_list [ 0.; 1. ]) with
  | Simplex.Optimal { x; objective } ->
      check_float 1e-8 "obj" 1. objective;
      check_float 1e-8 "x1" 1. x.(0)
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_simplex_equality_route () =
  (* Tiny traffic-like system: two demands sharing a link.
     s1 + s2 = 5, s1 = 2 -> bounds on s2 are [3, 3]. *)
  let a = Mat.of_rows [| [| 1.; 1. |]; [| 1.; 0. |] |] in
  let b = Vec.of_list [ 5.; 2. ] in
  let t = Simplex.make a b in
  (match Simplex.maximize t (Vec.of_list [ 0.; 1. ]) with
  | Simplex.Optimal { objective; _ } -> check_float 1e-8 "ub" 3. objective
  | Simplex.Unbounded -> Alcotest.fail "unbounded");
  match Simplex.minimize t (Vec.of_list [ 0.; 1. ]) with
  | Simplex.Optimal { objective; _ } -> check_float 1e-8 "lb" 3. objective
  | Simplex.Unbounded -> Alcotest.fail "unbounded"

let prop_simplex_weak_duality =
  (* For max cx with feasible x found, any feasible point y has cy <= opt. *)
  QCheck.Test.make ~name:"simplex optimal dominates random feasible" ~count:30
    (QCheck.pair
       (QCheck.array_of_size (QCheck.Gen.return 4)
          (QCheck.float_bound_inclusive 5.))
       (QCheck.array_of_size (QCheck.Gen.return 4)
          (QCheck.float_bound_inclusive 3.)))
    (fun (c, x0) ->
      (* Region: x1+x2+x3+x4 = sum(x0) with x >= 0 contains x0. *)
      let a = Mat.of_rows [| [| 1.; 1.; 1.; 1. |] |] in
      let total = Array.fold_left ( +. ) 0. x0 in
      let b = Vec.of_list [ total ] in
      match Simplex.lp_max a b c with
      | Simplex.Unbounded -> false
      | Simplex.Optimal { objective; _ } ->
          objective >= Vec.dot c x0 -. 1e-7)

(* ------------------------------------------------------------------ *)
(* NNLS                                                                *)
(* ------------------------------------------------------------------ *)

let test_nnls_unconstrained_interior () =
  (* True solution is positive, so NNLS = least squares. *)
  let a = Mat.of_rows [| [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  let b = Vec.of_list [ 1.; 2.; 3. ] in
  let r = Nnls.solve a b in
  let ls = Qr.solve_lstsq a b in
  Alcotest.(check bool) "matches LS" true (Vec.equal ~eps:1e-8 r.Nnls.x ls)

let test_nnls_active_bound () =
  (* Pulls x2 negative in LS; NNLS must clamp it to exactly 0. *)
  let a = Mat.of_rows [| [| 1.; 1. |]; [| 1.; 1.2 |] |] in
  let b = Vec.of_list [ 1.; 0.5 ] in
  let r = Nnls.solve a b in
  Alcotest.(check bool) "x >= 0" true (Array.for_all (fun x -> x >= 0.) r.Nnls.x);
  check_float 1e-9 "x2 pinned" 0. r.Nnls.x.(1)

let test_nnls_kkt () =
  let a =
    Mat.of_rows
      [|
        [| 1.; 2.; 0.5 |]; [| 0.; 1.; -1. |]; [| 2.; 0.; 1. |]; [| 1.; 1.; 1. |];
      |]
  in
  let b = Vec.of_list [ 1.; -2.; 3.; 0. ] in
  let r = Nnls.solve a b in
  let grad = Mat.tmatvec a (Vec.sub (Mat.matvec a r.Nnls.x) b) in
  Array.iteri
    (fun j g ->
      if r.Nnls.x.(j) > 1e-10 then check_float 1e-6 "stationarity" 0. g
      else Alcotest.(check bool) "dual feasibility" true (g >= -1e-6))
    grad

let prop_nnls_beats_clipped_ls =
  QCheck.Test.make ~name:"nnls residual <= clipped-LS residual" ~count:40
    (QCheck.array_of_size (QCheck.Gen.return 12)
       (QCheck.float_range (-5.) 5.))
    (fun data ->
      let a = Mat.init 4 3 (fun i j -> data.((i * 3) + j)) in
      let b = Vec.of_list [ 1.; -1.; 2.; 0.5 ] in
      match Qr.solve_lstsq a b with
      | exception Qr.Rank_deficient _ -> true
      | ls ->
          let r = Nnls.solve a b in
          let clipped = Vec.clamp_nonneg ls in
          let res v = Vec.norm2 (Vec.sub (Mat.matvec a v) b) in
          res r.Nnls.x <= res clipped +. 1e-7)

(* ------------------------------------------------------------------ *)
(* FISTA                                                               *)
(* ------------------------------------------------------------------ *)

let quad_gradient h q x = Vec.sub (Mat.matvec h x) q

let test_fista_matches_nnls () =
  let a =
    Mat.of_rows
      [| [| 1.; 2.; 0. |]; [| 0.; 1.; 3. |]; [| 1.; 0.; 1. |]; [| 2.; 1.; 1. |] |]
  in
  let b = Vec.of_list [ 1.; 2.; -1.; 0. ] in
  let h = Mat.gram a in
  let q = Mat.tmatvec a b in
  let lip = Fista.lipschitz_of_gram h in
  let r =
    Fista.solve ~stop:(Stop.make ~max_iter:5000 ~tol:1e-12 ()) ~dim:3
      ~gradient:(quad_gradient h q) ~lipschitz:lip ()
  in
  let nn = Nnls.solve a b in
  Alcotest.(check bool) "agrees with NNLS" true
    (Vec.equal ~eps:1e-5 r.Fista.x nn.Nnls.x)

let test_fista_simple_projection () =
  (* min (x-(-2))^2/2: solution clamps to 0. *)
  let h = Mat.identity 1 in
  let q = Vec.of_list [ -2. ] in
  let r =
    Fista.solve ~dim:1 ~gradient:(quad_gradient h q) ~lipschitz:1. ()
  in
  check_float 1e-9 "clamped" 0. r.Fista.x.(0)

let test_lipschitz_estimate () =
  let h = Mat.diag (Vec.of_list [ 1.; 5.; 3. ]) in
  let l = Fista.lipschitz_of_gram h in
  Alcotest.(check bool) "upper bound, close" true (l >= 5. && l < 5.5)

(* ------------------------------------------------------------------ *)
(* Proxgrad (entropy)                                                  *)
(* ------------------------------------------------------------------ *)

let test_kl_prox_identity_at_prior () =
  (* prox at v = p with any weight returns s <= p but must keep s = p when
     v = p + weight*step*0... check stationarity: prox(p + c*log(p/p)) = p. *)
  let prior = Vec.of_list [ 0.5; 2.; 1e-6 ] in
  let out = Proxgrad.kl_prox ~weight:3. ~prior 0.1 (Vec.copy prior) in
  Array.iteri
    (fun i s ->
      check_float 1e-7 (Printf.sprintf "fixed point %d" i) prior.(i) s)
    out

let test_kl_prox_closed_form () =
  (* Verify the prox optimality condition c*ln(s/p) + s - v = 0. *)
  let prior = Vec.of_list [ 1.; 0.3; 10. ] in
  let v = Vec.of_list [ 2.; -1.; 500. ] in
  let weight = 0.7 and step = 0.25 in
  let s = Proxgrad.kl_prox ~weight ~prior step v in
  let c = weight *. step in
  Array.iteri
    (fun i si ->
      Alcotest.(check bool) "positive" true (si > 0.);
      check_float 1e-6
        (Printf.sprintf "stationarity %d" i)
        0.
        ((c *. log (si /. prior.(i))) +. si -. v.(i)))
    s

let test_kl_divergence () =
  let s = Vec.of_list [ 1.; 0. ] and p = Vec.of_list [ 1.; 2. ] in
  check_float 1e-9 "D" 2. (Proxgrad.kl_divergence s p);
  let q = Vec.of_list [ 2.; 1. ] in
  Alcotest.(check bool) "nonneg" true (Proxgrad.kl_divergence q p >= 0.);
  Alcotest.(check bool) "infinite" true
    (Proxgrad.kl_divergence (Vec.of_list [ 1. ]) (Vec.of_list [ 0. ]) = infinity)

let test_proxgrad_entropy_solution () =
  (* min |x - 3|^2 + 2*KL(x || 1): optimality 2(x-3) + 2 ln x = 0. *)
  let gradient x = Vec.of_list [ 2. *. (x.(0) -. 3.) ] in
  let prior = Vec.of_list [ 1. ] in
  let r =
    Proxgrad.solve ~stop:(Stop.make ~max_iter:500 ~tol:1e-12 ()) ~dim:1 ~gradient
      ~prox:(Proxgrad.kl_prox ~weight:2. ~prior)
      ~lipschitz:2. ()
  in
  let x = r.Proxgrad.x.(0) in
  check_float 1e-6 "stationarity" 0. ((2. *. (x -. 3.)) +. (2. *. log x))

(* ------------------------------------------------------------------ *)
(* Scaling (IPF / GIS)                                                 *)
(* ------------------------------------------------------------------ *)

let test_ipf_matches_marginals () =
  let prior = Mat.of_rows [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let row_sums = Vec.of_list [ 3.; 1. ] in
  let col_sums = Vec.of_list [ 2.; 2. ] in
  let s, rep = Scaling.ipf prior ~row_sums ~col_sums in
  Alcotest.(check bool) "converged" true rep.Scaling.converged;
  check_float 1e-7 "row0" 3. (Vec.sum (Mat.row s 0));
  check_float 1e-7 "col0" 2. (Vec.sum (Mat.col s 0))

let test_ipf_keeps_structural_zeros () =
  let prior = Mat.of_rows [| [| 0.; 1. |]; [| 1.; 1. |] |] in
  let s, _ =
    Scaling.ipf prior ~row_sums:(Vec.of_list [ 1.; 2. ])
      ~col_sums:(Vec.of_list [ 1.5; 1.5 ])
  in
  check_float 1e-12 "zero stays" 0. (Mat.get s 0 0)

let test_gis_solves_constraints () =
  (* R s = t with R the row/col indicator of a 2x2 matrix (vectorized
     [s11; s12; s21; s22]): row sums (2 constraints) + col sums (2). *)
  let r =
    Mat.of_rows
      [|
        [| 1.; 1.; 0.; 0. |];
        [| 0.; 0.; 1.; 1. |];
        [| 1.; 0.; 1.; 0. |];
        [| 0.; 1.; 0.; 1. |];
      |]
  in
  let t = Vec.of_list [ 3.; 1.; 2.; 2. ] in
  let prior = Vec.ones 4 in
  let s, rep = Scaling.gis r t ~prior in
  Alcotest.(check bool) "converged" true rep.Scaling.converged;
  Alcotest.(check bool) "Rs = t" true
    (Vec.equal ~eps:1e-5 (Mat.matvec r s) t)

let test_gis_agrees_with_ipf () =
  let r =
    Mat.of_rows
      [|
        [| 1.; 1.; 0.; 0. |];
        [| 0.; 0.; 1.; 1. |];
        [| 1.; 0.; 1.; 0. |];
        [| 0.; 1.; 0.; 1. |];
      |]
  in
  let t = Vec.of_list [ 3.; 1.; 2.; 2. ] in
  let prior_v = Vec.of_list [ 1.; 2.; 2.; 1. ] in
  let s, _ = Scaling.gis r t ~prior:prior_v in
  let prior_m = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  let m, _ =
    Scaling.ipf prior_m ~row_sums:(Vec.of_list [ 3.; 1. ])
      ~col_sums:(Vec.of_list [ 2.; 2. ])
  in
  check_float 1e-4 "s11" (Mat.get m 0 0) s.(0);
  check_float 1e-4 "s22" (Mat.get m 1 1) s.(3)


(* ------------------------------------------------------------------ *)
(* Projections                                                         *)
(* ------------------------------------------------------------------ *)

let test_simplex_projection_known () =
  let v = Vec.of_list [ 0.8; 0.6 ] in
  let p = Projections.simplex v in
  check_float 1e-9 "sums to 1" 1. (Vec.sum p);
  check_float 1e-9 "x0" 0.6 p.(0);
  check_float 1e-9 "x1" 0.4 p.(1)

let test_simplex_projection_clips () =
  let v = Vec.of_list [ 2.; -5.; 0.1 ] in
  let p = Projections.simplex v in
  check_float 1e-9 "sums to 1" 1. (Vec.sum p);
  check_float 1e-9 "negative clipped" 0. p.(1)

let test_simplex_projection_total () =
  let v = Vec.of_list [ 1.; 2.; 3. ] in
  let p = Projections.simplex ~total:12. v in
  check_float 1e-9 "sum" 12. (Vec.sum p);
  (* Interior case: projection just shifts by a constant. *)
  check_float 1e-9 "shift" (p.(1) -. p.(0)) 1.

let test_block_simplex () =
  let block = [| 0; 1; 0; 1 |] in
  let v = Vec.of_list [ 0.9; 5.; 0.5; -1. ] in
  let p = Projections.block_simplex ~block v in
  check_float 1e-9 "block 0 sum" 1. (p.(0) +. p.(2));
  check_float 1e-9 "block 1 sum" 1. (p.(1) +. p.(3));
  check_float 1e-9 "block 1 clip" 0. p.(3)

let prop_simplex_projection_optimal =
  (* The projection must be at least as close to v as any random simplex
     point. *)
  QCheck.Test.make ~name:"simplex projection is closest point" ~count:100
    (QCheck.pair
       (QCheck.array_of_size (QCheck.Gen.return 5) (QCheck.float_range (-3.) 3.))
       (QCheck.array_of_size (QCheck.Gen.return 5)
          (QCheck.float_range 0.01 1.)))
    (fun (v, w) ->
      let p = Projections.simplex v in
      let total = Array.fold_left ( +. ) 0. w in
      let q = Array.map (fun x -> x /. total) w in
      abs_float (Vec.sum p -. 1.) < 1e-9
      && Array.for_all (fun x -> x >= 0.) p
      && Vec.dist2 p v <= Vec.dist2 q v +. 1e-9)


(* ------------------------------------------------------------------ *)
(* Conjugate gradients                                                 *)
(* ------------------------------------------------------------------ *)

let test_cg_matches_cholesky () =
  let a = Mat.add (Mat.gram (Mat.of_rows [| [| 1.; 2.; 0. |]; [| 0.; 1.; 3. |] |])) (Mat.identity 3) in
  let b = Vec.of_list [ 1.; -2.; 0.5 ] in
  let r = Cg.solve_mat a b in
  let x_chol = Chol.solve_system a b in
  Alcotest.(check bool) "converged" true r.Cg.converged;
  Alcotest.(check bool) "matches cholesky" true
    (Vec.equal ~eps:1e-7 r.Cg.x x_chol)

let test_cg_exact_in_n_steps () =
  (* CG on an n-dimensional SPD system converges in at most n steps. *)
  let a = Mat.diag (Vec.of_list [ 1.; 10.; 100.; 1000. ]) in
  let b = Vec.ones 4 in
  let r = Cg.solve_mat ~stop:(Stop.make ~tol:1e-12 ()) a b in
  Alcotest.(check bool) "few iterations" true (r.Cg.iterations <= 5);
  check_float 1e-9 "x3" 1e-3 r.Cg.x.(3)

let test_cg_operator_form () =
  let apply v = Vec.mapi (fun i x -> (float_of_int (i + 1)) *. x) v in
  let b = Vec.of_list [ 2.; 6.; 12. ] in
  let r = Cg.solve ~apply ~b () in
  Alcotest.(check bool) "solution" true
    (Vec.equal ~eps:1e-8 r.Cg.x (Vec.of_list [ 2.; 3.; 4. ]))

(* Least squares through the normal equations MᵀM x = Mᵀb — the shape
   of the system Degrade's repair hands to CG. *)
let test_cg_normal_equations () =
  let m = Mat.of_rows [| [| 1.; 0. |]; [| 1.; 1. |]; [| 1.; 2. |] |] in
  let b = Vec.of_list [ 1.; 3.; 5. ] in
  let r =
    Cg.solve
      ~apply:(fun v -> Mat.tmatvec m (Mat.matvec m v))
      ~b:(Mat.tmatvec m b) ()
  in
  let x_qr = Qr.solve_lstsq m b in
  Alcotest.(check bool) "matches QR least squares" true
    (Vec.equal ~eps:1e-7 r.Cg.x x_qr)

let prop_cg_residual_decreases =
  QCheck.Test.make ~name:"cg solves SPD systems" ~count:40
    (QCheck.array_of_size (QCheck.Gen.return 9) (QCheck.float_range (-2.) 2.))
    (fun data ->
      let m = Mat.init 3 3 (fun i j -> data.((i * 3) + j)) in
      let a = Mat.add (Mat.gram m) (Mat.identity 3) in
      let b = Vec.of_list [ 1.; 2.; 3. ] in
      let r = Cg.solve_mat a b in
      r.Cg.residual_norm <= 1e-6 *. Vec.norm2 b)


(* ------------------------------------------------------------------ *)
(* Error-path contracts                                                *)
(* ------------------------------------------------------------------ *)

let expect_invalid f =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let test_error_contracts () =
  expect_invalid (fun () -> Fista.solve ~dim:2 ~gradient:(fun v -> v) ~lipschitz:0. ());
  expect_invalid (fun () ->
      Proxgrad.kl_prox ~weight:(-1.) ~prior:(Vec.ones 1) 0.1 (Vec.ones 1));
  expect_invalid (fun () -> Projections.simplex ~total:0. (Vec.ones 2));
  expect_invalid (fun () -> Projections.simplex (Vec.zeros 0));
  expect_invalid (fun () ->
      Projections.block_simplex ~block:[| 0 |] (Vec.ones 2));
  expect_invalid (fun () ->
      Scaling.ipf (Mat.identity 2) ~row_sums:(Vec.ones 3)
        ~col_sums:(Vec.ones 2));
  expect_invalid (fun () ->
      Scaling.gis (Mat.of_rows [| [| -1. |] |]) (Vec.ones 1)
        ~prior:(Vec.ones 1));
  expect_invalid (fun () -> Cg.solve_mat (Mat.zeros 2 3) (Vec.ones 2));
  expect_invalid (fun () ->
      Simplex.minimize (Simplex.make (Mat.identity 2) (Vec.ones 2))
        (Vec.ones 3))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_simplex_weak_duality; prop_nnls_beats_clipped_ls;
      prop_simplex_projection_optimal; prop_cg_residual_decreases ]

let () =
  Alcotest.run "opt"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic max" `Quick test_simplex_basic_max;
          Alcotest.test_case "basic min" `Quick test_simplex_basic_min;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "warm restart" `Quick test_simplex_warm_restart;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "redundant rows" `Quick
            test_simplex_redundant_rows;
          Alcotest.test_case "bounds via equalities" `Quick
            test_simplex_equality_route;
        ] );
      ( "nnls",
        [
          Alcotest.test_case "interior" `Quick test_nnls_unconstrained_interior;
          Alcotest.test_case "active bound" `Quick test_nnls_active_bound;
          Alcotest.test_case "kkt" `Quick test_nnls_kkt;
        ] );
      ( "fista",
        [
          Alcotest.test_case "matches nnls" `Quick test_fista_matches_nnls;
          Alcotest.test_case "projection" `Quick test_fista_simple_projection;
          Alcotest.test_case "lipschitz estimate" `Quick
            test_lipschitz_estimate;
        ] );
      ( "proxgrad",
        [
          Alcotest.test_case "kl prox fixed point" `Quick
            test_kl_prox_identity_at_prior;
          Alcotest.test_case "kl prox closed form" `Quick
            test_kl_prox_closed_form;
          Alcotest.test_case "kl divergence" `Quick test_kl_divergence;
          Alcotest.test_case "entropy solution" `Quick
            test_proxgrad_entropy_solution;
        ] );
      ( "cg",
        [
          Alcotest.test_case "matches cholesky" `Quick test_cg_matches_cholesky;
          Alcotest.test_case "n-step exact" `Quick test_cg_exact_in_n_steps;
          Alcotest.test_case "operator form" `Quick test_cg_operator_form;
          Alcotest.test_case "normal equations" `Quick test_cg_normal_equations;
        ] );
      ( "projections",
        [
          Alcotest.test_case "known values" `Quick
            test_simplex_projection_known;
          Alcotest.test_case "clips negatives" `Quick
            test_simplex_projection_clips;
          Alcotest.test_case "custom total" `Quick
            test_simplex_projection_total;
          Alcotest.test_case "blocks" `Quick test_block_simplex;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "ipf marginals" `Quick test_ipf_matches_marginals;
          Alcotest.test_case "ipf zeros" `Quick test_ipf_keeps_structural_zeros;
          Alcotest.test_case "gis constraints" `Quick test_gis_solves_constraints;
          Alcotest.test_case "gis = ipf" `Quick test_gis_agrees_with_ipf;
        ] );
      ( "error-contracts",
        [ Alcotest.test_case "invalid inputs rejected" `Quick
            test_error_contracts ] );
      ("properties", qcheck_cases);
    ]
