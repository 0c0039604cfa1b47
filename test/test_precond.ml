(* Preconditioner stack: the exact Gram diagonal every Jacobi metric is
   built from, the [Precond_auto] resolution policy, and the
   Jacobi-preconditioned golden MREs at jobs = 1 and 2.

   Regenerate the Jacobi goldens after an intentional numerical change
   with:  PRECOND_PRINT=1 dune exec test/test_precond.exe *)

module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Csr = Tmest_linalg.Csr
module Rng = Tmest_stats.Rng
module Core = Tmest_core
module Workspace = Tmest_core.Workspace
module Pool = Tmest_parallel.Pool
module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec

let check_float = Alcotest.(check (float 1e-9))

(* --------------------------------------------------- gram diagonal *)

let random_csr rng ~rows ~cols =
  let entries = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Rng.float rng < 0.3 then
        entries := (i, j, Rng.uniform rng ~lo:(-2.) ~hi:2.) :: !entries
    done
  done;
  (* Keep every column populated so no diagonal entry is trivially 0. *)
  for j = 0 to cols - 1 do
    entries := (Rng.int rng rows, j, 1.) :: !entries
  done;
  Csr.of_triplets ~rows ~cols !entries

let dense_gram_diag m =
  let g = Mat.gram (Csr.to_dense m) in
  Vec.init (Csr.cols m) (fun i -> Mat.get g i i)

let check_diag label want got =
  Alcotest.(check int) (label ^ " length") (Vec.dim want) (Vec.dim got);
  Array.iteri (fun i wi -> check_float label wi got.(i)) want

(* [Workspace.gram_diag] — one O(nnz) pass of [Csr.col_sq_norms] —
   against the diagonal of the dense RᵀR, on the production path in
   both solver modes. *)
let gram_diagonal () =
  let rng = Rng.create 42 in
  let m = random_csr rng ~rows:23 ~cols:17 in
  check_diag "col_sq_norms" (dense_gram_diag m) (Csr.col_sq_norms m);
  let d = Dataset.europe () in
  let routing = d.Dataset.routing in
  let dense = Workspace.create ~mode:Workspace.Dense routing in
  let g = Workspace.gram dense in
  check_diag "dense workspace"
    (Vec.init (Mat.rows g) (fun i -> Mat.get g i i))
    (Workspace.gram_diag dense);
  let sparse = Workspace.create ~mode:Workspace.Sparse routing in
  Alcotest.(check bool) "forced sparse" true (Workspace.is_sparse sparse);
  check_diag "sparse workspace"
    (dense_gram_diag routing.Tmest_net.Routing.matrix)
    (Workspace.gram_diag sparse)

(* ------------------------------------------------------ auto policy *)

let europe_problem () =
  let d = Dataset.europe () in
  let spec = d.Dataset.spec in
  let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
  (d, k, Dataset.link_loads_at d k, Dataset.busy_load_samples d ~window:10)

(* [Precond_auto] pinned bit for bit against the explicit kinds it
   must resolve to: Jacobi for the quadratic solvers on a sparse
   workspace, none for entropy/fanout there, and none for all six on a
   dense one. *)
let auto_policy () =
  let d, _, loads, samples = europe_problem () in
  let solve ws name precond =
    let opts = Core.Estimator.Options.make ~precond () in
    Core.Estimator.solve ~opts (Core.Estimator.of_name name) ws ~loads
      ~load_samples:samples
  in
  let same label a b =
    Alcotest.(check int) (label ^ " length") (Vec.dim a) (Vec.dim b);
    Alcotest.(check bool) label true
      (Array.for_all2
         (fun x y ->
           Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b)
  in
  let tag = function Workspace.Precond_jacobi -> "jacobi" | _ -> "none" in
  let check mode expected =
    let ws = Workspace.create ~mode d.Dataset.routing in
    List.iter
      (fun (name, kind) ->
        same
          (Printf.sprintf "%s auto = %s" name (tag kind))
          (solve ws name kind)
          (solve ws name Workspace.Precond_auto))
      expected
  in
  let jacobi = Workspace.Precond_jacobi and none = Workspace.Precond_none in
  check Workspace.Sparse
    [
      ("bayes", jacobi); ("vardi", jacobi); ("cao", jacobi);
      ("cumulant", jacobi); ("entropy", none); ("fanout", none);
    ];
  check Workspace.Dense
    (List.map
       (fun name -> (name, none))
       [ "bayes"; "vardi"; "cao"; "cumulant"; "entropy"; "fanout" ])

(* --------------------------------------- jacobi goldens, jobs = 1/2 *)

(* MRE per iterative method on the forced-sparse Europe problem with
   [Precond_jacobi] pinned — the preconditioned twin of the
   sparse-vs-dense golden in test_golden.ml.  Gravity/kruithof/wcb take
   no preconditioner and stay covered there. *)
let jacobi_goldens =
  [
    ("entropy", 0.078707155686765257);
    ("bayes", 0.16582693126765483);
    ("fanout", 0.41683301808442674);
    ("vardi", 0.95035966982391817);
    ("cao", 0.65832665616676667);
  ]

let jacobi_mres ~jobs =
  let d, k, loads, samples = europe_problem () in
  let pool = Pool.create ~jobs in
  let ws =
    Workspace.create ~pool ~mode:Workspace.Sparse d.Dataset.routing
  in
  let truth = Dataset.demand_at d k in
  let busy_truth = Dataset.busy_mean_demand d in
  let opts =
    Core.Estimator.Options.make ~precond:Workspace.Precond_jacobi ()
  in
  List.map
    (fun (name, _) ->
      let m = Core.Estimator.of_name name in
      let estimate = Core.Estimator.solve ~opts m ws ~loads ~load_samples:samples in
      let reference =
        if Core.Estimator.uses_time_series m then busy_truth else truth
      in
      (name, Core.Metrics.mre ~truth:reference ~estimate ()))
    jacobi_goldens

let jacobi_golden ~jobs () =
  List.iter2
    (fun (name, expected) (name', got) ->
      Alcotest.(check string) "method order" name name';
      check_float name expected got)
    jacobi_goldens (jacobi_mres ~jobs)

let jacobi_bit_identical () =
  List.iter2
    (fun (name, one) (_, two) ->
      Alcotest.(check bool)
        (name ^ " jobs=1 = jobs=2") true
        (Int64.equal (Int64.bits_of_float one) (Int64.bits_of_float two)))
    (jacobi_mres ~jobs:1) (jacobi_mres ~jobs:2)

let () =
  if Sys.getenv_opt "PRECOND_PRINT" <> None then begin
    List.iter
      (fun (name, v) -> Printf.printf "    (%S, %.17g);\n" name v)
      (jacobi_mres ~jobs:1);
    exit 0
  end;
  Alcotest.run "precond"
    [
      ( "operators",
        [ Alcotest.test_case "exact diagonals" `Quick gram_diagonal ] );
      ( "policy",
        [ Alcotest.test_case "auto resolution" `Quick auto_policy ] );
      ( "golden",
        [
          Alcotest.test_case "jacobi jobs=1" `Quick (jacobi_golden ~jobs:1);
          Alcotest.test_case "jacobi jobs=2" `Quick (jacobi_golden ~jobs:2);
          Alcotest.test_case "jacobi bit-identical" `Quick
            jacobi_bit_identical;
        ] );
    ]
