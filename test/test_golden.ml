(* Golden regression: per-method MRE on the seeded full-scale Europe
   problem, pinned to 1e-9.  The same constants must hold at pool sizes
   1, 2 and 4 — the solver stack promises bit-identical results at
   every job count, so any drift here is either a numerical regression
   or a broken determinism invariant.  The bit-identity case asserts
   the stronger form directly: Int64-identical estimates on the
   reference busy window across all three job counts.

   Regenerate after an intentional numerical change with:
     GOLDEN_PRINT=1 dune exec test/test_golden.exe *)

module Mat = Tmest_linalg.Mat
module Core = Tmest_core
module Pool = Tmest_parallel.Pool
module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec

let goldens =
  [
    ("gravity", 0.27738950303982757);
    ("kruithof", 0.18748744357310587);
    ("entropy", 0.078707193965058);
    ("bayes", 0.16582487109346156);
    ("wcb", 0.26419235520861623);
    ("fanout", 0.3537328906472631);
    ("vardi", 0.9503596697622243);
    ("cao", 0.65832782533456269);
    ("tomogravity_iter", 0.074961900565772219);
    ("cumulant", 0.28729125637895636);
    ("mcmc_int", 0.17422869778303313);
  ]

let solve_all ~jobs =
  let d = Dataset.europe () in
  let pool = Pool.create ~jobs in
  let ws = Core.Workspace.create ~pool d.Dataset.routing in
  let spec = d.Dataset.spec in
  let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
  let truth = Dataset.demand_at d k in
  let busy_truth = Dataset.busy_mean_demand d in
  let loads = Dataset.link_loads_at d k in
  let samples = Dataset.busy_load_samples d ~window:10 in
  List.map
    (fun name ->
      let m = Core.Estimator.of_name name in
      let estimate = Core.Estimator.solve m ws ~loads ~load_samples:samples in
      let reference =
        if Core.Estimator.uses_time_series m then busy_truth else truth
      in
      (name, estimate, reference))
    (Core.Estimator.all_names ())

let mres ~jobs =
  List.map
    (fun (name, estimate, reference) ->
      (name, Core.Metrics.mre ~truth:reference ~estimate ()))
    (solve_all ~jobs)

(* The determinism contract asserted at the bit level: every method's
   estimate on the reference busy window is Int64-identical at jobs 1,
   2 and 4.  Stronger than the 1e-9 MRE pins above, which would let a
   reordered parallel reduction slip through as long as it stayed
   small. *)
let bit_identity () =
  let base = solve_all ~jobs:1 in
  List.iter
    (fun jobs ->
      List.iter2
        (fun (name, e1, _) (name', ej, _) ->
          Alcotest.(check string) "method order" name name';
          Array.iteri
            (fun i x ->
              if Int64.bits_of_float x <> Int64.bits_of_float ej.(i) then
                Alcotest.failf
                  "%s: pair %d differs between jobs=1 and jobs=%d (%h vs %h)"
                  name i jobs x ej.(i))
            e1)
        base (solve_all ~jobs))
    [ 2; 4 ]

let check_against ~jobs () =
  List.iter2
    (fun (name, expected) (name', got) ->
      Alcotest.(check string) "method order" name name';
      Alcotest.(check (float 1e-9)) name expected got)
    goldens (mres ~jobs)

(* Sparse-vs-dense identity: Europe sits far below the sparse gate, so
   forcing sparse mode runs every matrix-free branch (operator normal
   equations, Z-factor gram-square, power-iteration Lipschitz) on a
   problem where dense mode provides the reference.  A method with no
   dense branch of its own runs the same operators in both modes and
   must return an Int64-identical estimate.  Cao and fanout keep a
   dense fast path (a dense Gram, gram-square and Gram-norm; a dense
   per-window Hessian) whose summation order differs in the last bits,
   so they are held to the same MRE to 1e-9 instead.  The LP-based
   bounds are a documented dense-only exclusion and must refuse. *)
let dense_forks = [ "cao"; "fanout" ]

let sparse_vs_dense ~jobs () =
  let d = Dataset.europe () in
  let pool = Pool.create ~jobs in
  let spec = d.Dataset.spec in
  let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
  let truth = Dataset.demand_at d k in
  let busy_truth = Dataset.busy_mean_demand d in
  let loads = Dataset.link_loads_at d k in
  let samples = Dataset.busy_load_samples d ~window:10 in
  let dense = Core.Workspace.create ~pool d.Dataset.routing in
  let sparse =
    Core.Workspace.create ~pool ~mode:Core.Workspace.Sparse d.Dataset.routing
  in
  Alcotest.(check bool) "mode forced" true (Core.Workspace.is_sparse sparse);
  (* Precond_auto resolves differently per mode (Jacobi when sparse,
     none when dense), which would make this comparison test two
     different iterations paths; pin preconditioning off so the two
     modes run the same algorithm.  The preconditioned sparse path gets
     its own goldens in test_precond.ml. *)
  let opts =
    Core.Estimator.Options.make ~precond:Core.Workspace.Precond_none ()
  in
  List.iter
    (fun name ->
      let m = Core.Estimator.of_name name in
      let reference =
        if Core.Estimator.uses_time_series m then busy_truth else truth
      in
      let solve ws =
        Core.Estimator.solve ~opts m ws ~loads ~load_samples:samples
      in
      let mre ws = Core.Metrics.mre ~truth:reference ~estimate:(solve ws) () in
      if not (Core.Estimator.supports_sparse m) then
        match solve sparse with
        | _ -> Alcotest.failf "%s must refuse on a sparse-mode workspace" name
        | exception Invalid_argument _ -> ()
      else if List.mem name dense_forks then
        Alcotest.(check (float 1e-9)) name (mre dense) (mre sparse)
      else
        let e_dense = solve dense and e_sparse = solve sparse in
        Array.iteri
          (fun i x ->
            if Int64.bits_of_float x <> Int64.bits_of_float e_sparse.(i) then
              Alcotest.failf
                "%s: pair %d differs between dense and sparse (%h vs %h)" name
                i x e_sparse.(i))
          e_dense)
    (Core.Estimator.all_names ())

(* Scan-API pins: the refactor collapsing the old [scan_busy] /
   [busy_loads] / [replay] entry points into [Ctx.Scan] promised bit
   identity with what they produced.  Each constant is an FNV-style
   hash over the full result series — snapshot keys and every
   estimate's IEEE-754 bit pattern — so a single flipped bit anywhere
   in a scan fails the pin.  Cold scans and the window matrix must
   hash identically at every pool size; the warm cao scan is pinned
   per job count, because warm chains are per-chunk by design and the
   chunk layout (hence cao's path-dependent line search) legitimately
   differs with the pool size. *)
module Ctx = Tmest_experiments.Ctx

let fnv acc v = Int64.add (Int64.mul acc 0x100000001b3L) v

let scan_hash results =
  List.fold_left
    (fun acc (k, est) ->
      Array.fold_left
        (fun acc v -> fnv acc (Int64.bits_of_float v))
        (fnv acc (Int64.of_int k))
        est)
    0xcbf29ce484222325L results

let mat_hash m =
  let acc = ref 0xcbf29ce484222325L in
  for i = 0 to Mat.rows m - 1 do
    for j = 0 to Mat.cols m - 1 do
      acc := fnv !acc (Int64.bits_of_float (Mat.get m i j))
    done
  done;
  !acc

(* The same per-snapshot load series a [Busy { window = 5; steps = 3 }]
   source compiles internally, as an explicit vector array — the
   [Windows] source fed with it must produce bit-identical estimates
   (only the snapshot labels differ: window-end positions instead of
   dataset sample indices). *)
let busy_series d ~window ~steps =
  let ks = Array.of_list (Dataset.busy_samples d) in
  let base = Array.length ks - steps - window + 1 in
  Array.init (steps + window - 1) (fun j -> Dataset.link_loads_at d ks.(base + j))

let scan_hashes ~jobs =
  let ctx = Ctx.create ~fast:true ~jobs () in
  let net = ctx.Ctx.europe in
  let run ?opts ?tag source est =
    Ctx.Scan.run net
      (Core.Estimator.of_name est)
      (Ctx.Scan.make ?opts ?tag source)
  in
  let warm = Core.Estimator.Options.make ~warm:true () in
  [
    ( "scan-cold-cao",
      scan_hash (run (Ctx.Scan.Busy { window = 5; steps = 3 }) "cao") );
    ( "scan-cold-entropy",
      scan_hash (run (Ctx.Scan.Busy { window = 5; steps = 3 }) "entropy") );
    ( "scan-warm-cao",
      scan_hash
        (run ~opts:warm ~tag:"probe"
           (Ctx.Scan.Busy { window = 5; steps = 4 })
           "cao") );
    ( "replay-cold-cao",
      scan_hash (run (Ctx.Scan.Replay { window = 5; windows = 4 }) "cao") );
    ( "windows-cold-cao",
      scan_hash
        (run
           (Ctx.Scan.Windows
              {
                window = 5;
                loads = busy_series net.Ctx.dataset ~window:5 ~steps:3;
              })
           "cao") );
    ("samples-w4", mat_hash (Ctx.Scan.samples net ~window:4));
  ]

let scan_goldens ~jobs =
  [
    ("scan-cold-cao", 0xaf7c4825285e0550L);
    ("scan-cold-entropy", 0xa0313d41e5379041L);
    ( "scan-warm-cao",
      if jobs = 1 then 0x595c7502c6191338L else 0xf2314abce0aaa86aL );
    ("replay-cold-cao", 0xe40cc54a8e85ea82L);
    ("windows-cold-cao", 0x4d59991207fc3f45L);
    ("samples-w4", 0x15624626cc596205L);
  ]

(* Semantic coverage for the [Windows] source beyond the hash pin: fed
   with exactly the series a [Busy] source compiles, the estimates must
   be bit-identical window for window — only the snapshot labels
   change (window-end offsets instead of dataset sample indices). *)
let windows_matches_busy () =
  let ctx = Ctx.create ~fast:true ~jobs:1 () in
  let net = ctx.Ctx.europe in
  let window = 5 and steps = 3 in
  let est = Core.Estimator.of_name "cao" in
  let busy =
    Ctx.Scan.run net est (Ctx.Scan.make (Ctx.Scan.Busy { window; steps }))
  in
  let win =
    Ctx.Scan.run net est
      (Ctx.Scan.make
         (Ctx.Scan.Windows
            { window; loads = busy_series net.Ctx.dataset ~window ~steps }))
  in
  Alcotest.(check int) "scan length" (List.length busy) (List.length win);
  List.iteri
    (fun i ((_, eb), (kw, ew)) ->
      Alcotest.(check int) "windows snapshot label" (i + window - 1) kw;
      Array.iteri
        (fun j x ->
          if Int64.bits_of_float x <> Int64.bits_of_float ew.(j) then
            Alcotest.failf "windows vs busy: pair %d differs at step %d" j i)
        eb)
    (List.combine busy win)

let check_scan ~jobs () =
  List.iter2
    (fun (name, expected) (name', got) ->
      Alcotest.(check string) "scan order" name name';
      if got <> expected then
        Alcotest.failf "%s (jobs=%d): hash %016Lx, pinned %016Lx" name jobs got
          expected)
    (scan_goldens ~jobs) (scan_hashes ~jobs)

let () =
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    List.iter
      (fun (name, v) -> Printf.printf "    (%S, %.17g);\n" name v)
      (mres ~jobs:1);
    List.iter
      (fun jobs ->
        Printf.printf "  scan jobs=%d:\n" jobs;
        List.iter
          (fun (name, h) -> Printf.printf "    (%S, 0x%016LxL);\n" name h)
          (scan_hashes ~jobs))
      [ 1; 2 ];
    exit 0
  end;
  Alcotest.run "golden"
    [
      ( "europe",
        [
          Alcotest.test_case "jobs=1" `Quick (check_against ~jobs:1);
          Alcotest.test_case "jobs=2" `Quick (check_against ~jobs:2);
          Alcotest.test_case "jobs=4" `Quick (check_against ~jobs:4);
          Alcotest.test_case "bit-identical across jobs" `Quick bit_identity;
        ] );
      ( "sparse-vs-dense",
        [
          Alcotest.test_case "jobs=1" `Quick (sparse_vs_dense ~jobs:1);
          Alcotest.test_case "jobs=2" `Quick (sparse_vs_dense ~jobs:2);
          Alcotest.test_case "jobs=4" `Quick (sparse_vs_dense ~jobs:4);
        ] );
      ( "scan",
        [
          Alcotest.test_case "jobs=1" `Quick (check_scan ~jobs:1);
          Alcotest.test_case "jobs=2" `Quick (check_scan ~jobs:2);
          Alcotest.test_case "windows source matches busy" `Quick
            windows_matches_busy;
        ] );
    ]
