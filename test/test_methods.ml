(* Method-conformance harness: every estimator in the registry — old
   and new alike — runs through one shared battery of contracts, so a
   method added to [Estimator.all_names] is enrolled here with zero
   test changes:

   - bit-identical estimates at pool sizes 1, 2 and 4;
   - bit-identical solve through a [?degrade] policy on clean inputs;
   - sparse-vs-dense MRE agreement to 1e-9, or an asserted refusal
     exactly for the methods [Estimator.supports_sparse] rules out;
   - a warm-started re-solve of the identical problem lands back on
     the cold answer: bit-identical for methods without a warm key,
     within solver tolerance for the iterative ones;
   - randomized load-consistent problems keep every estimate finite,
     non-negative and correctly sized (Prop).

   The newcomers suite pins the MRE of the three latest methods on
   both paper-scale datasets (the Europe pins must stay equal to the
   per-method constants in test_golden.ml, which cover the full
   registry there), and asserts the headline accuracy claim: iterated
   tomogravity strictly beats the one-shot Kruithof adjustment on both
   networks.  Regenerate after an intentional numerical change with:
     METHODS_PRINT=1 dune exec test/test_methods.exe *)

module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Core = Tmest_core
module Pool = Tmest_parallel.Pool
module Routing = Tmest_net.Routing
module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec

let all_names () = Core.Estimator.all_names ()

let small_spec =
  { (Spec.scaled ~nodes:6 ~directed_links:28 Spec.europe) with Spec.seed = 7 }

let small = lazy (Dataset.generate small_spec)
let window = 10

(* The reference problem on a dataset: busy-period midpoint snapshot
   plus the trailing busy window as the sample matrix — the same
   inputs the golden suite solves. *)
let inputs d =
  let spec = d.Dataset.spec in
  let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
  let loads = Dataset.link_loads_at d k in
  (loads, Dataset.busy_load_samples d ~window)

let solve ?opts ?pool ?mode m d =
  let ws = Core.Workspace.create ?pool ?mode d.Dataset.routing in
  let loads, samples = inputs d in
  Core.Estimator.solve ?opts m ws ~loads ~load_samples:samples

let bits_equal u v =
  Array.length u = Array.length v
  && Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       u v

(* ------------------------------------------------------------------ *)
(* Determinism across pool sizes                                       *)
(* ------------------------------------------------------------------ *)

let test_jobs_bit_identity () =
  let d = Lazy.force small in
  List.iter
    (fun name ->
      let m = Core.Estimator.of_name name in
      let at jobs = solve ~pool:(Pool.create ~jobs) m d in
      let base = at 1 in
      List.iter
        (fun jobs ->
          let e = at jobs in
          Array.iteri
            (fun i x ->
              if Int64.bits_of_float x <> Int64.bits_of_float e.(i) then
                Alcotest.failf
                  "%s: pair %d differs between jobs=1 and jobs=%d (%h vs %h)"
                  name i jobs x e.(i))
            base)
        [ 2; 4 ])
    (all_names ())

(* ------------------------------------------------------------------ *)
(* Degraded-mode no-op on clean inputs                                 *)
(* ------------------------------------------------------------------ *)

let test_degrade_clean_bit_identity () =
  let d = Lazy.force small in
  let opts = Core.Estimator.Options.make ~degrade:Core.Degrade.default () in
  List.iter
    (fun name ->
      let m = Core.Estimator.of_name name in
      Alcotest.(check bool)
        (name ^ " clean degrade is bit-identical")
        true
        (bits_equal (solve m d) (solve ~opts m d)))
    (all_names ())

(* ------------------------------------------------------------------ *)
(* Sparse-vs-dense agreement, refusal iff dense-only                   *)
(* ------------------------------------------------------------------ *)

let test_sparse_dense_agreement () =
  let d = Lazy.force small in
  (* Precond_auto resolves to Jacobi only in sparse mode, which would
     compare two different iteration paths; pin it off (the sparse
     preconditioned path has its own goldens in test_precond.ml). *)
  let opts =
    Core.Estimator.Options.make ~precond:Core.Workspace.Precond_none ()
  in
  let truth, busy_truth =
    let spec = d.Dataset.spec in
    let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
    (Dataset.demand_at d k, Dataset.busy_mean_demand d)
  in
  List.iter
    (fun name ->
      let m = Core.Estimator.of_name name in
      let reference =
        if Core.Estimator.uses_time_series m then busy_truth else truth
      in
      let mre mode =
        let estimate = solve ~opts ?mode m d in
        Core.Metrics.mre ~truth:reference ~estimate ()
      in
      if Core.Estimator.supports_sparse m then
        Alcotest.(check (float 1e-9))
          (name ^ " sparse = dense") (mre None)
          (mre (Some Core.Workspace.Sparse))
      else
        match mre (Some Core.Workspace.Sparse) with
        | _ ->
            Alcotest.failf "%s: dense-only method ran on a sparse workspace"
              name
        | exception Invalid_argument _ -> ())
    (all_names ())

(* ------------------------------------------------------------------ *)
(* Warm-started re-solve lands on the cold answer                      *)
(* ------------------------------------------------------------------ *)

(* Relative L2 deviation allowed between the cold solve and a warm
   re-solve of the identical problem.  Methods absent from this table
   have no warm key ([warm:true] is a no-op) or are deterministic in
   their seed, so they must reproduce the cold answer bit for bit.
   The iterative entries mirror test_warmstart.ml: strictly convex
   objectives re-converge tightly, fanout's block-simplex problem is
   flatter, and cao's non-convex line search is path-dependent. *)
let warm_tolerances =
  [
    ("entropy", 1e-4);
    ("bayes", 1e-3);
    ("vardi", 1e-8);
    ("fanout", 1e-1);
    ("cao", 5e-1);
    ("cumulant", 1e-3);
  ]

let rel_dist a b = Vec.dist2 a b /. (1. +. Vec.norm2 a)

let test_warm_matches_cold () =
  let d = Lazy.force small in
  List.iter
    (fun name ->
      let m = Core.Estimator.of_name name in
      (* One shared workspace per method: the first warm solve misses
         the cache (cold path) and stores its solution; the second
         re-converges from that stored optimum. *)
      let ws = Core.Workspace.create d.Dataset.routing in
      let loads, samples = inputs d in
      let run warm =
        Core.Estimator.solve
          ~opts:(Core.Estimator.Options.make ~warm ())
          m ws ~loads ~load_samples:samples
      in
      let cold = run false in
      ignore (run true);
      let again = run true in
      match List.assoc_opt name warm_tolerances with
      | None ->
          Alcotest.(check bool)
            (name ^ " warm re-solve is bit-identical")
            true (bits_equal cold again)
      | Some tol ->
          let dv = rel_dist cold again in
          if not (dv <= tol) then
            Alcotest.failf "%s: warm re-solve deviates by %.3e (> %.0e)" name
              dv tol)
    (all_names ())

(* ------------------------------------------------------------------ *)
(* Randomized load-consistent problems (Prop)                          *)
(* ------------------------------------------------------------------ *)

(* Demands jittered around the dataset's busy snapshot, loads derived
   through the routing matrix, sample rows rescaled copies: every
   input is exactly load-consistent, so each method must return a
   finite non-negative vector of the right dimension — no LP
   infeasibility, no NaN leakage from a moment system, no negative
   overshoot past the projection. *)
let test_random_problems_valid () =
  let d = Lazy.force small in
  let routing = d.Dataset.routing in
  let p = Dataset.num_pairs d in
  let spec = d.Dataset.spec in
  let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
  let base = Dataset.demand_at d k in
  let gen rng =
    let scale = Prop.float_in ~lo:0.5 ~hi:2.0 rng in
    let jitter = Prop.vec ~lo:0.8 ~hi:1.2 p rng in
    let rows = Prop.vec ~lo:0.9 ~hi:1.1 window rng in
    (scale, jitter, rows)
  in
  let pp (scale, _, _) = Printf.sprintf "scale=%.3f" scale in
  Prop.run ~count:4 ~seed:23 ~name:"estimates valid" ~pp gen
    (fun (scale, jitter, rows) ->
      let s = Vec.init p (fun i -> scale *. jitter.(i) *. base.(i)) in
      let loads = Routing.link_loads routing s in
      let samples =
        Mat.init window (Array.length loads) (fun i j ->
            rows.(i) *. loads.(j))
      in
      List.for_all
        (fun name ->
          let m = Core.Estimator.of_name name in
          let ws = Core.Workspace.create routing in
          let e = Core.Estimator.solve m ws ~loads ~load_samples:samples in
          Array.length e = p
          && Array.for_all (fun x -> Float.is_finite x && x >= -1e-6) e)
        (all_names ()))

(* ------------------------------------------------------------------ *)
(* Newcomer golden pins, Europe and America                            *)
(* ------------------------------------------------------------------ *)

let newcomer_goldens =
  [
    ( "europe",
      [
        ("tomogravity_iter", 0.074961900565772219);
        ("cumulant", 0.28729125637895636);
        ("mcmc_int", 0.17422869778303313);
      ] );
    ( "america",
      [
        ("tomogravity_iter", 0.29598219645505419);
        ("cumulant", 0.50527877095850493);
        ("mcmc_int", 0.45799797033911072);
      ] );
  ]

let dataset_of = function
  | "europe" -> Dataset.europe ()
  | "america" -> Dataset.america ()
  | n -> invalid_arg n

let newcomer_mres network =
  let d = dataset_of network in
  let truth, busy_truth =
    let spec = d.Dataset.spec in
    let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
    (Dataset.demand_at d k, Dataset.busy_mean_demand d)
  in
  List.map
    (fun name ->
      let m = Core.Estimator.of_name name in
      let reference =
        if Core.Estimator.uses_time_series m then busy_truth else truth
      in
      let estimate = solve m d in
      (name, Core.Metrics.mre ~truth:reference ~estimate ()))
    [ "tomogravity_iter"; "cumulant"; "mcmc_int" ]

let test_newcomer_goldens network () =
  let expected = List.assoc network newcomer_goldens in
  List.iter2
    (fun (name, want) (name', got) ->
      Alcotest.(check string) "method order" name name';
      Alcotest.(check (float 1e-9)) (network ^ "/" ^ name) want got)
    expected (newcomer_mres network)

(* The accuracy claim behind the iterated method: re-imposing the link
   constraints between IPF passes must strictly beat the one-shot
   Kruithof adjustment of the same gravity prior — on both networks. *)
let test_tomogravity_iter_beats_kruithof network () =
  let d = dataset_of network in
  let spec = d.Dataset.spec in
  let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
  let truth = Dataset.demand_at d k in
  let mre name =
    let estimate = solve (Core.Estimator.of_name name) d in
    Core.Metrics.mre ~truth ~estimate ()
  in
  let iter = mre "tomogravity_iter" and oneshot = mre "kruithof" in
  Alcotest.(check bool)
    (Printf.sprintf "%s: iterated %.4f < one-shot %.4f" network iter oneshot)
    true (iter < oneshot)

let () =
  if Sys.getenv_opt "METHODS_PRINT" <> None then begin
    List.iter
      (fun (network, _) ->
        Printf.printf "    ( %S,\n      [\n" network;
        List.iter
          (fun (name, v) -> Printf.printf "        (%S, %.17g);\n" name v)
          (newcomer_mres network);
        Printf.printf "      ] );\n")
      newcomer_goldens;
    exit 0
  end;
  Alcotest.run "methods"
    [
      ( "conformance",
        [
          Alcotest.test_case "bit-identical at jobs 1/2/4" `Quick
            test_jobs_bit_identity;
          Alcotest.test_case "clean degrade bit-identical" `Quick
            test_degrade_clean_bit_identity;
          Alcotest.test_case "sparse agrees with dense" `Quick
            test_sparse_dense_agreement;
          Alcotest.test_case "warm re-solve matches cold" `Quick
            test_warm_matches_cold;
          Alcotest.test_case "random problems stay valid" `Slow
            test_random_problems_valid;
        ] );
      ( "newcomers",
        [
          Alcotest.test_case "europe pins" `Quick
            (test_newcomer_goldens "europe");
          Alcotest.test_case "america pins" `Quick
            (test_newcomer_goldens "america");
          Alcotest.test_case "europe: iterated beats one-shot" `Quick
            (test_tomogravity_iter_beats_kruithof "europe");
          Alcotest.test_case "america: iterated beats one-shot" `Quick
            (test_tomogravity_iter_beats_kruithof "america");
        ] );
    ]
