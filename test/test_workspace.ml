(* The shared solver workspace: results must be bit-identical to the
   historical per-call path, memoized artifacts must equal freshly
   computed ones, and the stats counters must actually observe the
   caching. *)

open Tmest_linalg
open Tmest_traffic
open Tmest_core

let small_spec =
  { (Spec.scaled ~nodes:6 ~directed_links:28 Spec.europe) with Spec.seed = 7 }

let small = lazy (Dataset.generate small_spec)

let busy_snapshot d =
  let k = d.Dataset.spec.Spec.busy_start + (d.Dataset.spec.Spec.busy_len / 2) in
  (Dataset.demand_at d k, Dataset.link_loads_at d k)

(* ------------------------------------------------------------------ *)
(* Shared vs fresh workspace: bit-identical                            *)
(* ------------------------------------------------------------------ *)

let test_solve_ws_bit_identical () =
  (* A solve through a shared workspace must equal a solve on a freshly
     created one bit-for-bit: the caches may only change *when* things
     are computed, never the values. *)
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let samples = Dataset.busy_load_samples d ~window:20 in
  let ws = Workspace.create d.Dataset.routing in
  List.iter
    (fun name ->
      let m = Estimator.of_name name in
      let fresh =
        Estimator.solve m
          (Workspace.create d.Dataset.routing)
          ~loads ~load_samples:samples
      in
      let shared = Estimator.solve m ws ~loads ~load_samples:samples in
      Alcotest.(check bool)
        (name ^ " fresh = shared workspace bit-for-bit")
        true
        (Array.length fresh = Array.length shared
        && Array.for_all2 (fun a b -> Float.equal a b) fresh shared))
    (Estimator.all_names ())

let test_solve_ws_bit_identical_warm () =
  (* A warm workspace (every artifact already cached from a previous
     solve) must still reproduce the fresh-workspace result exactly. *)
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let samples = Dataset.busy_load_samples d ~window:20 in
  let ws = Workspace.create d.Dataset.routing in
  let names = Estimator.all_names () in
  List.iter
    (fun name ->
      ignore
        (Estimator.solve (Estimator.of_name name) ws ~loads
           ~load_samples:samples))
    names;
  List.iter
    (fun name ->
      let m = Estimator.of_name name in
      let cold =
        Estimator.solve m
          (Workspace.create d.Dataset.routing)
          ~loads ~load_samples:samples
      in
      let warm = Estimator.solve m ws ~loads ~load_samples:samples in
      Alcotest.(check bool)
        (name ^ " warm workspace bit-for-bit")
        true
        (Array.for_all2 (fun a b -> Float.equal a b) cold warm))
    names

(* ------------------------------------------------------------------ *)
(* Memoized artifacts = freshly computed                               *)
(* ------------------------------------------------------------------ *)

let test_memoized_gram_equals_fresh () =
  let d = Lazy.force small in
  let ws = Workspace.create d.Dataset.routing in
  let cached = Workspace.gram ws in
  let fresh = Csr.gram d.Dataset.routing.Tmest_net.Routing.matrix in
  Alcotest.(check bool) "gram equals fresh" true (Mat.equal ~eps:0. cached fresh);
  Alcotest.(check bool) "gram memoized (same object)" true
    (cached == Workspace.gram ws)

let test_memoized_chol_equals_fresh () =
  let d = Lazy.force small in
  let ws = Workspace.create d.Dataset.routing in
  let cached = Workspace.gram_chol ws in
  let fresh = Chol.factor_regularized (Workspace.gram ws) in
  let rhs =
    Array.init (Dataset.num_pairs d) (fun i -> float_of_int (i mod 7) +. 1.)
  in
  Alcotest.(check bool) "chol solves match" true
    (Vec.equal ~eps:0. (Chol.solve cached rhs) (Chol.solve fresh rhs))

let test_memoized_prior_equals_fresh () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let ws = Workspace.create d.Dataset.routing in
  let cached = Estimator.prior Estimator.Prior_gravity ws ~loads in
  let fresh = Gravity.simple d.Dataset.routing ~loads in
  Alcotest.(check bool) "gravity prior equals fresh" true
    (Vec.equal ~eps:0. cached fresh);
  Alcotest.(check bool) "prior memoized (same object)" true
    (cached == Estimator.prior Estimator.Prior_gravity ws ~loads)

let test_total_traffic_matches_problem () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let ws = Workspace.create d.Dataset.routing in
  Alcotest.(check (float 0.))
    "total_traffic matches Problem"
    (Problem.total_traffic d.Dataset.routing ~loads)
    (Workspace.total_traffic ws ~loads)

(* ------------------------------------------------------------------ *)
(* Stats observe the caching                                           *)
(* ------------------------------------------------------------------ *)

let test_stats_hits_on_second_access () =
  let d = Lazy.force small in
  let ws = Workspace.create d.Dataset.routing in
  ignore (Workspace.gram ws);
  ignore (Workspace.gram_chol ws);
  ignore (Workspace.transpose ws);
  ignore (Workspace.op_norm ws);
  let s1 = Workspace.stats ws in
  Alcotest.(check int) "gram miss once" 1 s1.Workspace.gram.Workspace.misses;
  ignore (Workspace.gram ws);
  ignore (Workspace.gram_chol ws);
  ignore (Workspace.transpose ws);
  ignore (Workspace.op_norm ws);
  let s2 = Workspace.stats ws in
  Alcotest.(check bool) "gram hit" true
    (s2.Workspace.gram.Workspace.hits > s1.Workspace.gram.Workspace.hits);
  Alcotest.(check int) "gram still one miss" 1 s2.Workspace.gram.Workspace.misses;
  Alcotest.(check int) "chol hit" 1 s2.Workspace.chol.Workspace.hits;
  Alcotest.(check int) "transpose hit" 1 s2.Workspace.transpose.Workspace.hits;
  Alcotest.(check int) "lipschitz hit" 1 s2.Workspace.lipschitz.Workspace.hits;
  Workspace.reset_stats ws;
  let s3 = Workspace.stats ws in
  Alcotest.(check int) "reset clears hits" 0 s3.Workspace.gram.Workspace.hits;
  (* Cached artifact survives the reset: next access is a hit again. *)
  ignore (Workspace.gram ws);
  let s4 = Workspace.stats ws in
  Alcotest.(check int) "artifact survives reset" 1
    s4.Workspace.gram.Workspace.hits

let test_solve_counter_increments () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let samples = Dataset.busy_load_samples d ~window:20 in
  let ws = Workspace.create d.Dataset.routing in
  ignore
    (Estimator.solve (Estimator.of_name "entropy") ws ~loads
       ~load_samples:samples);
  ignore
    (Estimator.solve (Estimator.of_name "gravity") ws ~loads
       ~load_samples:samples);
  let s = Workspace.stats ws in
  Alcotest.(check int) "two solves recorded" 2 s.Workspace.solve.Workspace.misses

let test_prior_cache_hits_across_methods () =
  (* Two methods sharing the default gravity prior on the same loads:
     the second must hit the prior cache, the second op_norm request
     must hit the lipschitz cache. *)
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let samples = Dataset.busy_load_samples d ~window:20 in
  let ws = Workspace.create d.Dataset.routing in
  ignore
    (Estimator.solve (Estimator.of_name "entropy") ws ~loads
       ~load_samples:samples);
  ignore
    (Estimator.solve (Estimator.of_name "bayes") ws ~loads
       ~load_samples:samples);
  let s = Workspace.stats ws in
  Alcotest.(check int) "prior computed once" 1 s.Workspace.prior.Workspace.misses;
  Alcotest.(check bool) "prior hit by second method" true
    (s.Workspace.prior.Workspace.hits >= 1);
  Alcotest.(check int) "op norm computed once" 1
    s.Workspace.lipschitz.Workspace.misses;
  Alcotest.(check bool) "op norm hit by second method" true
    (s.Workspace.lipschitz.Workspace.hits >= 1)

let test_keyed_caches_bounded () =
  (* The prior cache is keyed by the load vector: a long scan over
     distinct loads must evict the oldest entries, not grow without
     bound. *)
  let d = Lazy.force small in
  let ws = Workspace.create d.Dataset.routing in
  let l = Dataset.num_links d in
  let loads =
    Array.init 100 (fun i -> Vec.init l (fun j -> float_of_int ((i * l) + j)))
  in
  let prior i =
    ignore (Estimator.prior Estimator.Prior_uniform ws ~loads:loads.(i))
  in
  let misses () = (Workspace.stats ws).Workspace.prior.Workspace.misses in
  Array.iteri (fun i _ -> prior i) loads;
  Alcotest.(check int) "all distinct loads miss" 100 (misses ());
  prior 99;
  Alcotest.(check int) "newest load hits" 100 (misses ());
  prior 0;
  Alcotest.(check int) "oldest load was evicted" 101 (misses ())

let () =
  Alcotest.run "workspace"
    [
      ( "identity",
        [
          Alcotest.test_case "fresh vs shared workspace bit-identical" `Quick
            test_solve_ws_bit_identical;
          Alcotest.test_case "warm workspace bit-identical" `Quick
            test_solve_ws_bit_identical_warm;
        ] );
      ( "memoization",
        [
          Alcotest.test_case "gram equals fresh" `Quick
            test_memoized_gram_equals_fresh;
          Alcotest.test_case "cholesky equals fresh" `Quick
            test_memoized_chol_equals_fresh;
          Alcotest.test_case "prior equals fresh" `Quick
            test_memoized_prior_equals_fresh;
          Alcotest.test_case "total traffic matches Problem" `Quick
            test_total_traffic_matches_problem;
        ] );
      ( "stats",
        [
          Alcotest.test_case "hits on second access" `Quick
            test_stats_hits_on_second_access;
          Alcotest.test_case "solve counter" `Quick
            test_solve_counter_increments;
          Alcotest.test_case "prior/lipschitz shared across methods" `Quick
            test_prior_cache_hits_across_methods;
          Alcotest.test_case "keyed caches bounded" `Quick
            test_keyed_caches_bounded;
        ] );
    ]
