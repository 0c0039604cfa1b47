open Tmest_linalg
open Tmest_net
open Tmest_traffic
open Tmest_core

let check_float eps = Alcotest.(check (float eps))

(* Shared fixtures: a small but non-trivial dataset and the full-size
   European one. *)
let small_spec =
  { (Spec.scaled ~nodes:6 ~directed_links:28 Spec.europe) with Spec.seed = 7 }

let small = lazy (Dataset.generate small_spec)

let busy_snapshot d =
  let k = d.Dataset.spec.Spec.busy_start + (d.Dataset.spec.Spec.busy_len / 2) in
  (Dataset.demand_at d k, Dataset.link_loads_at d k)

(* Method modules take a solver workspace; the tests build a throwaway
   one per call, which is exactly the historical per-call behaviour. *)
let ws_of d = Workspace.create d.Dataset.routing

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_mre_basic () =
  let truth = Vec.of_list [ 10.; 5.; 1. ] in
  let estimate = Vec.of_list [ 12.; 4.; 100. ] in
  (* coverage 0.9: threshold keeps 10 and 5 (15/16 = 0.9375). *)
  let m = Metrics.mre ~truth ~estimate () in
  check_float 1e-9 "mre over top demands" ((0.2 +. 0.2) /. 2.) m

let test_mre_threshold_coverage () =
  let truth = Vec.of_list [ 8.; 1.; 1. ] in
  let th, count = Metrics.threshold_for_coverage ~coverage:0.8 truth in
  check_float 1e-9 "threshold" 8. th;
  Alcotest.(check int) "count" 1 count

let test_mre_perfect () =
  let truth = Vec.of_list [ 3.; 2.; 1. ] in
  check_float 1e-12 "zero" 0. (Metrics.mre ~truth ~estimate:truth ())

let test_rank_correlation () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float 1e-9 "identity" 1. (Metrics.rank_correlation xs xs);
  check_float 1e-9 "reverse" (-1.)
    (Metrics.rank_correlation xs [| 4.; 3.; 2.; 1. |]);
  (* Monotone transform preserves rho. *)
  check_float 1e-9 "monotone" 1.
    (Metrics.rank_correlation xs (Array.map exp xs))

let test_rmse_and_l1 () =
  let truth = Vec.of_list [ 1.; 2. ] and est = Vec.of_list [ 2.; 4. ] in
  check_float 1e-9 "rmse" (sqrt 2.5) (Metrics.rmse ~truth ~estimate:est);
  check_float 1e-9 "l1" 1. (Metrics.relative_l1 ~truth ~estimate:est)

(* ------------------------------------------------------------------ *)
(* Gravity                                                             *)
(* ------------------------------------------------------------------ *)

let test_gravity_node_totals () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let te, tx = Gravity.node_totals d.Dataset.routing ~loads in
  let n = Dataset.num_nodes d in
  Odpairs.iter ~nodes:n (fun _ _ _ -> ());
  (* te/tx extracted from access rows must equal the TM row/col sums. *)
  let te_ref = Array.make n 0. and tx_ref = Array.make n 0. in
  Odpairs.iter ~nodes:n (fun p src dst ->
      te_ref.(src) <- te_ref.(src) +. truth.(p);
      tx_ref.(dst) <- tx_ref.(dst) +. truth.(p));
  for i = 0 to n - 1 do
    check_float 1. "te" te_ref.(i) te.(i);
    check_float 1. "tx" tx_ref.(i) tx.(i)
  done

let test_gravity_preserves_total () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let est = Gravity.simple d.Dataset.routing ~loads in
  check_float 1e-3 "total preserved"
    (Vec.sum truth /. Vec.sum truth)
    (Vec.sum est /. Vec.sum truth)

let test_gravity_exact_on_rank_one () =
  (* If the true TM is exactly rank-one (gravity assumption holds), the
     gravity estimate is exact. *)
  let d = Lazy.force small in
  let n = Dataset.num_nodes d in
  let routing = d.Dataset.routing in
  let a = Vec.of_list [ 5.; 1.; 3.; 2.; 4.; 0.5 ] in
  let b = Vec.of_list [ 1.; 2.; 1.; 3.; 0.5; 1. ] in
  let s = Vec.zeros (Odpairs.count n) in
  Odpairs.iter ~nodes:n (fun p src dst -> s.(p) <- a.(src) *. b.(dst));
  let loads = Routing.link_loads routing s in
  let est = Gravity.simple routing ~loads in
  (* Rank-one with zero diagonal is not exactly rank-one, so allow a
     modest relative error but require high rank correlation. *)
  Alcotest.(check bool) "rank correlation" true
    (Metrics.rank_correlation s est > 0.97)

let test_generalized_gravity_zeroes_peers () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let topo = Topology.set_node_kind d.Dataset.topo 0 Topology.Peering in
  let topo = Topology.set_node_kind topo 1 Topology.Peering in
  let routing = { d.Dataset.routing with Routing.topo } in
  let est = Gravity.generalized routing ~loads in
  let n = Dataset.num_nodes d in
  let p01 = Odpairs.index ~nodes:n ~src:0 ~dst:1 in
  let p10 = Odpairs.index ~nodes:n ~src:1 ~dst:0 in
  check_float 1e-9 "peer-to-peer zero" 0. est.(p01);
  check_float 1e-9 "peer-to-peer zero" 0. est.(p10);
  let te, _ = Gravity.node_totals routing ~loads in
  check_float 1. "total preserved" (Vec.sum te) (Vec.sum est)

(* ------------------------------------------------------------------ *)
(* Kruithof                                                            *)
(* ------------------------------------------------------------------ *)

let test_kruithof_matches_marginals () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let n = Dataset.num_nodes d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let adjusted = Kruithof.adjust (ws_of d) ~loads ~prior in
  let te_ref = Array.make n 0. in
  Odpairs.iter ~nodes:n (fun p src _ -> te_ref.(src) <- te_ref.(src) +. truth.(p));
  let te_adj = Array.make n 0. in
  Odpairs.iter ~nodes:n (fun p src _ -> te_adj.(src) <- te_adj.(src) +. adjusted.(p));
  for i = 0 to n - 1 do
    Alcotest.(check bool) "row total matched" true
      (abs_float (te_adj.(i) -. te_ref.(i)) < 1e-4 *. (1. +. te_ref.(i)))
  done

let test_krupp_consistent_with_loads () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let s = Kruithof.krupp ~stop:(Tmest_opt.Stop.make ~max_iter:4000 ()) (ws_of d) ~loads ~prior in
  check_float 0.02 "Rs = t (relative)" 0.
    (Problem.residual_norm d.Dataset.routing ~loads s)

let test_krupp_improves_on_prior () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let s = Kruithof.krupp ~stop:(Tmest_opt.Stop.make ~max_iter:4000 ()) (ws_of d) ~loads ~prior in
  let mre_prior = Metrics.mre ~truth ~estimate:prior () in
  let mre_krupp = Metrics.mre ~truth ~estimate:s () in
  Alcotest.(check bool)
    (Printf.sprintf "krupp %.3f <= prior %.3f" mre_krupp mre_prior)
    true (mre_krupp <= mre_prior +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Bayes / Entropy                                                     *)
(* ------------------------------------------------------------------ *)

let test_bayes_small_sigma_returns_prior () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let r = Bayes.estimate (ws_of d) ~loads ~prior ~sigma2:1e-9 in
  Alcotest.(check bool) "close to prior" true
    (Metrics.relative_l1 ~truth:prior ~estimate:r.Bayes.estimate < 1e-3)

let test_bayes_large_sigma_fits_loads () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let r = Bayes.estimate ~stop:(Tmest_opt.Stop.make ~max_iter:8000 ()) (ws_of d) ~loads ~prior ~sigma2:1e5 in
  check_float 0.01 "fits measurements" 0.
    (Problem.residual_norm d.Dataset.routing ~loads r.Bayes.estimate)

let test_bayes_improves_prior () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let r = Bayes.estimate (ws_of d) ~loads ~prior ~sigma2:1000. in
  let mre_prior = Metrics.mre ~truth ~estimate:prior () in
  let mre_bayes = Metrics.mre ~truth ~estimate:r.Bayes.estimate () in
  Alcotest.(check bool)
    (Printf.sprintf "bayes %.3f < prior %.3f" mre_bayes mre_prior)
    true
    (mre_bayes < mre_prior)

let test_entropy_small_sigma_returns_prior () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let r = Entropy.estimate (ws_of d) ~loads ~prior ~sigma2:1e-9 in
  Alcotest.(check bool) "close to prior" true
    (Metrics.relative_l1 ~truth:prior ~estimate:r.Entropy.estimate < 1e-3)

let test_entropy_large_sigma_fits_loads () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let r =
    Entropy.estimate ~stop:(Tmest_opt.Stop.make ~max_iter:8000 ()) (ws_of d) ~loads ~prior
      ~sigma2:1e5
  in
  check_float 0.02 "fits measurements" 0.
    (Problem.residual_norm d.Dataset.routing ~loads r.Entropy.estimate)

let test_entropy_improves_prior () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let r = Entropy.estimate (ws_of d) ~loads ~prior ~sigma2:1000. in
  let mre_prior = Metrics.mre ~truth ~estimate:prior () in
  let mre_entropy = Metrics.mre ~truth ~estimate:r.Entropy.estimate () in
  Alcotest.(check bool)
    (Printf.sprintf "entropy %.3f < prior %.3f" mre_entropy mre_prior)
    true
    (mre_entropy < mre_prior)

let test_entropy_nonnegative () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let r = Entropy.estimate (ws_of d) ~loads ~prior ~sigma2:100. in
  Array.iter
    (fun x -> Alcotest.(check bool) "nonneg" true (x >= 0.))
    r.Entropy.estimate

let test_entropy_fixed_pins_measured () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let fixed = [ (0, truth.(0)); (5, truth.(5)) ] in
  let r =
    Entropy.estimate_fixed (ws_of d) ~loads ~prior ~sigma2:1000.
      ~fixed
  in
  check_float 1e-6 "pinned 0" truth.(0) r.Entropy.estimate.(0);
  check_float 1e-6 "pinned 5" truth.(5) r.Entropy.estimate.(5)

let test_entropy_fixed_reduces_mre () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let base = Entropy.estimate (ws_of d) ~loads ~prior ~sigma2:1000. in
  let order = Array.init (Array.length truth) (fun i -> i) in
  Array.sort (fun a b -> compare truth.(b) truth.(a)) order;
  let fixed = List.map (fun i -> (order.(i), truth.(order.(i)))) [ 0; 1; 2; 3 ] in
  let pinned =
    Entropy.estimate_fixed (ws_of d) ~loads ~prior ~sigma2:1000.
      ~fixed
  in
  let mre_base = Metrics.mre ~truth ~estimate:base.Entropy.estimate () in
  let mre_pinned = Metrics.mre ~truth ~estimate:pinned.Entropy.estimate () in
  Alcotest.(check bool)
    (Printf.sprintf "pinned %.4f <= base %.4f" mre_pinned mre_base)
    true
    (mre_pinned <= mre_base +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Worst-case bounds                                                   *)
(* ------------------------------------------------------------------ *)

let test_wcb_contains_truth () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let b = Wcb.bounds (ws_of d) ~loads in
  Alcotest.(check bool) "truth within bounds" true (Wcb.contains b truth)

let test_wcb_bounds_ordered () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let b = Wcb.bounds (ws_of d) ~loads in
  Array.iteri
    (fun i lo ->
      Alcotest.(check bool) "lower <= upper" true (lo <= b.Wcb.upper.(i) +. 1e-6))
    b.Wcb.lower

let test_wcb_beats_trivial () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let b = Wcb.bounds (ws_of d) ~loads in
  let trivial = Wcb.trivial_upper (ws_of d) ~loads in
  let improved = ref 0 in
  Array.iteri
    (fun i u -> if u < trivial.(i) -. 1. then incr improved)
    b.Wcb.upper;
  Alcotest.(check bool)
    (Printf.sprintf "LP tightens %d bounds" !improved)
    true (!improved > 0)

let test_wcb_midpoint_better_than_gravity () =
  (* On the (locality-heavy) small dataset the WCB prior should beat the
     plain gravity prior, as in the paper's Table 2. *)
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let wcb = Wcb.midpoint (Wcb.bounds (ws_of d) ~loads) in
  let grav = Gravity.simple d.Dataset.routing ~loads in
  let mre_wcb = Metrics.mre ~truth ~estimate:wcb () in
  let mre_grav = Metrics.mre ~truth ~estimate:grav () in
  Alcotest.(check bool)
    (Printf.sprintf "wcb %.3f, gravity %.3f" mre_wcb mre_grav)
    true
    (mre_wcb < mre_grav +. 0.05)

let test_wcb_exact_null_space_slack () =
  (* A 3-node network has the classic one-dimensional cyclic ambiguity:
     the null space of R is spanned by d = (+1,-1,-1,+1,+1,-1) in pair
     order ((0,1),(0,2),(1,0),(1,2),(2,0),(2,1)).  The LP bounds must
     equal truth +- exactly the slack available along d with s >= 0. *)
  let nodes =
    Array.init 3 (fun i ->
        {
          Topology.node_id = i;
          name = Printf.sprintf "n%d" i;
          kind = Topology.Access;
          lat = 0.;
          lon = float_of_int i;
        })
  in
  let topo =
    Topology.build ~name:"t" nodes
      [ (0, 1, 10e9, 1.); (1, 2, 10e9, 1.); (0, 2, 10e9, 3.) ]
  in
  let routing = Routing.shortest_path topo in
  let p = Odpairs.count 3 in
  let s = Vec.init p (fun i -> float_of_int (i + 1) *. 1e6) in
  let loads = Routing.link_loads routing s in
  let b = Wcb.bounds (Workspace.create routing) ~loads in
  let dir = [| 1.; -1.; -1.; 1.; 1.; -1. |] in
  (* t_plus: how far s + t*dir stays >= 0 (bounded by negative entries);
     t_minus: same in the other direction. *)
  let t_plus = ref infinity and t_minus = ref infinity in
  Array.iteri
    (fun i d ->
      if d < 0. then t_plus := Stdlib.min !t_plus s.(i)
      else t_minus := Stdlib.min !t_minus s.(i))
    dir;
  for i = 0 to p - 1 do
    let slack_up = if dir.(i) > 0. then !t_plus else !t_minus in
    let slack_down = if dir.(i) > 0. then !t_minus else !t_plus in
    check_float 10. "upper = truth + slack" (s.(i) +. slack_up) b.Wcb.upper.(i);
    check_float 10. "lower = truth - slack" (s.(i) -. slack_down)
      b.Wcb.lower.(i)
  done

(* ------------------------------------------------------------------ *)
(* Fanout estimation                                                   *)
(* ------------------------------------------------------------------ *)

let test_fanout_rows_sum_to_one () =
  let d = Lazy.force small in
  let samples = Dataset.busy_load_samples d ~window:5 in
  let r = Fanout.estimate (ws_of d) ~load_samples:samples in
  let n = Dataset.num_nodes d in
  for src = 0 to n - 1 do
    let total = ref 0. in
    Odpairs.iter ~nodes:n (fun p s _ -> if s = src then total := !total +. r.Fanout.fanouts.(p));
    check_float 1e-6 "row sum" 1. !total
  done

let test_fanout_recovers_constant_fanouts () =
  (* Synthetic loads generated from exactly constant fanouts with
     varying node totals: the estimator must recover them. *)
  let d = Lazy.force small in
  let routing = d.Dataset.routing in
  let n = Dataset.num_nodes d in
  let p = Odpairs.count n in
  let base = d.Dataset.truth.Demand_gen.base_fanouts in
  let window = 8 in
  let loads =
    Mat.init window (Dataset.num_links d) (fun k j ->
        ignore j;
        k |> fun _ -> 0.)
  in
  ignore loads;
  let load_rows =
    Array.init window (fun k ->
        let te =
          Vec.init n (fun node ->
              1e9 *. (1. +. (0.3 *. float_of_int ((k + node) mod 4))))
        in
        let s = Vec.zeros p in
        Odpairs.iter ~nodes:n (fun pair src dst ->
            s.(pair) <- te.(src) *. Mat.get base src dst);
        Routing.link_loads routing s)
  in
  let samples =
    Mat.init window (Dataset.num_links d) (fun k j -> load_rows.(k).(j))
  in
  let r = Fanout.estimate (Workspace.create routing) ~load_samples:samples in
  Odpairs.iter ~nodes:n (fun pair src dst ->
      Alcotest.(check bool) "fanout recovered" true
        (abs_float (r.Fanout.fanouts.(pair) -. Mat.get base src dst) < 1e-4))

let test_fanout_estimate_reasonable () =
  let d = Lazy.force small in
  let window = 10 in
  let samples = Dataset.busy_load_samples d ~window in
  let r = Fanout.estimate (ws_of d) ~load_samples:samples in
  let truth = Dataset.busy_mean_demand d in
  let mre = Metrics.mre ~truth ~estimate:r.Fanout.estimate () in
  Alcotest.(check bool) (Printf.sprintf "fanout MRE %.3f < 0.6" mre) true
    (mre < 0.6)

(* ------------------------------------------------------------------ *)
(* Vardi / Cao                                                         *)
(* ------------------------------------------------------------------ *)

let test_vardi_identifiable_on_ideal_poisson () =
  (* Large window of exact Poisson draws: Vardi with sigma_inv2 = 1 must
     come close to the true means (the paper's Fig. 12 premise). *)
  let d = Lazy.force small in
  let unit_bps = 1e6 in
  let series = Dataset.poisson_series d ~unit_bps ~samples:800 ~seed:3 in
  let loads =
    Mat.init 800 (Dataset.num_links d) (fun k j ->
        (Routing.link_loads d.Dataset.routing (Mat.row series k)).(j))
  in
  let r =
    Vardi.estimate ~unit_bps (ws_of d) ~load_samples:loads
      ~sigma_inv2:1.
  in
  let truth = Dataset.busy_mean_demand d in
  let mre = Metrics.mre ~truth ~estimate:r.Vardi.estimate () in
  Alcotest.(check bool) (Printf.sprintf "vardi ideal MRE %.3f < 0.35" mre) true
    (mre < 0.35)

let test_vardi_first_moment_consistent () =
  (* As sigma_inv2 -> 0 the estimator reduces to non-negative least
     squares on the first moment, so the mean residual must vanish. *)
  let d = Lazy.force small in
  let samples = Dataset.busy_load_samples d ~window:20 in
  let r =
    Vardi.estimate (ws_of d) ~load_samples:samples ~sigma_inv2:1e-9
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean residual %.4f small" r.Vardi.mean_residual)
    true
    (r.Vardi.mean_residual < 0.02)

let test_vardi_strong_poisson_faith_hurts_mean_fit () =
  (* With full faith in the (violated) Poisson assumption, the
     covariance term dominates and drags the estimate away from the
     measured means — the failure mode of Section 5.3.4. *)
  let d = Lazy.force small in
  let samples = Dataset.busy_load_samples d ~window:20 in
  let weak =
    Vardi.estimate (ws_of d) ~load_samples:samples ~sigma_inv2:1e-9
  in
  let strong =
    Vardi.estimate (ws_of d) ~load_samples:samples ~sigma_inv2:1.
  in
  Alcotest.(check bool)
    (Printf.sprintf "residual grows: %.4f -> %.4f" weak.Vardi.mean_residual
       strong.Vardi.mean_residual)
    true
    (strong.Vardi.mean_residual > weak.Vardi.mean_residual)

let test_cao_reduces_objective () =
  let d = Lazy.force small in
  let samples = Dataset.busy_load_samples d ~window:20 in
  let r =
    Cao.estimate (ws_of d) ~load_samples:samples ~phi:1. ~c:1.5
      ~sigma_inv2:0.01
  in
  Alcotest.(check bool) "ran some iterations" true (r.Cao.iterations >= 1);
  Array.iter
    (fun x -> Alcotest.(check bool) "nonneg" true (x >= 0.))
    r.Cao.estimate

let test_cao_matches_vardi_at_c1 () =
  let d = Lazy.force small in
  let samples = Dataset.busy_load_samples d ~window:15 in
  let v =
    Vardi.estimate (ws_of d) ~load_samples:samples ~sigma_inv2:0.5
  in
  let c =
    Cao.estimate (ws_of d) ~load_samples:samples ~phi:1. ~c:1.
      ~sigma_inv2:0.5
  in
  (* Same objective; different solvers. Compare on the large demands. *)
  let truth = Dataset.busy_mean_demand d in
  let mre_v = Metrics.mre ~truth ~estimate:v.Vardi.estimate () in
  let mre_c = Metrics.mre ~truth ~estimate:c.Cao.estimate () in
  Alcotest.(check bool)
    (Printf.sprintf "cao %.3f within 0.15 of vardi %.3f" mre_c mre_v)
    true
    (abs_float (mre_c -. mre_v) < 0.15)

(* ------------------------------------------------------------------ *)
(* Combined                                                            *)
(* ------------------------------------------------------------------ *)

let test_combined_greedy_monotone_trend () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let steps =
    Combined.greedy (ws_of d) ~loads ~prior ~truth ~sigma2:1000.
      ~steps:6
  in
  Alcotest.(check int) "six steps" 6 (List.length steps);
  let mres = List.map (fun s -> s.Combined.mre) steps in
  let first = List.hd mres and last = List.nth mres 5 in
  Alcotest.(check bool)
    (Printf.sprintf "mre drops: %.4f -> %.4f" first last)
    true (last <= first +. 1e-9);
  (* No pair measured twice. *)
  let pairs = List.map (fun s -> s.Combined.measured) steps in
  Alcotest.(check int) "distinct" 6
    (List.length (List.sort_uniq compare pairs))

let test_combined_greedy_beats_largest_first () =
  (* Greedy optimizes the metric directly, so it can only do better (or
     equal) at each prefix. *)
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let g =
    Combined.greedy (ws_of d) ~loads ~prior ~truth ~sigma2:1000.
      ~steps:4
  in
  let lf =
    Combined.largest_first (ws_of d) ~loads ~prior ~truth
      ~sigma2:1000. ~steps:4
  in
  let last l = (List.nth l (List.length l - 1)).Combined.mre in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.4f <= largest-first %.4f + eps" (last g) (last lf))
    true
    (last g <= last lf +. 0.02)


(* ------------------------------------------------------------------ *)
(* Iterative refinement                                                *)
(* ------------------------------------------------------------------ *)

let test_iterative_improves_prior () =
  (* Iterating on one snapshot at prior-trusting regularization walks
     the estimate towards the load-consistent manifold: the MRE against
     that snapshot must strictly improve on the gravity prior. *)
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let series = Mat.init 4 (Dataset.num_links d) (fun _ j -> loads.(j)) in
  let trace =
    Iterative.refine ~rounds:8 ~tol:1e-6 ~sigma2:1. (ws_of d)
      ~load_series:series ~prior
  in
  let refined = Iterative.final trace in
  let mre_prior = Metrics.mre ~truth ~estimate:prior () in
  let mre_refined = Metrics.mre ~truth ~estimate:refined () in
  Alcotest.(check bool)
    (Printf.sprintf "refined %.3f < prior %.3f" mre_refined mre_prior)
    true
    (mre_refined < mre_prior)

let test_iterative_deltas_shrink () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  (* Same snapshot repeated: the iteration must converge (deltas to 0). *)
  let series =
    Mat.init 3 (Dataset.num_links d) (fun _ j -> loads.(j))
  in
  let trace =
    Iterative.refine ~rounds:12 ~tol:1e-6 ~sigma2:10. (ws_of d)
      ~load_series:series ~prior
  in
  let deltas = trace.Iterative.deltas in
  let n = Array.length deltas in
  Alcotest.(check bool) "ran some rounds" true (n >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "last delta %.5f < first %.5f" deltas.(n - 1) deltas.(0))
    true
    (deltas.(n - 1) < deltas.(0))

let test_trivial_upper_valid_under_ecmp () =
  (* With fractional routing, the trivial bound must only use whole-
     demand rows and hence stay a valid upper bound. *)
  let d = Lazy.force small in
  let topo =
    {
      (d.Dataset.topo) with
      Topology.links =
        Array.map
          (fun l ->
            if l.Topology.lkind = Topology.Interior then
              { l with Topology.metric = 1. }
            else l)
          d.Dataset.topo.Topology.links;
    }
  in
  let routing = Routing.ecmp topo in
  let truth, _ = busy_snapshot d in
  let loads = Routing.link_loads routing truth in
  let upper = Wcb.trivial_upper (Workspace.create routing) ~loads in
  Array.iteri
    (fun p u ->
      Alcotest.(check bool) "upper >= truth" true
        (u >= truth.(p) -. 1e-6 *. (1. +. truth.(p))))
    upper


(* ------------------------------------------------------------------ *)
(* Route-change inference + MCMC                                       *)
(* ------------------------------------------------------------------ *)

let test_routechange_improves_identifiability () =
  (* Two routings over the same (noise-free mean) demands: the stacked
     system pins demands a single snapshot cannot. *)
  let d = Lazy.force small in
  let topo = d.Dataset.topo in
  let truth = Dataset.busy_mean_demand d in
  let r1 = Routing.shortest_path topo in
  (* Second configuration: fail the busiest interior link and re-route. *)
  let loads1 = Routing.link_loads r1 truth in
  let busiest =
    List.fold_left
      (fun best l ->
        match best with
        | Some b when loads1.(b) >= loads1.(l.Topology.link_id) -> best
        | _ -> Some l.Topology.link_id)
      None
      (Topology.interior_links topo)
    |> Option.get
  in
  let n = Topology.num_nodes topo in
  let usable l = l.Topology.link_id <> busiest in
  let paths = Array.make (Odpairs.count n) [] in
  for src = 0 to n - 1 do
    let _, parent = Dijkstra.tree ~usable topo ~src in
    for dst = 0 to n - 1 do
      if dst <> src then
        match Dijkstra.path_of_tree topo parent ~src ~dst with
        | Some p -> paths.(Odpairs.index ~nodes:n ~src ~dst) <- p
        | None -> Alcotest.fail "disconnected after failure"
    done
  done;
  let r2 = Routing.of_paths topo paths in
  let loads2 = Routing.link_loads r2 truth in
  let w1 = Workspace.create r1 and w2 = Workspace.create r2 in
  let single = Routechange.estimate [ (w1, loads1) ] in
  let stacked = Routechange.estimate [ (w1, loads1); (w2, loads2) ] in
  let mre e = Metrics.mre ~truth ~estimate:e () in
  Alcotest.(check bool) "rank gain" true (stacked.Routechange.stacked_rank_gain >= 0);
  Alcotest.(check bool)
    (Printf.sprintf "stacked %.4f <= single %.4f"
       (mre stacked.Routechange.estimate) (mre single.Routechange.estimate))
    true
    (mre stacked.Routechange.estimate
    <= mre single.Routechange.estimate +. 1e-6)

let test_routechange_rejects_empty () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Routechange.estimate []);
       false
     with Invalid_argument _ -> true)

let test_mcmc_samples_feasible_posterior () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let r =
    Mcmc.sample ~burn_in:200 ~samples:300 ~thin:3 (ws_of d) ~loads
      ~prior
  in
  Alcotest.(check bool) "null space found" true (r.Mcmc.null_dim > 0);
  (* Posterior quantiles are ordered.  (The mean can legitimately fall
     outside [q05, q95] for heavily skewed marginals, so only the
     quantile ordering is asserted.) *)
  Array.iteri
    (fun i lo ->
      Alcotest.(check bool) "ordered" true (lo <= r.Mcmc.upper.(i) +. 1e-6))
    r.Mcmc.lower;
  (* The chain stays on the feasible polytope: loads reproduced. *)
  Alcotest.(check bool) "load consistent" true
    (Problem.residual_norm d.Dataset.routing ~loads r.Mcmc.mean < 0.02);
  (* Credible intervals are informative: truth within [lower, upper]
     for a large majority of the big demands. *)
  let threshold, _ = Metrics.threshold_for_coverage ~coverage:0.9 truth in
  let covered = ref 0 and total = ref 0 in
  Array.iteri
    (fun i t ->
      if t >= threshold then begin
        incr total;
        if
          t >= r.Mcmc.lower.(i) -. (0.05 *. t)
          && t <= r.Mcmc.upper.(i) +. (0.05 *. t)
        then incr covered
      end)
    truth;
  Alcotest.(check bool)
    (Printf.sprintf "coverage %d/%d" !covered !total)
    true
    (float_of_int !covered >= 0.6 *. float_of_int !total)

let test_mcmc_deterministic_in_seed () =
  let d = Lazy.force small in
  let _, loads = busy_snapshot d in
  let prior = Gravity.simple d.Dataset.routing ~loads in
  let run () =
    (Mcmc.sample ~burn_in:50 ~samples:50 ~thin:2 ~seed:9 (ws_of d)
       ~loads ~prior)
      .Mcmc.mean
  in
  Alcotest.(check bool) "reproducible" true (Vec.equal (run ()) (run ()))

(* ------------------------------------------------------------------ *)
(* Estimator facade                                                    *)
(* ------------------------------------------------------------------ *)

let test_estimator_roundtrip_names () =
  List.iter
    (fun n ->
      Alcotest.(check string) "name roundtrip" n
        (Estimator.name (Estimator.of_name n)))
    (Estimator.all_names ())

let test_estimator_rejects_unknown () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Estimator.of_name "magic");
       false
     with Invalid_argument _ -> true)

let test_estimator_run_all () =
  let d = Lazy.force small in
  let truth, loads = busy_snapshot d in
  let samples = Dataset.busy_load_samples d ~window:20 in
  List.iter
    (fun name ->
      let est =
        Estimator.solve (Estimator.of_name name)
          (Workspace.create d.Dataset.routing)
          ~loads ~load_samples:samples
      in
      Alcotest.(check int)
        (name ^ " dimension")
        (Dataset.num_pairs d) (Array.length est);
      Array.iter
        (fun x ->
          Alcotest.(check bool) (name ^ " nonneg") true (x >= -1e-6))
        est;
      let mre = Metrics.mre ~truth ~estimate:est () in
      Alcotest.(check bool)
        (Printf.sprintf "%s mre %.3f finite and sane" name mre)
        true
        (Float.is_finite mre))
    (Estimator.all_names ())

let () =
  Alcotest.run "core"
    [
      ( "metrics",
        [
          Alcotest.test_case "mre basic" `Quick test_mre_basic;
          Alcotest.test_case "threshold" `Quick test_mre_threshold_coverage;
          Alcotest.test_case "perfect" `Quick test_mre_perfect;
          Alcotest.test_case "rank correlation" `Quick test_rank_correlation;
          Alcotest.test_case "rmse / l1" `Quick test_rmse_and_l1;
        ] );
      ( "gravity",
        [
          Alcotest.test_case "node totals" `Quick test_gravity_node_totals;
          Alcotest.test_case "total preserved" `Quick
            test_gravity_preserves_total;
          Alcotest.test_case "rank-one" `Quick test_gravity_exact_on_rank_one;
          Alcotest.test_case "generalized peers" `Quick
            test_generalized_gravity_zeroes_peers;
        ] );
      ( "kruithof",
        [
          Alcotest.test_case "marginals" `Quick test_kruithof_matches_marginals;
          Alcotest.test_case "krupp consistency" `Quick
            test_krupp_consistent_with_loads;
          Alcotest.test_case "krupp improves" `Quick test_krupp_improves_on_prior;
        ] );
      ( "bayes",
        [
          Alcotest.test_case "small sigma = prior" `Quick
            test_bayes_small_sigma_returns_prior;
          Alcotest.test_case "large sigma fits" `Quick
            test_bayes_large_sigma_fits_loads;
          Alcotest.test_case "improves prior" `Quick test_bayes_improves_prior;
        ] );
      ( "entropy",
        [
          Alcotest.test_case "small sigma = prior" `Quick
            test_entropy_small_sigma_returns_prior;
          Alcotest.test_case "large sigma fits" `Quick
            test_entropy_large_sigma_fits_loads;
          Alcotest.test_case "improves prior" `Quick
            test_entropy_improves_prior;
          Alcotest.test_case "nonnegative" `Quick test_entropy_nonnegative;
          Alcotest.test_case "fixed pins" `Quick
            test_entropy_fixed_pins_measured;
          Alcotest.test_case "fixed reduces mre" `Quick
            test_entropy_fixed_reduces_mre;
        ] );
      ( "wcb",
        [
          Alcotest.test_case "contains truth" `Quick test_wcb_contains_truth;
          Alcotest.test_case "ordered" `Quick test_wcb_bounds_ordered;
          Alcotest.test_case "beats trivial" `Quick test_wcb_beats_trivial;
          Alcotest.test_case "midpoint vs gravity" `Quick
            test_wcb_midpoint_better_than_gravity;
          Alcotest.test_case "null-space slack" `Quick
            test_wcb_exact_null_space_slack;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "rows sum to 1" `Quick test_fanout_rows_sum_to_one;
          Alcotest.test_case "recovers constant fanouts" `Quick
            test_fanout_recovers_constant_fanouts;
          Alcotest.test_case "reasonable accuracy" `Quick
            test_fanout_estimate_reasonable;
        ] );
      ( "vardi-cao",
        [
          Alcotest.test_case "ideal poisson" `Slow
            test_vardi_identifiable_on_ideal_poisson;
          Alcotest.test_case "first moment" `Quick
            test_vardi_first_moment_consistent;
          Alcotest.test_case "poisson faith hurts" `Quick
            test_vardi_strong_poisson_faith_hurts_mean_fit;
          Alcotest.test_case "cao runs" `Quick test_cao_reduces_objective;
          Alcotest.test_case "cao = vardi at c=1" `Quick
            test_cao_matches_vardi_at_c1;
        ] );
      ( "combined",
        [
          Alcotest.test_case "greedy monotone" `Slow
            test_combined_greedy_monotone_trend;
          Alcotest.test_case "greedy vs largest" `Slow
            test_combined_greedy_beats_largest_first;
        ] );
      ( "iterative",
        [
          Alcotest.test_case "improves prior" `Quick
            test_iterative_improves_prior;
          Alcotest.test_case "deltas shrink" `Quick
            test_iterative_deltas_shrink;
          Alcotest.test_case "ecmp trivial bound" `Quick
            test_trivial_upper_valid_under_ecmp;
        ] );
      ( "routechange-mcmc",
        [
          Alcotest.test_case "route change identifiability" `Quick
            test_routechange_improves_identifiability;
          Alcotest.test_case "empty configs" `Quick
            test_routechange_rejects_empty;
          Alcotest.test_case "mcmc posterior" `Slow
            test_mcmc_samples_feasible_posterior;
          Alcotest.test_case "mcmc deterministic" `Quick
            test_mcmc_deterministic_in_seed;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "names" `Quick test_estimator_roundtrip_names;
          Alcotest.test_case "unknown" `Quick test_estimator_rejects_unknown;
          Alcotest.test_case "run all" `Slow test_estimator_run_all;
        ] );
    ]
