(* Cross-library integration properties: every check runs the full
   pipeline (generator -> routing -> estimator) on datasets drawn from
   random seeds, so invariants hold over the input distribution and not
   just the default fixtures. *)

open Tmest_linalg
open Tmest_net
open Tmest_traffic
open Tmest_core

let dataset_of_seed seed =
  Dataset.generate
    {
      (Spec.scaled ~nodes:6 ~directed_links:28 Spec.europe) with
      Spec.seed;
      samples = 40;
    }

let snapshot d =
  let k = d.Dataset.spec.Spec.busy_start + 5 in
  (Dataset.demand_at d k, Dataset.link_loads_at d k)

let seed_arb = QCheck.int_range 1 10_000

let prop name count f = QCheck.Test.make ~name ~count seed_arb f

(* 1. The evaluation data set is consistent by construction. *)
let prop_loads_consistent =
  prop "t = R s for generated datasets" 8 (fun seed ->
      let d = dataset_of_seed seed in
      let truth, loads = snapshot d in
      let recomputed = Routing.link_loads d.Dataset.routing truth in
      Vec.equal ~eps:1. recomputed loads)

(* 2. Gravity preserves the measured total and never goes negative. *)
let prop_gravity_total =
  prop "gravity conserves total traffic" 8 (fun seed ->
      let d = dataset_of_seed seed in
      let truth, loads = snapshot d in
      let est = Gravity.simple d.Dataset.routing ~loads in
      Array.for_all (fun x -> x >= 0.) est
      && abs_float (Vec.sum est -. Vec.sum truth)
         <= 1e-6 *. (1. +. Vec.sum truth))

(* 3. Worst-case bounds always contain the true demands. *)
let prop_wcb_contains =
  prop "WCB bounds contain the truth" 5 (fun seed ->
      let d = dataset_of_seed seed in
      let truth, loads = snapshot d in
      let b = Wcb.bounds (Tmest_core.Workspace.create d.Dataset.routing) ~loads in
      Wcb.contains b truth)

(* 4. At large sigma2 the entropy estimate is load-consistent and never
   worse than its prior on the measurement residual. *)
let prop_entropy_consistency =
  prop "entropy fits the loads at large sigma2" 6 (fun seed ->
      let d = dataset_of_seed seed in
      let _, loads = snapshot d in
      let prior = Gravity.simple d.Dataset.routing ~loads in
      let est =
        (Entropy.estimate ~stop:(Tmest_opt.Stop.make ~max_iter:6000 ())
           (Tmest_core.Workspace.create d.Dataset.routing) ~loads ~prior
           ~sigma2:1e4)
          .Entropy.estimate
      in
      let res = Problem.residual_norm d.Dataset.routing ~loads est in
      let res_prior = Problem.residual_norm d.Dataset.routing ~loads prior in
      res < 0.05 && res <= res_prior +. 1e-12)

(* 5. Regularized estimates interpolate: more regularization never takes
   the estimate further from the prior (in relative L1). *)
let prop_bayes_interpolates =
  prop "bayes distance to prior grows with sigma2" 5 (fun seed ->
      let d = dataset_of_seed seed in
      let _, loads = snapshot d in
      let prior = Gravity.simple d.Dataset.routing ~loads in
      let dist sigma2 =
        let est =
          (Bayes.estimate ~stop:(Tmest_opt.Stop.make ~max_iter:4000 ())
             (Tmest_core.Workspace.create d.Dataset.routing) ~loads ~prior
             ~sigma2)
            .Bayes.estimate
        in
        Metrics.relative_l1 ~truth:prior ~estimate:est
      in
      let d1 = dist 1e-3 and d2 = dist 1. and d3 = dist 1e3 in
      d1 <= d2 +. 1e-6 && d2 <= d3 +. 1e-6)

(* 6. The SNMP pipeline recovers the TM across seeds and loss levels. *)
let prop_snmp_recovery =
  prop "snmp pipeline error bounded" 5 (fun seed ->
      let d = dataset_of_seed seed in
      let config =
        {
          Tmest_snmp.Collect.default_config with
          Tmest_snmp.Collect.loss_prob = 0.02;
          seed;
        }
      in
      let truth k = Dataset.demand_at d k in
      let r =
        Tmest_snmp.Collect.run config ~true_rates:truth
          ~samples:(Dataset.num_samples d) ~pairs:(Dataset.num_pairs d)
      in
      Tmest_snmp.Collect.mean_absolute_rate_error r ~true_rates:truth < 0.06)

(* 7. Fanout estimation always returns per-source distributions. *)
let prop_fanout_stochastic =
  prop "fanout rows are distributions" 5 (fun seed ->
      let d = dataset_of_seed seed in
      let loads = Dataset.busy_load_samples d ~window:5 in
      let r =
        Fanout.estimate
          (Tmest_core.Workspace.create d.Dataset.routing)
          ~load_samples:loads
      in
      let n = Dataset.num_nodes d in
      let ok = ref true in
      for src = 0 to n - 1 do
        let total = ref 0. in
        Odpairs.iter ~nodes:n (fun p s _ ->
            if s = src then begin
              if r.Fanout.fanouts.(p) < -1e-9 then ok := false;
              total := !total +. r.Fanout.fanouts.(p)
            end);
        if abs_float (!total -. 1.) > 1e-6 then ok := false
      done;
      !ok)

(* 8. Estimates survive a save/load round-trip of the dataset. *)
let prop_io_roundtrip_estimation =
  prop "io round-trip preserves the estimation problem" 4 (fun seed ->
      let d = dataset_of_seed seed in
      let truth, _ = snapshot d in
      let nodes = Dataset.num_nodes d in
      let topo' =
        Tmest_io.Topology_io.of_string ~name:"mem"
          (Tmest_io.Topology_io.to_string d.Dataset.topo)
      in
      let routing = Routing.shortest_path topo' in
      let routing0 = Routing.shortest_path d.Dataset.topo in
      ignore nodes;
      (* Same topology -> identical routing matrices. *)
      Mat.equal ~eps:1e-12 (Routing.dense routing) (Routing.dense routing0)
      && Vec.equal ~eps:1.
           (Routing.link_loads routing truth)
           (Routing.link_loads routing0 truth))

let () =
  Alcotest.run "integration"
    [
      ( "pipeline-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_loads_consistent;
            prop_gravity_total;
            prop_wcb_contains;
            prop_entropy_consistency;
            prop_bayes_interpolates;
            prop_snmp_recovery;
            prop_fanout_stochastic;
            prop_io_roundtrip_estimation;
          ] );
    ]
