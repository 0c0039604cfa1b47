open Tmest_linalg
open Tmest_net
open Tmest_te

let check_float eps = Alcotest.(check (float eps))

let triangle () =
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
  Topology.build ~name:"triangle" nodes
    [ (0, 1, 10e9, 1.); (1, 2, 10e9, 1.); (0, 2, 10e9, 5.) ]

let small_dataset =
  lazy
    (Tmest_traffic.Dataset.generate
       { (Tmest_traffic.Spec.scaled ~nodes:6 ~directed_links:28
            Tmest_traffic.Spec.europe)
         with Tmest_traffic.Spec.seed = 31 })

(* ------------------------------------------------------------------ *)
(* Utilization                                                         *)
(* ------------------------------------------------------------------ *)

let test_congestion_cost_shape () =
  let c = 1e9 in
  (* Linear (slope 1) in the low-load regime. *)
  check_float 1. "low load" 1e8 (Utilization.congestion_cost ~load:1e8 ~capacity:c);
  (* Convex and increasing. *)
  let costs =
    List.map
      (fun u -> Utilization.congestion_cost ~load:(u *. c) ~capacity:c)
      [ 0.2; 0.5; 0.8; 0.95; 1.05; 1.2 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "increasing" true (increasing costs);
  (* Continuity at a breakpoint (u = 2/3). *)
  let below =
    Utilization.congestion_cost ~load:((2. /. 3. -. 1e-9) *. c) ~capacity:c
  in
  let above =
    Utilization.congestion_cost ~load:((2. /. 3. +. 1e-9) *. c) ~capacity:c
  in
  Alcotest.(check bool) "continuous" true (abs_float (above -. below) < 100.)

let test_utilization_report () =
  let t = triangle () in
  let routing = Routing.shortest_path t in
  let p = Odpairs.count 3 in
  let demands = Vec.zeros p in
  demands.(Odpairs.index ~nodes:3 ~src:0 ~dst:1) <- 5e9;
  let r = Utilization.of_demands routing ~demands in
  check_float 1e-9 "max util" 0.5 r.Utilization.max_utilization;
  let l = t.Topology.links.(r.Utilization.max_link) in
  Alcotest.(check bool) "right link" true
    (l.Topology.src = 0 && l.Topology.dst = 1)

let test_headroom () =
  let t = triangle () in
  let routing = Routing.shortest_path t in
  let p = Odpairs.count 3 in
  let demands = Vec.zeros p in
  demands.(Odpairs.index ~nodes:3 ~src:0 ~dst:1) <- 9e9;
  demands.(Odpairs.index ~nodes:3 ~src:1 ~dst:2) <- 5e9;
  let loads = Routing.link_loads routing demands in
  let over = Utilization.headroom t ~loads ~threshold:0.8 in
  Alcotest.(check int) "one overloaded" 1 (List.length over);
  let _, u = List.hd over in
  check_float 1e-9 "busiest first" 0.9 u

(* ------------------------------------------------------------------ *)
(* Weight optimization                                                 *)
(* ------------------------------------------------------------------ *)

let test_with_weight_changes_routing () =
  let t = triangle () in
  (* Make the 0->1 link unattractive: traffic 0->1 detours via 2. *)
  let link01 =
    (List.find
       (fun l -> l.Topology.src = 0 && l.Topology.dst = 1)
       (Topology.interior_links t))
      .Topology.link_id
  in
  let t' = Weight_opt.with_weight t ~link:link01 ~metric:100. in
  match Dijkstra.shortest_path t' ~src:0 ~dst:1 with
  | Some path -> Alcotest.(check int) "detour" 2 (List.length path)
  | None -> Alcotest.fail "no path"

let test_with_weight_rejects_access_links () =
  let t = triangle () in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Weight_opt.with_weight t ~link:(Topology.ingress_link t 0)
            ~metric:2.);
       false
     with Invalid_argument _ -> true)

let test_optimize_reduces_congestion () =
  (* Overload one link: two big demands forced onto 0->1 by metrics.
     The optimizer must split them apart. *)
  let t = triangle () in
  let p = Odpairs.count 3 in
  let demands = Vec.zeros p in
  demands.(Odpairs.index ~nodes:3 ~src:0 ~dst:1) <- 7e9;
  demands.(Odpairs.index ~nodes:3 ~src:0 ~dst:2) <- 7e9;
  (* Both go over 0->1 (0->2 routes via 1 at metric 2 < 5): 14 Gbps on a
     10 Gbps link. *)
  let before = Weight_opt.evaluate t ~demands in
  Alcotest.(check bool) "initially overloaded" true
    (before.Utilization.max_utilization > 1.);
  let r = Weight_opt.optimize t ~demands in
  Alcotest.(check bool) "cost reduced" true
    (r.Weight_opt.cost < r.Weight_opt.initial_cost);
  Alcotest.(check bool)
    (Printf.sprintf "max util %.2f below 1" r.Weight_opt.max_utilization)
    true
    (r.Weight_opt.max_utilization <= 1.0 +. 1e-9);
  Alcotest.(check bool) "made moves" true (r.Weight_opt.moves > 0)

let test_optimize_never_hurts_when_uncongested () =
  (* Uncongested network: the cost is pure path length, which the
     optimizer may still shorten (the direct 0-2 edge is unattractive at
     metric 5) but must never worsen. *)
  let t = triangle () in
  let p = Odpairs.count 3 in
  let demands = Vec.create p 1e6 in
  let r = Weight_opt.optimize t ~demands in
  Alcotest.(check bool) "cost not increased" true
    (r.Weight_opt.cost <= r.Weight_opt.initial_cost +. 1e-9);
  Alcotest.(check bool) "still uncongested" true
    (r.Weight_opt.max_utilization < 0.01)

let test_optimize_on_dataset () =
  let d = Lazy.force small_dataset in
  let demands = Tmest_traffic.Dataset.busy_mean_demand d in
  let topo = d.Tmest_traffic.Dataset.topo in
  let r = Weight_opt.optimize ~max_passes:3 topo ~demands in
  Alcotest.(check bool) "never worse" true
    (r.Weight_opt.cost <= r.Weight_opt.initial_cost +. 1e-6)

let () =
  Alcotest.run "te"
    [
      ( "utilization",
        [
          Alcotest.test_case "cost shape" `Quick test_congestion_cost_shape;
          Alcotest.test_case "report" `Quick test_utilization_report;
          Alcotest.test_case "headroom" `Quick test_headroom;
        ] );
      ( "weights",
        [
          Alcotest.test_case "with_weight" `Quick
            test_with_weight_changes_routing;
          Alcotest.test_case "access rejected" `Quick
            test_with_weight_rejects_access_links;
          Alcotest.test_case "reduces congestion" `Quick
            test_optimize_reduces_congestion;
          Alcotest.test_case "uncongested" `Quick
            test_optimize_never_hurts_when_uncongested;
          Alcotest.test_case "dataset" `Quick test_optimize_on_dataset;
        ] );
    ]
