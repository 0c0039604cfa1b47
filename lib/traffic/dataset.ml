module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Rng = Tmest_stats.Rng
module Dist = Tmest_stats.Dist
module Topology = Tmest_net.Topology
module Routing = Tmest_net.Routing
module Odpairs = Tmest_net.Odpairs

type t = {
  spec : Spec.t;
  topo : Topology.t;
  routing : Routing.t;
  truth : Demand_gen.ground_truth;
}

let busy_samples_of_spec (spec : Spec.t) =
  List.init spec.Spec.busy_len (fun i -> spec.Spec.busy_start + i)

(* Keep the busy window inside the sample range when a spec shortens the
   measurement period (small test datasets). *)
let clamp_busy (spec : Spec.t) =
  let busy_len = Stdlib.min spec.Spec.busy_len spec.Spec.samples in
  let busy_start =
    Stdlib.max 0 (Stdlib.min spec.Spec.busy_start (spec.Spec.samples - busy_len))
  in
  { spec with Spec.busy_start; busy_len }

let generate spec =
  let spec = clamp_busy spec in
  let topo =
    Topology.generate ~name:spec.Spec.name ~seed:spec.Spec.seed
      ~nodes:spec.Spec.nodes ~directed_links:spec.Spec.directed_links
      spec.Spec.cities
  in
  let truth = Demand_gen.generate spec topo in
  (* LSP bandwidth values: busy-period mean demand per pair, the figure
     an operator would configure from measurements. *)
  let p = Odpairs.count spec.Spec.nodes in
  let busy = busy_samples_of_spec spec in
  let bandwidths = Vec.zeros p in
  List.iter
    (fun k ->
      for pair = 0 to p - 1 do
        bandwidths.(pair) <-
          bandwidths.(pair) +. Mat.get truth.Demand_gen.demands k pair
      done)
    busy;
  let scale = 1. /. float_of_int (List.length busy) in
  let bandwidths = Vec.scale scale bandwidths in
  let routing = Routing.cspf_mesh topo ~bandwidths in
  { spec; topo; routing; truth }

(* A [pops]-PoP hierarchical backbone with gravity-consistent demands
   for the sparse-mode scaling studies.  The topology comes first so the
   spec records the actual link count; routing is plain IGP shortest
   path — a CSPF mesh over hundreds of thousands of pairs would dominate
   the whole study without changing what the solvers see. *)
let synthetic ?(seed = 20260808) ~pops () =
  let name = Printf.sprintf "synthetic%d" pops in
  let topo = Topology.generate_hierarchical ~name ~seed ~pops () in
  let spec =
    clamp_busy
      {
        Spec.name;
        seed;
        nodes = pops;
        directed_links = Topology.num_links topo;
        cities = [||];
        diurnal = Diurnal.america;
        zipf_alpha = 1.5;
        locality = 0.1;
        dominant_per_node = 2;
        phi = 0.004;
        c = 1.5;
        fanout_drift = 0.05;
        small_fanout_noise = 0.4;
        peak_total_bps = float_of_int pops *. 4e9;
        samples = 64;
        busy_start = 40;
        busy_len = 16;
      }
  in
  let truth = Demand_gen.generate spec topo in
  let routing = Routing.shortest_path topo in
  { spec; topo; routing; truth }

let europe ?seed () =
  let spec = Spec.europe in
  let spec = match seed with None -> spec | Some s -> { spec with Spec.seed = s } in
  generate spec

let america ?seed () =
  let spec = Spec.america in
  let spec = match seed with None -> spec | Some s -> { spec with Spec.seed = s } in
  generate spec

let num_nodes t = Topology.num_nodes t.topo
let num_pairs t = Routing.num_pairs t.routing
let num_links t = Routing.num_links t.routing
let num_samples t = Mat.rows t.truth.Demand_gen.demands

let demand_at t k = Mat.row t.truth.Demand_gen.demands k
let link_loads_at t k = Routing.link_loads t.routing (demand_at t k)
let busy_samples t = busy_samples_of_spec t.spec

let busy_load_samples t ~window =
  let ks = Array.of_list (busy_samples t) in
  let window = Stdlib.min window (Array.length ks) in
  let ks = Array.sub ks (Array.length ks - window) window in
  (* One load extraction (CSR matvec) per row, blitted wholesale —
     never one extraction per matrix element. *)
  let m = Mat.zeros window (num_links t) in
  Array.iteri (fun i k -> Mat.set_row m i (link_loads_at t k)) ks;
  m

let busy_mean_demand t =
  let busy = busy_samples t in
  let p = num_pairs t in
  let acc = Vec.zeros p in
  List.iter (fun k -> Vec.axpy_into 1. (demand_at t k) acc ~dst:acc) busy;
  Vec.scale (1. /. float_of_int (List.length busy)) acc

let total_series t =
  Array.init (num_samples t) (fun k -> Vec.sum (demand_at t k))

let node_ingress_totals t k =
  let n = num_nodes t in
  let s = demand_at t k in
  let te = Vec.zeros n in
  Odpairs.iter ~nodes:n (fun p src _dst -> te.(src) <- te.(src) +. s.(p));
  te

let node_egress_totals t k =
  let n = num_nodes t in
  let s = demand_at t k in
  let tx = Vec.zeros n in
  Odpairs.iter ~nodes:n (fun p _src dst -> tx.(dst) <- tx.(dst) +. s.(p));
  tx

let fanouts_at t k =
  let n = num_nodes t in
  let s = demand_at t k in
  let te = node_ingress_totals t k in
  Vec.mapi
    (fun p sp ->
      let src = Odpairs.source ~nodes:n p in
      if te.(src) <= 0. then 0. else sp /. te.(src))
    s

let demand_series t p =
  Array.init (num_samples t) (fun k -> Mat.get t.truth.Demand_gen.demands k p)

let poisson_series t ~unit_bps ~samples ~seed =
  if unit_bps <= 0. then invalid_arg "Dataset.poisson_series: unit_bps <= 0";
  let p = num_pairs t in
  let lambdas = Vec.scale (1. /. unit_bps) (busy_mean_demand t) in
  (* One indexed generator per sample: row [k] depends on (seed, k)
     only, so a subset of rows — or rows drawn concurrently — matches
     the full sequential series bit for bit. *)
  Mat.of_rows
    (Array.init samples (fun k ->
         let rng = Rng.of_pair seed k in
         Array.init p (fun pair ->
             unit_bps *. float_of_int (Dist.poisson rng ~lambda:lambdas.(pair)))))
