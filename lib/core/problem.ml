let log_src =
  Logs.Src.create "tmest.core" ~doc:"Traffic-matrix estimation solvers"

module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Csr = Tmest_linalg.Csr
module Routing = Tmest_net.Routing
module Topology = Tmest_net.Topology

let check_dims routing ~loads =
  if Array.length loads <> Routing.num_links routing then
    invalid_arg "load vector does not match the routing matrix"

let total_traffic routing ~loads =
  check_dims routing ~loads;
  let n = Topology.num_nodes routing.Routing.topo in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. loads.(Routing.ingress_row routing i)
  done;
  !acc

let path_variances rt sigma =
  Array.init (Csr.rows rt) (fun pair ->
      let links = Csr.row_nonzeros rt pair in
      let acc = ref 0. in
      List.iter
        (fun (i, ri) ->
          List.iter
            (fun (j, rj) -> acc := !acc +. (ri *. rj *. Mat.get sigma i j))
            links)
        links;
      !acc)

let residual_norm routing ~loads estimate =
  check_dims routing ~loads;
  let r = Routing.link_loads routing estimate in
  let d = Vec.dist2 r loads in
  let n = Vec.norm2 loads in
  if n = 0. then d else d /. n
