(** Evaluation datasets: topology + CSPF routing + measured demands.

    Mirrors the paper's evaluation data set (Section 5.1.4): the demands
    are the ground-truth traffic matrix time series, the routing matrix
    comes from a simulated CSPF over the generated topology, and link
    loads are *derived* as [t = R s], so routing, demands and loads are
    consistent by construction. *)

type t = {
  spec : Spec.t;
  topo : Tmest_net.Topology.t;
  routing : Tmest_net.Routing.t;
  truth : Demand_gen.ground_truth;
}

(** [generate spec] builds topology, demands and the CSPF LSP-mesh
    routing (LSP bandwidth values are the busy-period mean demands, as
    an operator would size them). *)
val generate : Spec.t -> t

(** [europe ()] and [america ()] are the paper-scale datasets.
    [?seed] overrides the spec's seed (for sensitivity runs). *)
val europe : ?seed:int -> unit -> t

val america : ?seed:int -> unit -> t

(** [synthetic ~pops ()] is a [pops]-PoP hierarchical backbone
    ({!Tmest_net.Topology.generate_hierarchical}) with gravity-consistent
    demands over a short measurement day (64 samples), routed on plain
    IGP shortest paths.  Sized for the sparse-mode scaling studies
    (100–500 PoPs); above the workspace sparse gate the solvers run
    matrix-free on it.  [?seed] defaults to a fixed study seed. *)
val synthetic : ?seed:int -> pops:int -> unit -> t

val num_nodes : t -> int
val num_pairs : t -> int
val num_links : t -> int
val num_samples : t -> int

(** [demand_at t k] is the demand vector of sample [k] (bits/s). *)
val demand_at : t -> int -> Tmest_linalg.Vec.t

(** [link_loads_at t k] is [R s[k]]. *)
val link_loads_at : t -> int -> Tmest_linalg.Vec.t

(** [busy_samples t] is the list of sample indices of the evaluation
    busy period. *)
val busy_samples : t -> int list

(** [busy_load_samples t ~window] is the [window x L] matrix of link
    loads at the last [window] busy-period samples, oldest first
    ([window] is clamped to the busy-period length).  Each row is one
    {!link_loads_at}. *)
val busy_load_samples : t -> window:int -> Tmest_linalg.Mat.t

(** [busy_mean_demand t] is the mean demand vector over the busy
    period — the reference value of the time-series evaluations. *)
val busy_mean_demand : t -> Tmest_linalg.Vec.t

(** [total_series t] is the total network traffic per sample. *)
val total_series : t -> float array

(** [node_ingress_totals t k] is [te(n)] per node at sample [k]
    (equals the row sums of the TM); [node_egress_totals] gives
    [tx(m)]. *)
val node_ingress_totals : t -> int -> Tmest_linalg.Vec.t

val node_egress_totals : t -> int -> Tmest_linalg.Vec.t

(** [fanouts_at t k] is the fanout vector [alpha] at sample [k]:
    [alpha.(p) = s.(p) / te(src p)] (0 when the node total is 0). *)
val fanouts_at : t -> int -> Tmest_linalg.Vec.t

(** [demand_series t p] is demand [p]'s time series. *)
val demand_series : t -> int -> float array

(** [poisson_series t ~unit_bps ~samples ~seed] generates the synthetic
    Poisson traffic-matrix series of Section 5.3.4 / Fig. 12: each
    element is an independent Poisson draw with the busy-period mean
    intensity, in quanta of [unit_bps]. *)
val poisson_series :
  t -> unit_bps:float -> samples:int -> seed:int -> Tmest_linalg.Mat.t
