module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Csr = Tmest_linalg.Csr
module Fista = Tmest_opt.Fista
module Projections = Tmest_opt.Projections
module Stop = Tmest_opt.Stop
module Routing = Tmest_net.Routing
module Topology = Tmest_net.Topology
module Odpairs = Tmest_net.Odpairs

type result = {
  fanouts : Vec.t;
  estimate : Vec.t;
  iterations : int;
}

(* The constrained least-squares problem

     min Σ_k ‖R S[k] α − t[k]‖²  s.t.  α in per-source simplices

   is solved by accelerated projected gradient with an exact Euclidean
   projection onto the product of probability simplices.  A KKT solve
   would be simpler on paper but the Hessian's blocks are scaled by
   squared node totals, whose spread (heavy-tailed PoP sizes) makes the
   KKT system numerically hopeless; projection-based iterations only
   ever evaluate well-scaled matrix-vector products. *)
let estimate ?x0 ?(stop = Stop.default) ?(precond = Workspace.Precond_none) ws
    ~load_samples =
  let stop =
    Workspace.solver_stop ws stop ~label:"fanout/fista" ~max_iter:4000
      ~tol:1e-10
  in
  let routing = Workspace.routing ws in
  let ingress = Workspace.ingress_rows ws in
  let l = Routing.num_links routing in
  let p = Routing.num_pairs routing in
  let n = Topology.num_nodes routing.Routing.topo in
  let k = Mat.rows load_samples in
  if k = 0 then invalid_arg "Fanout.estimate: empty load window";
  if Mat.cols load_samples <> l then
    invalid_arg "Fanout.estimate: load samples do not match routing matrix";
  (* Normalize loads by the average total network traffic. *)
  let scale = ref 0. in
  for step = 0 to k - 1 do
    for node = 0 to n - 1 do
      scale := !scale +. Mat.get load_samples step ingress.(node)
    done
  done;
  let scale = Stdlib.max (!scale /. float_of_int k) 1. in
  let te = Mat.zeros k n in
  for step = 0 to k - 1 do
    for node = 0 to n - 1 do
      Mat.set te step node (Mat.get load_samples step ingress.(node) /. scale)
    done
  done;
  let src_of = Array.init p (fun pair -> Odpairs.source ~nodes:n pair) in
  (* lin_p = Σ_k te_src(p)[k] (Rᵀ t[k])_p, so grad = 2(Hα − lin). *)
  let lin = Vec.zeros p in
  for step = 0 to k - 1 do
    let t_k = Vec.scale (1. /. scale) (Mat.row load_samples step) in
    let rt = Csr.tmatvec routing.Routing.matrix t_k in
    for pair = 0 to p - 1 do
      lin.(pair) <-
        lin.(pair) +. (Mat.get te step src_of.(pair) *. rt.(pair))
    done
  done;
  (* H = G ∘ W(src,src) with W = Σ_k te[k] te[k]ᵀ.  Dense mode
     materializes H (historical path); sparse mode never forms it —
     the original objective min Σ_k ‖R S[k] α − t[k]‖² with
     S[k] = diag(te[k] ∘ src) gives Hα = Σ_k S[k] Rᵀ(R S[k] α)
     directly, one pooled matvec pair per window sample. *)
  let apply_h_into, lipschitz =
    if Workspace.is_sparse ws then begin
      let r_op = Workspace.op ws in
      let pbufs = Workspace.scratch ws ~name:"fanout.h" ~dim:p ~count:2 in
      let sa = pbufs.(0) and z = pbufs.(1) in
      let y = (Workspace.scratch ws ~name:"fanout.h.links" ~dim:l ~count:1).(0)
      in
      let apply_h_into a ~dst =
        Array.fill dst 0 p 0.;
        for step = 0 to k - 1 do
          for pair = 0 to p - 1 do
            sa.(pair) <- Mat.get te step src_of.(pair) *. a.(pair)
          done;
          Tmest_linalg.Op.apply_into r_op sa ~dst:y;
          Tmest_linalg.Op.apply_t_into r_op y ~dst:z;
          for pair = 0 to p - 1 do
            dst.(pair) <-
              dst.(pair) +. (Mat.get te step src_of.(pair) *. z.(pair))
          done
        done
      in
      let lipschitz =
        2.
        *. Workspace.lipschitz_of_op ws ~dim:p (fun a ->
               let dst = Vec.zeros p in
               apply_h_into a ~dst;
               dst)
      in
      (apply_h_into, lipschitz)
    end
    else begin
      let w = Mat.zeros n n in
      for step = 0 to k - 1 do
        for a = 0 to n - 1 do
          let ta = Mat.get te step a in
          if ta <> 0. then
            for b = 0 to n - 1 do
              Mat.set w a b (Mat.get w a b +. (ta *. Mat.get te step b))
            done
        done
      done;
      let g = Workspace.gram ws in
      let h =
        Mat.init p p (fun i j ->
            Mat.unsafe_get g i j *. Mat.get w src_of.(i) src_of.(j))
      in
      let apply_h_into a ~dst = Mat.matvec_into h a ~dst in
      ( apply_h_into,
        2. *. Workspace.lipschitz_of_op ws ~dim:p (Mat.matvec h) )
    end
  in
  let gradient_into a ~dst =
    apply_h_into a ~dst;
    Vec.sub_into dst lin ~dst;
    Vec.scale_into 2. dst ~dst
  in
  (* Preconditioning must keep the per-source simplex projection exact,
     which requires the metric to be constant within each source block
     (a uniformly scaled simplex projection is still the Euclidean one).
     Use d_s = 2·W(s,s)·max_{i in block s} g_i, the tightest
     block-constant bound on the exact curvature diagonal
     H_ii = 2·g_i·W(src(i),src(i)).  Depends on the load window, so it
     is recomputed per call (O(p)) rather than memoized.

     [Precond_auto] resolves to {e no} preconditioning for this method:
     the block-constant metric is too coarse to cut iterations on the
     measured instances (both paths hit the cap at 100 PoPs) and the
     intermediate iterate it stops on is worse.  Explicit selection
     stays available. *)
  let dinv, lipschitz =
    match precond with
    | Workspace.Precond_none | Workspace.Precond_auto -> (None, lipschitz)
    | Workspace.Precond_jacobi ->
        let wdiag = Vec.zeros n in
        for step = 0 to k - 1 do
          for node = 0 to n - 1 do
            let t = Mat.get te step node in
            wdiag.(node) <- wdiag.(node) +. (t *. t)
          done
        done;
        let gdiag = Workspace.gram_diag ws in
        let gmax = Vec.zeros n in
        for pair = 0 to p - 1 do
          let s = src_of.(pair) in
          if gdiag.(pair) > gmax.(s) then gmax.(s) <- gdiag.(pair)
        done;
        let dinv =
          Vec.init p (fun pair ->
              let s = src_of.(pair) in
              let d = 2. *. wdiag.(s) *. gmax.(s) in
              if d > 0. then 1. /. d else 1.)
        in
        let ds = Vec.map sqrt dinv in
        let lipschitz =
          Workspace.lipschitz_of_op ws ~dim:p (fun a ->
              let dst = Vec.zeros p in
              apply_h_into (Vec.mul ds a) ~dst;
              Vec.mapi (fun i hi -> 2. *. hi *. ds.(i)) dst)
        in
        (Some dinv, lipschitz)
  in
  (* FISTA with the per-source simplex projection, started from uniform
     fanouts (or a warm-started fanout vector); the historical
     hand-rolled loop here is now the generic allocation-free solver
     with a block-simplex [project_into]. *)
  let part = Projections.block_partition ~block:src_of in
  let start =
    match x0 with
    | Some v ->
        if Array.length v <> p then
          invalid_arg "Fanout.estimate: x0 dimension mismatch";
        v
    | None -> Vec.create p (1. /. float_of_int (n - 1))
  in
  (* Traced runs only; allocates freely. *)
  let objective a =
    let ha = Vec.zeros p in
    apply_h_into a ~dst:ha;
    Vec.dot a ha -. (2. *. Vec.dot lin a)
  in
  let res =
    Fista.solve_into ~x0:start ~stop
      ~scratch:
        (Workspace.scratch ws ~name:"fista" ~dim:p ~count:Fista.scratch_size)
      ~project_into:(fun v ~dst -> Projections.block_simplex_into part v ~dst)
      ~objective ?dinv ~dim:p ~gradient_into ~lipschitz ()
  in
  let fanouts = res.Fista.x in
  (* Demand estimate against the window-average totals (in bits/s). *)
  let te_mean = Vec.zeros n in
  for step = 0 to k - 1 do
    for node = 0 to n - 1 do
      te_mean.(node) <- te_mean.(node) +. Mat.get te step node
    done
  done;
  let te_mean = Vec.scale (scale /. float_of_int k) te_mean in
  let estimate =
    Vec.mapi (fun pair a -> a *. te_mean.(src_of.(pair))) fanouts
  in
  { fanouts; estimate; iterations = res.Fista.iterations }

let demands_of_fanouts ws ~fanouts ~loads =
  let routing = Workspace.routing ws in
  Problem.check_dims routing ~loads;
  let n = Topology.num_nodes routing.Routing.topo in
  let p = Routing.num_pairs routing in
  if Array.length fanouts <> p then
    invalid_arg "Fanout.demands_of_fanouts: dimension mismatch";
  let te, _ = Gravity.node_totals routing ~loads in
  Vec.mapi
    (fun pair a -> a *. te.(Odpairs.source ~nodes:n pair))
    fanouts
