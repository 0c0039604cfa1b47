(* Scratch timing probe used during development; kept as a fast sanity
   runner: times the iterative methods on a generated backbone under
   each preconditioning policy and prints iteration counts, so
   solver-stack changes can be judged before a full --scale sweep. *)

module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec
module Mat = Tmest_linalg.Mat
module Vec = Tmest_linalg.Vec
module Stop = Tmest_opt.Stop
module Core = Tmest_core

let () =
  let pops =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 100
  in
  let max_iter =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 20000
  in
  let t0 = Unix.gettimeofday () in
  let d = Dataset.synthetic ~pops () in
  Printf.printf "dataset %d pops: %d pairs %d links (%.1fs)\n%!" pops
    (Dataset.num_pairs d) (Dataset.num_links d)
    (Unix.gettimeofday () -. t0);
  let ws = Core.Workspace.create d.Dataset.routing in
  let spec = d.Dataset.spec in
  let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
  let loads = Dataset.link_loads_at d k in
  let truth = Dataset.demand_at d k in
  let load_samples = Dataset.busy_load_samples d ~window:8 in
  let prior = Core.Estimator.prior Core.Estimator.Prior_gravity ws ~loads in
  let stop = Stop.make ~max_iter () in
  let kinds =
    [
      ("none", Core.Workspace.Precond_none);
      ("jacobi", Core.Workspace.Precond_jacobi);
    ]
  in
  List.iter
    (fun (tag, precond) ->
      let t0 = Unix.gettimeofday () in
      let r = Core.Entropy.estimate ~stop ~precond ws ~loads ~prior ~sigma2:1000. in
      Printf.printf "entropy/%-6s: %6.2fs  iters %5d converged %b  mre %.4f\n%!"
        tag
        (Unix.gettimeofday () -. t0)
        r.Core.Entropy.iterations r.Core.Entropy.converged
        (Core.Metrics.mre ~truth ~estimate:r.Core.Entropy.estimate ()))
    kinds;
  List.iter
    (fun (tag, precond) ->
      let t0 = Unix.gettimeofday () in
      let r = Core.Bayes.estimate ~stop ~precond ws ~loads ~prior ~sigma2:1000. in
      Printf.printf "bayes/%-6s  : %6.2fs  iters %5d converged %b  mre %.4f\n%!"
        tag
        (Unix.gettimeofday () -. t0)
        r.Core.Bayes.iterations r.Core.Bayes.converged
        (Core.Metrics.mre ~truth ~estimate:r.Core.Bayes.estimate ()))
    kinds;
  List.iter
    (fun (tag, precond) ->
      let t0 = Unix.gettimeofday () in
      let r = Core.Vardi.estimate ~stop ~precond ws ~load_samples ~sigma_inv2:0.01 in
      Printf.printf "vardi/%-6s  : %6.2fs  iters %5d  mre %.4f\n%!" tag
        (Unix.gettimeofday () -. t0)
        r.Core.Vardi.iterations
        (Core.Metrics.mre ~truth ~estimate:r.Core.Vardi.estimate ()))
    kinds;
  List.iter
    (fun (tag, precond) ->
      let t0 = Unix.gettimeofday () in
      let r = Core.Fanout.estimate ~stop ~precond ws ~load_samples in
      Printf.printf "fanout/%-6s : %6.2fs  iters %5d  mre %.4f\n%!" tag
        (Unix.gettimeofday () -. t0)
        r.Core.Fanout.iterations
        (Core.Metrics.mre ~truth:(Dataset.busy_mean_demand d)
           ~estimate:r.Core.Fanout.estimate ()))
    kinds
