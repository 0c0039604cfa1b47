module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Stop = Tmest_opt.Stop
module Obs = Tmest_obs.Obs

type prior_kind = Workspace.prior_kind =
  | Prior_gravity
  | Prior_wcb
  | Prior_uniform

type t =
  | Gravity
  | Kruithof of { prior : prior_kind }
  | Entropy of { sigma2 : float; prior : prior_kind }
  | Bayes of { sigma2 : float; prior : prior_kind }
  | Wcb_midpoint
  | Fanout of { window : int }
  | Vardi of { sigma_inv2 : float; window : int }
  | Cao of { phi : float; c : float; sigma_inv2 : float; window : int }
  | Tomogravity_iter of { prior : prior_kind }
  | Cumulant of { w2 : float; w3 : float; window : int }
  | Mcmc_int of { samples : int; thin : int; chains : int }

let name = function
  | Gravity -> "gravity"
  | Kruithof _ -> "kruithof"
  | Entropy _ -> "entropy"
  | Bayes _ -> "bayes"
  | Wcb_midpoint -> "wcb"
  | Fanout _ -> "fanout"
  | Vardi _ -> "vardi"
  | Cao _ -> "cao"
  | Tomogravity_iter _ -> "tomogravity_iter"
  | Cumulant _ -> "cumulant"
  | Mcmc_int _ -> "mcmc_int"

let of_name = function
  | "gravity" -> Gravity
  | "kruithof" -> Kruithof { prior = Prior_gravity }
  | "entropy" -> Entropy { sigma2 = 1000.; prior = Prior_gravity }
  | "bayes" -> Bayes { sigma2 = 1000.; prior = Prior_gravity }
  | "wcb" -> Wcb_midpoint
  | "fanout" -> Fanout { window = 10 }
  | "vardi" -> Vardi { sigma_inv2 = 0.01; window = 50 }
  | "cao" -> Cao { phi = 1.; c = 1.5; sigma_inv2 = 0.01; window = 50 }
  | "tomogravity_iter" -> Tomogravity_iter { prior = Prior_gravity }
  | "cumulant" -> Cumulant { w2 = 0.1; w3 = 0.01; window = 50 }
  | "mcmc_int" -> Mcmc_int { samples = 200; thin = 2; chains = 4 }
  | s -> invalid_arg (Printf.sprintf "Estimator.of_name: unknown method %S" s)

let all_names () =
  [
    "gravity"; "kruithof"; "entropy"; "bayes"; "wcb"; "fanout"; "vardi";
    "cao"; "tomogravity_iter"; "cumulant"; "mcmc_int";
  ]

let uses_time_series = function
  | Gravity | Kruithof _ | Entropy _ | Bayes _ | Wcb_midpoint
  | Tomogravity_iter _ | Mcmc_int _ -> false
  | Fanout _ | Vardi _ | Cao _ | Cumulant _ -> true

(* The one capability split: LP-based worst-case bounds walk a dense
   simplex tableau per demand and are a documented dense-only
   exclusion; every other method (including all three related-work
   additions) has a matrix-free path and runs on sparse-mode
   workspaces.  Drivers (CLI listings, experiment sweeps, bench rows,
   the daemon) must consult this predicate rather than hard-coding
   method names. *)
let supports_sparse = function Wcb_midpoint -> false | _ -> true

module Options = struct
  type t = {
    warm : bool;
    warm_tag : string option;
    x0 : Vec.t option;
    sink : Obs.sink;
    degrade : Degrade.policy option;
    precond : Workspace.precond_kind;
  }

  let default =
    {
      warm = false;
      warm_tag = None;
      x0 = None;
      sink = Obs.null;
      degrade = None;
      precond = Workspace.Precond_auto;
    }

  let make ?(warm = false) ?warm_tag ?x0 ?(sink = Obs.null) ?degrade
      ?(precond = Workspace.Precond_auto) () =
    { warm; warm_tag; x0; sink; degrade; precond }

  let with_warm_tag tag t = { t with warm_tag = Some tag }
end

let prior kind ws ~loads =
  Workspace.cached_prior ws ~kind ~loads ~compute:(fun () ->
      match kind with
      | Prior_gravity -> Gravity.simple (Workspace.routing ws) ~loads
      | Prior_wcb -> Wcb.midpoint (Wcb.bounds ws ~loads)
      | Prior_uniform ->
          let p = Workspace.num_pairs ws in
          let total = Workspace.total_traffic ws ~loads in
          Vec.create p (total /. float_of_int p))

let last_window samples window =
  let k = Mat.rows samples in
  let window = Stdlib.max 2 (Stdlib.min window k) in
  Mat.submatrix samples ~row:(k - window) ~col:0 ~rows:window
    ~cols:(Mat.cols samples)

let prior_tag = function
  | Prior_gravity -> "gravity"
  | Prior_wcb -> "wcb"
  | Prior_uniform -> "uniform"

(* Warm-start cache keys: method plus every parameter that changes the
   optimization problem (the load vector deliberately excluded — the
   point is to start the next window from this window's solution). *)
let warm_key = function
  | Gravity | Kruithof _ | Wcb_midpoint -> None
  | Entropy { sigma2; prior } ->
      Some (Printf.sprintf "entropy:sigma2=%h:prior=%s" sigma2 (prior_tag prior))
  | Bayes { sigma2; prior } ->
      Some (Printf.sprintf "bayes:sigma2=%h:prior=%s" sigma2 (prior_tag prior))
  | Fanout { window } -> Some (Printf.sprintf "fanout:window=%d" window)
  | Vardi { sigma_inv2; window } ->
      Some (Printf.sprintf "vardi:sigma_inv2=%h:window=%d" sigma_inv2 window)
  | Cao { phi; c; sigma_inv2; window } ->
      Some
        (Printf.sprintf "cao:phi=%h:c=%h:sigma_inv2=%h:window=%d" phi c
           sigma_inv2 window)
  (* Tomogravity_iter always iterates from the prior (a warm start
     would change which point the alternating projection converges to)
     and Mcmc_int restarts its chains from the prior by construction —
     both are deliberately warm-start-free, so warm solves stay
     bit-identical to cold ones. *)
  | Tomogravity_iter _ | Mcmc_int _ -> None
  | Cumulant { w2; w3; window } ->
      Some (Printf.sprintf "cumulant:w2=%h:w3=%h:window=%d" w2 w3 window)

let solve ?(opts = Options.default) t ws ~loads ~load_samples =
  let t0 = Obs.Clock.now_ns () in
  (* Allocation accounting for the peak-words counter: the delta of the
     calling domain's cumulative allocation (minor + major, in words)
     over the whole solve.  At scale this is the witness that no code
     path materialized a dense n_od x n_od matrix. *)
  let w0 = Gc.allocated_bytes () in
  let sink =
    if Obs.is_null opts.Options.sink then Workspace.sink ws
    else opts.Options.sink
  in
  (* Methods fall back to the workspace sink on their own; building the
     [stop] explicitly here matters only when the caller routed a
     different sink through [opts]. *)
  let stop = Stop.make ~sink () in
  (* Degraded mode: repair the measurements before any method sees
     them.  Snapshot-only methods skip the window so a clean snapshot
     stays on the fast path even when the window has gaps. *)
  let loads, load_samples =
    match opts.Options.degrade with
    | None -> (loads, load_samples)
    | Some policy ->
        (* The WCB linear programs need an exactly consistent system;
           everything else prefers the minimal row-local repair. *)
        let policy =
          match t with
          | Wcb_midpoint -> { policy with Degrade.feasible = true }
          | _ -> policy
        in
        if uses_time_series t then begin
          let r = Degrade.repair ~sink policy ws ~loads ~samples:load_samples () in
          ( r.Degrade.loads,
            match r.Degrade.samples with
            | Some m -> m
            | None -> load_samples )
        end
        else
          let r = Degrade.repair ~sink policy ws ~loads () in
          (r.Degrade.loads, load_samples)
  in
  let key = if opts.Options.warm then warm_key t else None in
  (* A tag isolates this caller's warm-start chain from others sharing
     the workspace — parallel window scans tag by chunk so each chunk
     chains through its own cache entry. *)
  let key =
    match (key, opts.Options.warm_tag) with
    | Some k, Some tag -> Some (k ^ "#" ^ tag)
    | _ -> key
  in
  let x0 =
    match opts.Options.x0 with
    | Some _ as explicit -> explicit
    | None -> (
        match key with
        | Some key ->
            Workspace.warm_start ws ~key ~dim:(Workspace.num_pairs ws)
        | None -> None)
  in
  let store v =
    match key with
    | Some key -> Workspace.store_warm_start ws ~key v
    | None -> ()
  in
  let precond = opts.Options.precond in
  let note iters = Workspace.note_iterations ws ~name:(name t) ~iterations:iters in
  let run () =
    match t with
    | Gravity -> Gravity.simple (Workspace.routing ws) ~loads
    | Kruithof { prior = kind } ->
        let prior = prior kind ws ~loads in
        Kruithof.adjust ~stop ws ~loads ~prior
    | Entropy { sigma2; prior = kind } ->
        let prior = prior kind ws ~loads in
        let res = Entropy.estimate ?x0 ~stop ~precond ws ~loads ~prior ~sigma2 in
        note res.Entropy.iterations;
        store res.Entropy.estimate;
        res.Entropy.estimate
    | Bayes { sigma2; prior = kind } ->
        let prior = prior kind ws ~loads in
        let res = Bayes.estimate ?x0 ~stop ~precond ws ~loads ~prior ~sigma2 in
        note res.Bayes.iterations;
        store res.Bayes.estimate;
        res.Bayes.estimate
    | Wcb_midpoint -> Wcb.midpoint (Wcb.bounds ws ~loads)
    | Fanout { window } ->
        let samples = last_window load_samples window in
        (* The natural warm-start state is the fanout vector, not the
           demand estimate it expands to. *)
        let res = Fanout.estimate ?x0 ~stop ~precond ws ~load_samples:samples in
        note res.Fanout.iterations;
        store res.Fanout.fanouts;
        res.Fanout.estimate
    | Vardi { sigma_inv2; window } ->
        let samples = last_window load_samples window in
        let res =
          Vardi.estimate ?x0 ~stop ~precond ws ~load_samples:samples ~sigma_inv2
        in
        note res.Vardi.iterations;
        store res.Vardi.estimate;
        res.Vardi.estimate
    | Cao { phi; c; sigma_inv2; window } ->
        let samples = last_window load_samples window in
        let res =
          Cao.estimate ?x0 ~stop ~precond ws ~load_samples:samples ~phi ~c
            ~sigma_inv2
        in
        note res.Cao.iterations;
        store res.Cao.estimate;
        res.Cao.estimate
    | Tomogravity_iter { prior = kind } ->
        let prior = prior kind ws ~loads in
        let res = Tomogravity.estimate ~stop ws ~loads ~prior in
        note res.Tomogravity.iterations;
        res.Tomogravity.estimate
    | Cumulant { w2; w3; window } ->
        let samples = last_window load_samples window in
        let res =
          Cumulant.estimate ?x0 ~stop ~precond ws ~load_samples:samples ~w2 ~w3
        in
        note res.Cumulant.iterations;
        store res.Cumulant.estimate;
        res.Cumulant.estimate
    | Mcmc_int { samples; thin; chains } ->
        let prior = prior Prior_gravity ws ~loads in
        let res = Mcmc_int.estimate ~samples ~thin ~chains ws ~loads ~prior () in
        note res.Mcmc_int.sweeps;
        res.Mcmc_int.mean
  in
  let estimate =
    if sink.Obs.enabled then
      Obs.span sink
        ("solve/" ^ name t)
        ~args:
          [
            ("method", Obs.String (name t));
            ("warm", Obs.Bool opts.Options.warm);
          ]
        run
    else run ()
  in
  Workspace.record_solve ws
    ~seconds:(Obs.Clock.seconds_since t0)
    ~words:((Gc.allocated_bytes () -. w0) /. 8.);
  estimate
