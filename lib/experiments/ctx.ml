module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec
module Pool = Tmest_parallel.Pool
module Obs = Tmest_obs.Obs

type network = {
  label : string;
  dataset : Dataset.t;
  workspace : Tmest_core.Workspace.t;
  snapshot_k : int;
  truth : Vec.t;
  loads : Vec.t;
  gravity_prior : Vec.t Pool.Once.t;
  wcb : Tmest_core.Wcb.bounds Pool.Once.t;
  wcb_prior : Vec.t Pool.Once.t;
}

type t = {
  europe : network;
  america : network;
  pool : Pool.t;
  fast : bool;
  sink : Obs.sink;
  scale_pops : int list option;
  scale_seed : int option;
}

let make_network ~pool ~sink label dataset =
  let spec = dataset.Dataset.spec in
  let snapshot_k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
  let truth = Dataset.demand_at dataset snapshot_k in
  let loads = Dataset.link_loads_at dataset snapshot_k in
  let workspace =
    Tmest_core.Workspace.create ~pool ~sink dataset.Dataset.routing
  in
  let gravity_prior =
    Pool.Once.make (fun () ->
        Tmest_core.Estimator.prior Tmest_core.Estimator.Prior_gravity
          workspace ~loads)
  in
  let wcb = Pool.Once.make (fun () -> Tmest_core.Wcb.bounds workspace ~loads) in
  let wcb_prior =
    Pool.Once.make (fun () ->
        Tmest_core.Workspace.cached_prior workspace
          ~kind:Tmest_core.Workspace.Prior_wcb ~loads ~compute:(fun () ->
            Tmest_core.Wcb.midpoint (Pool.Once.force wcb)))
  in
  {
    label;
    dataset;
    workspace;
    snapshot_k;
    truth;
    loads;
    gravity_prior;
    wcb;
    wcb_prior;
  }

let create ?(fast = false) ?jobs ?(sink = Obs.null) ?scale_pops ?scale_seed ()
    =
  let pool =
    match jobs with Some j -> Pool.create ~jobs:j | None -> Pool.default ()
  in
  if not (Obs.is_null sink) then Pool.set_sink pool sink;
  (* The two datasets are independent; generate and wrap them as two
     pool tasks so context construction overlaps on multicore runs. *)
  let builders =
    if fast then
      [|
        (fun () ->
          make_network ~pool ~sink "Europe"
            (Dataset.generate
               { (Spec.scaled ~nodes:6 ~directed_links:28 Spec.europe) with
                 Spec.name = "europe-fast" }));
        (fun () ->
          make_network ~pool ~sink "America"
            (Dataset.generate
               { (Spec.scaled ~nodes:8 ~directed_links:44 Spec.america) with
                 Spec.name = "america-fast" }));
      |]
    else
      [|
        (fun () -> make_network ~pool ~sink "Europe" (Dataset.europe ()));
        (fun () -> make_network ~pool ~sink "America" (Dataset.america ()));
      |]
  in
  match Pool.map pool (fun build -> build ()) builders with
  | [| europe; america |] ->
      { europe; america; pool; fast; sink; scale_pops; scale_seed }
  | _ -> assert false

let pool t = t.pool
let sink t = t.sink
let networks t = [ t.europe; t.america ]

(* Scale-study networks are built on demand rather than held in the
   context: they are large, and only the scaling experiments want them.
   The workspace picks sparse mode by itself once the pair count clears
   the gate. *)
let synthetic ?seed t ~pops =
  make_network ~pool:t.pool ~sink:t.sink
    (Printf.sprintf "Synthetic-%d" pops)
    (Dataset.synthetic ?seed ~pops ())

let busy_mean net = Dataset.busy_mean_demand net.dataset

module Scan = struct
  module Options = Tmest_core.Estimator.Options
  module Workspace = Tmest_core.Workspace

  type source =
    | Busy of { window : int; steps : int }
    | Replay of { window : int; windows : int }
    | Windows of { window : int; loads : Vec.t array }

  type t = {
    source : source;
    opts : Options.t;
    tag : string option;
    pool : Pool.t option;
    on_window : (step:int -> snapshot:int -> Vec.t -> unit) option;
  }

  let make ?(opts = Options.default) ?tag ?pool ?on_window source =
    { source; opts; tag; pool; on_window }

  let samples net ~window = Dataset.busy_load_samples net.dataset ~window

  (* One engine for every source.  A source compiles down to a hoisted
     array of per-snapshot load vectors (each extracted once — one CSR
     matvec per distinct snapshot for the dataset-backed sources), a
     window-start mapping and a snapshot-label mapping; the engine
     refills a per-domain scratch samples matrix by row blits and runs
     one estimator solve per step.  The values (and therefore the
     estimates) are bit-identical to the pre-[Scan] entry points this
     replaces, which a golden test pins. *)
  type compiled = {
    loads_at : Vec.t array;
    window : int;
    steps : int;
    start_of : int -> int;  (** window start index into [loads_at] *)
    snap_of : int -> int;  (** snapshot label for step [i] *)
    arena : string;
    span : string;
    step_arg : string;
  }

  let compile net source =
    let d = net.dataset in
    match source with
    | Busy { window; steps } ->
        let ks = Array.of_list (Dataset.busy_samples d) in
        let nk = Array.length ks in
        if nk = 0 then invalid_arg "Ctx.Scan: no busy samples";
        let window = Stdlib.max 1 (Stdlib.min window nk) in
        let steps = Stdlib.max 1 (Stdlib.min steps (nk - window + 1)) in
        let base = nk - steps - window + 1 in
        let loads_at =
          Array.init (steps + window - 1) (fun j ->
              Dataset.link_loads_at d ks.(base + j))
        in
        {
          loads_at;
          window;
          steps;
          start_of = (fun i -> i);
          snap_of = (fun i -> ks.(nk - steps + i));
          arena = "scan.samples";
          span = "scan.window";
          step_arg = "step";
        }
    | Replay { window; windows } ->
        let ns = Dataset.num_samples d in
        if ns = 0 then invalid_arg "Ctx.Scan: no samples";
        if windows <= 0 then invalid_arg "Ctx.Scan: windows must be > 0";
        let window = Stdlib.max 1 (Stdlib.min window ns) in
        let positions = ns - window + 1 in
        let loads_at = Array.init ns (fun k -> Dataset.link_loads_at d k) in
        {
          loads_at;
          window;
          steps = windows;
          start_of = (fun i -> i mod positions);
          snap_of = (fun i -> (i mod positions) + window - 1);
          arena = "replay.samples";
          span = "replay.window";
          step_arg = "interval";
        }
    | Windows { window; loads } ->
        let n = Array.length loads in
        if n = 0 then invalid_arg "Ctx.Scan: empty load series";
        let window = Stdlib.max 1 (Stdlib.min window n) in
        {
          loads_at = loads;
          window;
          steps = n - window + 1;
          start_of = (fun i -> i);
          snap_of = (fun i -> i + window - 1);
          arena = "series.samples";
          span = "scan.window";
          step_arg = "step";
        }

  let run net est t =
    let c = compile net t.source in
    let opts =
      match t.tag with
      | Some tag -> Options.with_warm_tag tag t.opts
      | None -> t.opts
    in
    let sink =
      if Obs.is_null opts.Options.sink then Workspace.sink net.workspace
      else opts.Options.sink
    in
    let l = Dataset.num_links net.dataset in
    let samples_arena () =
      Workspace.scratch_mat net.workspace ~name:c.arena ~rows:c.window ~cols:l
    in
    let solve ~opts ~samples i =
      let s = c.start_of i in
      for r = 0 to c.window - 1 do
        Mat.set_row samples r c.loads_at.(s + r)
      done;
      (* A private copy per solve: the shared [loads_at] rows also feed
         later windows' samples fills, so the estimator must never see
         the shared vector (degraded-mode repairs get their own copy,
         as they did when each window extracted loads afresh). *)
      let loads = Vec.copy c.loads_at.(s + c.window - 1) in
      let run () =
        Tmest_core.Estimator.solve ~opts est net.workspace ~loads
          ~load_samples:samples
      in
      let estimate =
        if sink.Obs.enabled then
          Obs.span sink c.span
            ~args:
              [ (c.step_arg, Obs.Int i); ("snapshot", Obs.Int (c.snap_of i)) ]
            run
        else run ()
      in
      (match t.on_window with
      | Some f -> f ~step:i ~snapshot:(c.snap_of i) estimate
      | None -> ());
      (c.snap_of i, estimate)
    in
    let pool =
      match t.pool with Some p -> Some p | None -> Workspace.pool net.workspace
    in
    match pool with
    | Some p when Pool.size p > 1 && c.steps > 1 ->
        (* One contiguous chunk of windows per pool slot.  Within a
           chunk the steps run in order and (when warm) chain warm
           starts under a chunk-tagged key, so results depend only on
           (jobs, steps) — never on scheduling.  Cold scans are
           bit-identical to the sequential path. *)
        let out = Array.make c.steps None in
        Pool.iter_chunks p ~n:c.steps (fun ~chunk ~lo ~hi ->
            let opts =
              if opts.Options.warm then
                (* Nested under any caller-supplied tag so two tagged
                   scans sharing a workspace keep disjoint chains. *)
                let tag =
                  match opts.Options.warm_tag with
                  | Some t -> Printf.sprintf "%s/chunk%d" t chunk
                  | None -> Printf.sprintf "chunk%d" chunk
                in
                Options.with_warm_tag tag opts
              else opts
            in
            (* Keyed by the executing domain, so chunks that land on
               the same domain reuse one buffer and chunks on different
               domains never share mutable state. *)
            let samples = samples_arena () in
            for i = lo to hi - 1 do
              out.(i) <- Some (solve ~opts ~samples i)
            done);
        Array.to_list
          (Array.map
             (function Some r -> r | None -> assert false (* all written *))
             out)
    | _ ->
        (* Explicit in-order recursion: each step's solve must complete
           before the next so warm starts chain through the workspace
           cache. *)
        let samples = samples_arena () in
        let rec go i acc =
          if i >= c.steps then List.rev acc
          else go (i + 1) (solve ~opts ~samples i :: acc)
        in
        go 0 []

  (* Incremental push-one-estimate-one engine for streaming consumers
     (the daemon): a ring of the last [window] load rows, assembled
     oldest-first into a workspace scratch matrix per estimate.  At full
     fill the assembled samples matrix is bit-identical to what a batch
     [run] over the same rows would build, so a sequential warm daemon
     tick stream matches a sequential warm batch scan bit for bit. *)
  module Series = struct
    type series = {
      ws : Workspace.t;
      name : string;
      window : int;
      links : int;
      ring : Mat.t;
      mutable count : int;
      mutable head : int;  (** next write slot *)
      mutable pushed : int;  (** lifetime pushes, across {!clear}s *)
    }

    type t = series

    let create ?(name = "series") ws ~window ~links =
      if window < 1 then invalid_arg "Scan.Series.create: window < 1";
      if links < 1 then invalid_arg "Scan.Series.create: links < 1";
      {
        ws;
        name;
        window;
        links;
        ring = Mat.zeros window links;
        count = 0;
        head = 0;
        pushed = 0;
      }

    let fill t = t.count
    let total t = t.pushed
    let window t = t.window

    let push t v =
      if Array.length v <> t.links then
        invalid_arg "Scan.Series.push: load vector has the wrong length";
      Mat.set_row t.ring t.head v;
      t.head <- (t.head + 1) mod t.window;
      t.count <- Stdlib.min (t.count + 1) t.window;
      t.pushed <- t.pushed + 1

    (* Invalidate the window (a routing change made the old rows
       meaningless under the new [R]); the lifetime push count keeps
       running. *)
    let clear t =
      t.count <- 0;
      t.head <- 0

    let latest t =
      if t.count = 0 then invalid_arg "Scan.Series.latest: empty series";
      Mat.row t.ring ((t.head - 1 + t.window) mod t.window)

    let estimate ?(opts = Options.default) t est =
      if t.count = 0 then invalid_arg "Scan.Series.estimate: empty series";
      (* Time-series methods need at least two rows
         (Estimator.last_window); at fill one, the single measurement
         stands in for its own history. *)
      let rows = Stdlib.max 2 t.count in
      let samples =
        Workspace.scratch_mat t.ws ~name:(t.name ^ ".samples") ~rows
          ~cols:t.links
      in
      let oldest = (t.head - t.count + t.window) mod t.window in
      for i = 0 to t.count - 1 do
        Mat.set_row samples
          (rows - t.count + i)
          (Mat.row t.ring ((oldest + i) mod t.window))
      done;
      if t.count = 1 then Mat.set_row samples 0 (Mat.row t.ring oldest);
      let loads = latest t in
      Tmest_core.Estimator.solve ~opts est t.ws ~loads ~load_samples:samples
  end
end
