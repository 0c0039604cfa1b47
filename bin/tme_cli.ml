(* tme: command-line driver for the traffic-matrix estimation library.

   Subcommands:
     tme info                       - describe the synthetic datasets
     tme estimate -n europe -m ...  - run one estimator, print accuracy
     tme experiment fig13           - run one experiment report
     tme csv fig13 -o out.csv       - dump an experiment's data as CSV
     tme snmp-demo                  - run the SNMP collection pipeline *)

open Cmdliner
module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec
module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Core = Tmest_core
module Inject = Tmest_faults.Inject
module Pool = Tmest_parallel.Pool
module Obs = Tmest_obs.Obs
module Recorder = Tmest_obs.Recorder

let dataset_of_name ?seed = function
  | "europe" -> Dataset.europe ?seed ()
  | "america" -> Dataset.america ?seed ()
  | s ->
      Printf.eprintf "unknown network %S (expected europe or america)\n" s;
      exit 2

(* [--pops N] trumps [--network]: a synthetic hierarchical backbone of
   the requested size (sparse solver core above the workspace gate). *)
let dataset_of ?pops ?seed name =
  match pops with
  | Some p when p >= 3 -> Dataset.synthetic ?seed ~pops:p ()
  | Some p ->
      Printf.eprintf "--pops %d: need at least 3 PoPs\n" p;
      exit 2
  | None -> dataset_of_name ?seed name

(* --------------------------------------------------- shared flag table *)

(* One specification per flag, shared by every subcommand that takes it.
   estimate, experiment, faults and daemon compose their terms from this
   table, so a flag spelled the same way means the same thing everywhere
   it appears: same names, same documentation, same default. *)
module Flags = struct
  let network =
    let doc =
      "Synthetic network to use: europe (12 PoPs) or america (25 PoPs)."
    in
    Arg.(value & opt string "europe" & info [ "n"; "network" ] ~docv:"NET" ~doc)

  let pops =
    let doc =
      "Replace the named network by a generated hierarchical backbone \
       with $(docv) PoPs (dual-homed leaves on a hub ring).  Above the \
       workspace sparse gate the solvers run matrix-free."
    in
    Arg.(value & opt (some int) None & info [ "pops" ] ~docv:"N" ~doc)

  let seed =
    let doc = "Override the dataset generator seed (synthetic or named)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

  let jobs =
    let doc =
      "Domain-pool size for parallel window scans, matvecs and experiment \
       sweeps (default: $(b,TMEST_JOBS) if set to a positive integer, else \
       the recommended domain count)."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

  let trace =
    let doc =
      "Record an execution trace to $(docv): spans for solves, windows \
       and cache fills, counters for workspace caches, and one record \
       per solver iteration.  A $(b,.jsonl) suffix selects the \
       line-oriented encoding; anything else gets Chrome trace-viewer \
       JSON (load in about://tracing or ui.perfetto.dev)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

  let fast =
    let doc = "Use reduced datasets (fast, for smoke runs)." in
    Arg.(value & flag & info [ "fast" ] ~doc)

  let fault_seed =
    let doc = "Seed for the deterministic fault-injection streams." in
    Arg.(value & opt int 7 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

  let precond =
    let doc =
      "Preconditioning policy for the iterative solvers: $(b,auto) \
       (Jacobi in sparse mode, none in dense), $(b,jacobi) or $(b,none)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("auto", Core.Workspace.Precond_auto);
               ("jacobi", Core.Workspace.Precond_jacobi);
               ("none", Core.Workspace.Precond_none);
             ])
          Core.Workspace.Precond_auto
      & info [ "precond" ] ~docv:"KIND" ~doc)

  let window ~default =
    let doc = "Window length for time-series methods." in
    Arg.(value & opt int default & info [ "w"; "window" ] ~doc)

  let method_ =
    (* Capability flags come from the shared predicate, so the listing
       can never drift from what a sparse-mode workspace accepts. *)
    let doc =
      Printf.sprintf "Estimation method: %s."
        (String.concat ", "
           (List.map
              (fun name ->
                if Core.Estimator.supports_sparse (Core.Estimator.of_name name)
                then name
                else name ^ " (dense-only)")
              (Core.Estimator.all_names ())))
    in
    Arg.(value & opt string "entropy" & info [ "m"; "method" ] ~docv:"METHOD" ~doc)
end

(* Resize the shared default pool before any workspace or context is
   built; every later [Pool.default ()] then returns the resized pool. *)
let apply_jobs jobs = Option.iter Pool.set_default_jobs jobs

(* Run [f] against a trace sink: the null sink without [--trace], else
   a recorder whose contents are written to [path] on the way out
   (also on failure, so aborted runs keep their partial trace). *)
let with_trace ?(meta = []) trace f =
  match trace with
  | None -> f Obs.null
  | Some path ->
      (* Spans should measure wall-clock, not CPU seconds. *)
      Obs.Clock.set_source Unix.gettimeofday;
      let r = Recorder.create ~meta () in
      let finish () =
        Recorder.write_file r path;
        Printf.eprintf "trace: %d events -> %s\n%!" (Recorder.length r) path
      in
      let code =
        try f (Recorder.sink r)
        with e ->
          finish ();
          raise e
      in
      finish ();
      code

(* -------------------------------------------------------------- info *)

let info_cmd =
  let run () =
    List.iter
      (fun name ->
        let d = dataset_of_name name in
        let spec = d.Dataset.spec in
        Printf.printf
          "%-8s %2d PoPs  %3d links (%d interior)  %3d OD pairs  %d \
           samples  busy %d..%d\n"
          name (Dataset.num_nodes d) (Dataset.num_links d)
          (Tmest_net.Topology.num_interior_links d.Dataset.topo)
          (Dataset.num_pairs d) (Dataset.num_samples d)
          spec.Spec.busy_start
          (spec.Spec.busy_start + spec.Spec.busy_len - 1);
        let mean = Dataset.busy_mean_demand d in
        Printf.printf
          "         peak total %.1f Gbps, largest busy-hour demand %.0f \
           Mbps, top-20%% share %.0f%%\n"
          (spec.Spec.peak_total_bps /. 1e9)
          (Vec.max mean /. 1e6)
          (100. *. Tmest_stats.Desc.top_share ~fraction:0.2 mean))
      [ "europe"; "america" ];
    0
  in
  let doc = "Describe the synthetic evaluation datasets." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ const ())

(* ---------------------------------------------------------- estimate *)

(* Fault-injection flags shared by `estimate' and `faults'. *)
let noise_arg =
  let doc =
    "Relative std of multiplicative Gaussian measurement noise applied \
     to every link load before estimation."
  in
  Arg.(value & opt float 0. & info [ "noise" ] ~docv:"SIGMA" ~doc)

let drop_links_arg =
  let doc = "Per-link probability of a lost (missing) load measurement." in
  Arg.(value & opt float 0. & info [ "drop-links" ] ~docv:"PROB" ~doc)

let spec_of ~seed ~noise ~drop ~wrap ~reset =
  match
    Inject.make ~seed
      ~noise:(if noise > 0. then Inject.Gaussian noise else Inject.No_noise)
      ~drop_prob:drop ~wrap_prob:wrap ~reset_prob:reset ()
  with
  | spec -> spec
  | exception Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

let estimate_cmd =
  let sigma2_arg =
    let doc = "Regularization parameter for entropy/bayes." in
    Arg.(value & opt float 1000. & info [ "sigma2" ] ~doc)
  in
  let top_arg =
    let doc = "Print the TOP largest demands with their estimates." in
    Arg.(value & opt int 10 & info [ "top" ] ~doc)
  in
  let run network pops seed method_name sigma2 window top precond noise drop
      fault_seed jobs trace =
    apply_jobs jobs;
    let d = dataset_of ?pops ?seed network in
    let spec = d.Dataset.spec in
    let network = spec.Spec.name in
    let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
    let truth = Dataset.demand_at d k in
    let loads = Dataset.link_loads_at d k in
    let load_samples =
      Dataset.busy_load_samples d ~window:(Stdlib.max window 2)
    in
    let w = Mat.rows load_samples in
    let m =
      match Core.Estimator.of_name method_name with
      | Core.Estimator.Entropy { prior; _ } ->
          Core.Estimator.Entropy { sigma2; prior }
      | Core.Estimator.Bayes { prior; _ } ->
          Core.Estimator.Bayes { sigma2; prior }
      | Core.Estimator.Fanout _ -> Core.Estimator.Fanout { window = w }
      | other -> other
      | exception Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
    in
    with_trace trace
      ~meta:
        [
          ("command", "estimate");
          ("network", network);
          ("method", Core.Estimator.name m);
        ]
    @@ fun sink ->
    let ws =
      Core.Workspace.create ~pool:(Pool.default ()) ~sink d.Dataset.routing
    in
    let fault = spec_of ~seed:fault_seed ~noise ~drop ~wrap:0. ~reset:0. in
    let loads = Inject.loads fault ~loads in
    let load_samples = Inject.samples fault load_samples in
    let opts =
      if Inject.is_none fault then Core.Estimator.Options.make ~precond ()
      else
        Core.Estimator.Options.make ~precond
          ~degrade:
            (Core.Degrade.with_on_health
               (fun h ->
                 Format.printf "degraded : %a@." Core.Degrade.pp_health h)
               Core.Degrade.default)
          ()
    in
    if not (Inject.is_none fault) then
      Printf.printf "faults   : %s\n" (Inject.description fault);
    let estimate =
      (* Dense-only methods (wcb) refuse sparse-mode workspaces; turn
         the refusal into a CLI error instead of an uncaught exception. *)
      try Core.Estimator.solve ~opts m ws ~loads ~load_samples
      with Invalid_argument msg when Core.Workspace.is_sparse ws ->
        Printf.eprintf "%s\n" msg;
        exit 2
    in
    let reference =
      if Core.Estimator.uses_time_series m then Dataset.busy_mean_demand d
      else truth
    in
    Printf.printf "method   : %s on %s\n" (Core.Estimator.name m) network;
    Printf.printf "mode     : %s (%d OD pairs, gate %d)\n"
      (if Core.Workspace.is_sparse ws then "sparse" else "dense")
      (Dataset.num_pairs d) Core.Workspace.sparse_gate;
    (* Silent in the default build: the checked-kernel run is the debug
       configuration (TMEST_CHECKED_KERNELS=1) and must be bit-identical
       anyway, but the record keeps a traced/benchmarked run honest. *)
    if Tmest_linalg.Kernel.checked then
      Printf.printf "kernels  : bounds-checked (TMEST_CHECKED_KERNELS)\n";
    let st = Core.Workspace.stats ws in
    Printf.printf "alloc    : %.3e words/solve peak, heap watermark %.3e \
                   words\n"
      st.Core.Workspace.peak_solve_words st.Core.Workspace.heap_words;
    (match
       Core.Workspace.last_iterations ws ~name:(Core.Estimator.name m)
     with
    | Some iters -> Printf.printf "iters    : %d\n" iters
    | None -> ());
    Printf.printf "MRE      : %.4f (90%% traffic coverage)\n"
      (Core.Metrics.mre ~truth:reference ~estimate ());
    Printf.printf "rank rho : %.4f\n"
      (Core.Metrics.rank_correlation reference estimate);
    Printf.printf "residual : %.6f (relative ||Rs - t||)\n"
      (Core.Problem.residual_norm d.Dataset.routing
         ~loads:(if Inject.is_none fault then loads else Inject.zero_fill loads)
         estimate);
    Format.printf "workspace: %a@." Core.Workspace.pp_stats
      (Core.Workspace.stats ws);
    let n = Dataset.num_nodes d in
    let name i =
      d.Dataset.topo.Tmest_net.Topology.nodes.(i).Tmest_net.Topology.name
    in
    let order = Array.init (Array.length reference) (fun i -> i) in
    Array.sort (fun a b -> compare reference.(b) reference.(a)) order;
    Printf.printf "%-28s %12s %12s %8s\n" "demand" "actual Mbps" "est Mbps"
      "err";
    for rank = 0 to Stdlib.min top (Array.length order) - 1 do
      let p = order.(rank) in
      let src, dst = Tmest_net.Odpairs.pair ~nodes:n p in
      Printf.printf "%-28s %12.1f %12.1f %7.1f%%\n"
        (Printf.sprintf "%s -> %s" (name src) (name dst))
        (reference.(p) /. 1e6) (estimate.(p) /. 1e6)
        (100. *. (estimate.(p) -. reference.(p)) /. reference.(p))
    done;
    0
  in
  let doc = "Estimate the traffic matrix from link loads and report accuracy." in
  Cmd.v (Cmd.info "estimate" ~doc)
    Term.(
      const run $ Flags.network $ Flags.pops $ Flags.seed $ Flags.method_
      $ sigma2_arg
      $ Flags.window ~default:10
      $ top_arg $ Flags.precond $ noise_arg $ drop_links_arg
      $ Flags.fault_seed $ Flags.jobs $ Flags.trace)

(* -------------------------------------------------------- experiment *)

let exp_id_arg =
  let doc = "Experiment id (fig1..fig16, tab1, tab2); see `tme list'." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)

let experiment_cmd =
  let run id fast pops seed jobs trace =
    apply_jobs jobs;
    match Tmest_experiments.Registry.find id with
    | exception Not_found ->
        Printf.eprintf "unknown experiment %S; try `tme list'\n" id;
        2
    | e ->
        with_trace trace
          ~meta:[ ("command", "experiment"); ("experiment", id) ]
        @@ fun sink ->
        let ctx =
          Tmest_experiments.Ctx.create ~fast ~sink
            ?scale_pops:(Option.map (fun p -> [ p ]) pops)
            ?scale_seed:seed ()
        in
        Tmest_experiments.Report.print (e.Tmest_experiments.Registry.run ctx);
        0
  in
  let doc = "Run one paper experiment and print its report." in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      const run $ exp_id_arg $ Flags.fast $ Flags.pops $ Flags.seed
      $ Flags.jobs $ Flags.trace)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-6s %s\n" e.Tmest_experiments.Registry.id
          e.Tmest_experiments.Registry.title)
      Tmest_experiments.Registry.all;
    0
  in
  let doc = "List the available experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let csv_cmd =
  let out_arg =
    let doc = "Output file (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let run id fast out jobs =
    apply_jobs jobs;
    match Tmest_experiments.Registry.find id with
    | exception Not_found ->
        Printf.eprintf "unknown experiment %S; try `tme list'\n" id;
        2
    | e ->
        let ctx = Tmest_experiments.Ctx.create ~fast () in
        let report = e.Tmest_experiments.Registry.run ctx in
        let csv = Tmest_experiments.Report.to_csv report in
        (match out with
        | None -> print_string csv
        | Some path ->
            let oc = open_out path in
            output_string oc csv;
            close_out oc;
            Printf.printf "wrote %s\n" path);
        0
  in
  let doc = "Dump an experiment's series and tables as CSV." in
  Cmd.v (Cmd.info "csv" ~doc)
    Term.(const run $ exp_id_arg $ Flags.fast $ out_arg $ Flags.jobs)

(* ------------------------------------------------------------ export *)

let export_cmd =
  let dir_arg =
    let doc = "Directory to write <net>.topo and <net>.tm into." in
    Arg.(value & opt string "." & info [ "d"; "dir" ] ~doc)
  in
  let run network dir =
    let d = dataset_of_name network in
    let nodes = Dataset.num_nodes d in
    let topo_path = Filename.concat dir (network ^ ".topo") in
    let tm_path = Filename.concat dir (network ^ ".tm") in
    Tmest_io.Topology_io.write topo_path d.Dataset.topo;
    Tmest_io.Tm_io.write_series tm_path ~nodes
      d.Dataset.truth.Tmest_traffic.Demand_gen.demands;
    Printf.printf "wrote %s (%d PoPs) and %s (%d samples x %d pairs)\n"
      topo_path nodes tm_path (Dataset.num_samples d) (Dataset.num_pairs d);
    0
  in
  let doc = "Export a synthetic dataset as .topo / .tm text files." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ Flags.network $ dir_arg)

(* ----------------------------------------------------- estimate-files *)

let estimate_files_cmd =
  let topo_arg =
    let doc = "Topology file (.topo format)." in
    Arg.(required & opt (some string) None & info [ "topo" ] ~doc)
  in
  let tm_arg =
    let doc =
      "Traffic-matrix series file (.tm); link loads are derived from \
       the requested sample and used as the estimator's only input."
    in
    Arg.(required & opt (some string) None & info [ "tm" ] ~doc)
  in
  let sample_arg =
    let doc = "Sample index within the series." in
    Arg.(value & opt int 0 & info [ "sample" ] ~doc)
  in
  let sigma2_arg =
    let doc = "Regularization parameter." in
    Arg.(value & opt float 1000. & info [ "sigma2" ] ~doc)
  in
  let run topo_path tm_path sample sigma2 jobs =
    apply_jobs jobs;
    match
      let topo = Tmest_io.Topology_io.read topo_path in
      let nodes = Tmest_net.Topology.num_nodes topo in
      let series = Tmest_io.Tm_io.read_series tm_path ~nodes in
      (topo, series)
    with
    | exception Failure msg ->
        Printf.eprintf "%s\n" msg;
        2
    | topo, series ->
        if sample < 0 || sample >= Mat.rows series then begin
          Printf.eprintf "sample %d out of range (series has %d)\n" sample
            (Mat.rows series);
          2
        end
        else begin
          let routing = Tmest_net.Routing.shortest_path topo in
          let ws =
            Core.Workspace.create ~pool:(Pool.default ()) routing
          in
          let truth = Mat.row series sample in
          let loads = Tmest_net.Routing.link_loads routing truth in
          let prior =
            Core.Estimator.prior Core.Estimator.Prior_gravity ws ~loads
          in
          let est =
            (Core.Entropy.estimate ws ~loads ~prior ~sigma2)
              .Core.Entropy.estimate
          in
          Printf.printf
            "network %s: %d nodes, %d pairs; sample %d\n"
            topo.Tmest_net.Topology.net_name
            (Tmest_net.Topology.num_nodes topo)
            (Array.length truth) sample;
          Printf.printf "gravity prior MRE : %.4f\n"
            (Core.Metrics.mre ~truth ~estimate:prior ());
          Printf.printf "entropy MRE       : %.4f (sigma2 = %g)\n"
            (Core.Metrics.mre ~truth ~estimate:est ())
            sigma2;
          0
        end
  in
  let doc =
    "Run the entropy estimator on user-supplied .topo / .tm files \
     (shortest-path routing; loads derived from the chosen sample)."
  in
  Cmd.v (Cmd.info "estimate-files" ~doc)
    Term.(const run $ topo_arg $ tm_arg $ sample_arg $ sigma2_arg $ Flags.jobs)

(* ------------------------------------------------------------ faults *)

let faults_cmd =
  let wrap_arg =
    let doc = "Per-link probability of an uncorrected 32-bit counter wrap." in
    Arg.(value & opt float 0. & info [ "wrap" ] ~docv:"PROB" ~doc)
  in
  let reset_arg =
    let doc = "Per-link probability of a mid-window counter reset." in
    Arg.(value & opt float 0. & info [ "reset" ] ~docv:"PROB" ~doc)
  in
  let run network pops seed noise drop wrap reset fault_seed window jobs trace
      =
    apply_jobs jobs;
    let fault = spec_of ~seed:fault_seed ~noise ~drop ~wrap ~reset in
    let d = dataset_of ?pops ?seed network in
    let spec = d.Dataset.spec in
    let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
    let truth = Dataset.demand_at d k in
    let busy_truth = Dataset.busy_mean_demand d in
    let clean_loads = Dataset.link_loads_at d k in
    let clean_samples =
      Dataset.busy_load_samples d ~window:(Stdlib.max window 2)
    in
    let dirty_loads = Inject.loads fault ~loads:clean_loads in
    let dirty_samples = Inject.samples fault clean_samples in
    let network = spec.Spec.name in
    with_trace trace
      ~meta:[ ("command", "faults"); ("network", network) ]
    @@ fun sink ->
    let ws =
      Core.Workspace.create ~pool:(Pool.default ()) ~sink d.Dataset.routing
    in
    Printf.printf "faults   : %s on %s\n" (Inject.description fault) network;
    let health = ref None in
    let degrade_opts =
      Core.Estimator.Options.make
        ~degrade:
          (Core.Degrade.with_on_health
             (fun h -> health := Some h)
             Core.Degrade.default)
        ()
    in
    Printf.printf "%-10s %10s %10s %10s\n" "method" "clean" "repaired"
      "zero-fill";
    List.iter
      (fun name ->
        let m = Core.Estimator.of_name name in
        let reference =
          if Core.Estimator.uses_time_series m then busy_truth else truth
        in
        (* Zero-filled loads are genuinely inconsistent; the WCB linear
           programs (rightly) reject them — report that as nan. *)
        let mre solve =
          try Core.Metrics.mre ~truth:reference ~estimate:(solve ()) ()
          with Tmest_opt.Simplex.Infeasible -> Float.nan
        in
        (* Dense-only methods refuse a sparse-mode workspace (above the
           gate with --pops): the shared capability predicate says so
           up front; the exception handler stays as a safety net. *)
        if
          Core.Workspace.is_sparse ws && not (Core.Estimator.supports_sparse m)
        then
          Printf.printf "%-10s   excluded (dense-only method, sparse mode)\n"
            name
        else
        try
          let clean =
            mre (fun () ->
                Core.Estimator.solve m ws ~loads:clean_loads
                  ~load_samples:clean_samples)
          in
          let repaired =
            mre (fun () ->
                Core.Estimator.solve ~opts:degrade_opts m ws ~loads:dirty_loads
                  ~load_samples:dirty_samples)
          in
          let zero =
            mre (fun () ->
                Core.Estimator.solve m ws
                  ~loads:(Inject.zero_fill dirty_loads)
                  ~load_samples:(Inject.zero_fill_mat dirty_samples))
          in
          Printf.printf "%-10s %10.4f %10.4f %10.4f\n" name clean repaired zero
        with Invalid_argument _ when Core.Workspace.is_sparse ws ->
          Printf.printf "%-10s   excluded (dense-only method, sparse mode)\n"
            name)
      (Core.Estimator.all_names ());
    (match !health with
    | Some h -> Format.printf "degraded : %a@." Core.Degrade.pp_health h
    | None -> ());
    0
  in
  let doc =
    "Inject measurement faults, run every method in degraded mode and \
     compare against clean inputs and a zero-fill baseline."
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ Flags.network $ Flags.pops $ Flags.seed $ noise_arg
      $ drop_links_arg $ wrap_arg $ reset_arg $ Flags.fault_seed
      $ Flags.window ~default:10
      $ Flags.jobs $ Flags.trace)

(* ------------------------------------------------------------ daemon *)

module Daemon = Tmest_daemon.Daemon
module Collect = Tmest_snmp.Collect

(* Like [with_trace], but a [.jsonl] path gets the streaming writer:
   the header goes out before the first tick and every event is flushed
   as it is emitted, so the feed can be tailed (and schema-checked)
   while the daemon runs. *)
let with_live_trace ?(meta = []) trace f =
  match trace with
  | Some path when Filename.check_suffix path ".jsonl" ->
      Obs.Clock.set_source Unix.gettimeofday;
      let live = Recorder.Live.create ~meta path in
      let finish () =
        Recorder.Live.close live;
        Printf.eprintf "trace: %d events -> %s (live)\n%!"
          (Recorder.Live.length live) path
      in
      let code =
        try f (Recorder.Live.sink live)
        with e ->
          finish ();
          raise e
      in
      finish ();
      code
  | other -> with_trace ~meta other f

(* "L@K" or "L@K0..K1": a scenario event pinned to one tick or to an
   inclusive tick range. *)
let event_conv =
  let parse s =
    match String.index_opt s '@' with
    | None -> Error (`Msg (Printf.sprintf "%S: expected ID@TICK or ID@K0..K1" s))
    | Some at -> (
        let id = String.sub s 0 at in
        let range = String.sub s (at + 1) (String.length s - at - 1) in
        let int v =
          match int_of_string_opt v with
          | Some i when i >= 0 -> Ok i
          | _ -> Error (`Msg (Printf.sprintf "%S: bad number %S" s v))
        in
        let split_range r =
          let n = String.length r in
          let rec find i =
            if i + 1 >= n then None
            else if r.[i] = '.' && r.[i + 1] = '.' then
              Some (String.sub r 0 i, String.sub r (i + 2) (n - i - 2))
            else find (i + 1)
          in
          find 0
        in
        let ( let* ) = Result.bind in
        let* id = int id in
        match split_range range with
        | Some (k0, k1) ->
            let* k0 = int k0 in
            let* k1 = int k1 in
            if k1 < k0 then
              Error (`Msg (Printf.sprintf "%S: empty tick range" s))
            else Ok (id, k0, k1)
        | None ->
            let* k = int range in
            Ok (id, k, k))
  in
  let print ppf (id, k0, k1) =
    if k0 = k1 then Format.fprintf ppf "%d@%d" id k0
    else Format.fprintf ppf "%d@%d..%d" id k0 k1
  in
  Arg.conv (parse, print)

let daemon_cmd =
  let ticks_arg =
    let doc = "Intervals to run (288 five-minute ticks = one day)." in
    Arg.(value & opt int 288 & info [ "ticks" ] ~docv:"N" ~doc)
  in
  let interval_scale_arg =
    let doc =
      "Pace the loop in real time at $(docv) times the nominal poll \
       interval (e.g. 0.001 sleeps ~0.3 s per tick); 0 free-runs \
       (benchmarks, smoke tests)."
    in
    Arg.(value & opt float 0. & info [ "interval-scale" ] ~docv:"SCALE" ~doc)
  in
  let loss_arg =
    let doc = "Per-poll UDP loss probability on the collection stream." in
    Arg.(
      value
      & opt float Collect.default_config.Collect.loss_prob
      & info [ "loss" ] ~docv:"PROB" ~doc)
  in
  let flap_arg =
    let doc =
      "Fail interior link $(i,L) for ticks $(i,K0)..$(i,K1) (inclusive; \
       $(i,L@K) flaps for the single tick $(i,K)).  Routing converges \
       around the failure and the daemon switches to the rerouted \
       workspace.  Repeatable."
    in
    Arg.(
      value & opt_all event_conv [] & info [ "flap-link" ] ~docv:"L@K0..K1" ~doc)
  in
  let drop_arg =
    let doc =
      "Silence poller $(i,P) for ticks $(i,K0)..$(i,K1): every link \
       polled by it misses those rounds and is repaired online.  \
       Repeatable."
    in
    Arg.(
      value
      & opt_all event_conv []
      & info [ "drop-poller" ] ~docv:"P@K0..K1" ~doc)
  in
  let reset_arg =
    let doc =
      "Restart link $(i,L)'s byte counter at tick $(i,K) (a line-card \
       reboot).  Repeatable."
    in
    Arg.(value & opt_all event_conv [] & info [ "reset-link" ] ~docv:"L@K" ~doc)
  in
  let run network pops seed fast method_name window ticks interval_scale loss
      flaps drops resets precond fault_seed jobs trace =
    apply_jobs jobs;
    let d =
      match (pops, fast) with
      | Some _, _ -> dataset_of ?pops ?seed network
      | None, true ->
          let spec =
            match network with
            | "europe" -> Spec.scaled ~nodes:6 ~directed_links:28 Spec.europe
            | "america" -> Spec.scaled ~nodes:8 ~directed_links:44 Spec.america
            | s ->
                Printf.eprintf
                  "unknown network %S (expected europe or america)\n" s;
                exit 2
          in
          let spec = { spec with Spec.name = spec.Spec.name ^ "-fast" } in
          let spec =
            match seed with Some s -> { spec with Spec.seed = s } | None -> spec
          in
          Dataset.generate spec
      | None, false -> dataset_of ?seed network
    in
    let spec = d.Dataset.spec in
    let est =
      match Core.Estimator.of_name method_name with
      | m -> m
      | exception Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
    in
    let stream =
      { Collect.default_config with Collect.loss_prob = loss; seed = fault_seed }
    in
    let scenario =
      {
        Daemon.flaps;
        poller_drops = drops;
        resets = List.map (fun (l, k, _) -> (l, k)) resets;
      }
    in
    let pace =
      if interval_scale > 0. then
        Some (fun () -> Unix.sleepf (interval_scale *. stream.Collect.interval_s))
      else None
    in
    let cfg =
      Daemon.config ~window ~ticks ~precond ~stream ~scenario ?pace ~est ()
    in
    with_live_trace trace
      ~meta:
        [
          ("command", "daemon");
          ("network", spec.Spec.name);
          ("method", Core.Estimator.name est);
          ("ticks", string_of_int ticks);
        ]
    @@ fun sink ->
    Printf.printf "daemon   : %s on %s, window %d, %d ticks\n"
      (Core.Estimator.name est) spec.Spec.name window ticks;
    Printf.printf
      "stream   : interval %g s, jitter %g s, loss %g, %d pollers, seed %d\n"
      stream.Collect.interval_s stream.Collect.jitter_s
      stream.Collect.loss_prob stream.Collect.pollers stream.Collect.seed;
    let r =
      try Daemon.run ~pool:(Pool.default ()) ~sink cfg d
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    in
    (* Per-tick lines only where something happened: epoch switches,
       lost polls, counter resets.  A clean day stays quiet. *)
    let last_epoch = ref (-1) in
    List.iter
      (fun (t : Daemon.tick_record) ->
        if t.Daemon.epoch <> !last_epoch then begin
          Printf.printf "epoch %d  from tick %d (%s)\n" t.Daemon.epoch
            t.Daemon.tick
            (if t.Daemon.epoch = 0 then "all links up" else "routing changed");
          last_epoch := t.Daemon.epoch
        end;
        if t.Daemon.missing > 0 || t.Daemon.resets > 0 then
          Printf.printf
            "tick %3d  missing %d  resets %d  imputed %d  total %.1f Gbps\n"
            t.Daemon.tick t.Daemon.missing t.Daemon.resets
            (match t.Daemon.health with
            | Some h -> h.Core.Degrade.imputed
            | None -> 0)
            (t.Daemon.total_bps /. 1e9))
      r.Daemon.records;
    Printf.printf "ticks    : %d run, %d aborted, %d epochs\n" r.Daemon.ticks
      r.Daemon.aborted r.Daemon.epochs;
    Printf.printf "stream   : %d polls lost, %d counter resets\n"
      r.Daemon.polls_lost r.Daemon.counter_resets;
    Printf.printf "latency  : p50 %.2f ms, p99 %.2f ms, %.1f ticks/s\n"
      r.Daemon.p50_ms r.Daemon.p99_ms r.Daemon.ticks_per_sec;
    (match List.rev r.Daemon.records with
    | last :: _ ->
        Printf.printf "final    : MRE %.4f vs snapshot %d truth\n"
          (Core.Metrics.mre
             ~truth:(Dataset.demand_at d last.Daemon.snapshot)
             ~estimate:last.Daemon.estimate ())
          last.Daemon.snapshot
    | [] -> ());
    if r.Daemon.aborted > 0 then 1 else 0
  in
  let doc =
    "Run the streaming estimation daemon: poll, slide the window, \
     re-estimate each interval; repair online and survive routing flaps."
  in
  Cmd.v (Cmd.info "daemon" ~doc)
    Term.(
      const run $ Flags.network $ Flags.pops $ Flags.seed $ Flags.fast
      $ Flags.method_
      $ Flags.window ~default:8
      $ ticks_arg $ interval_scale_arg $ loss_arg $ flap_arg $ drop_arg
      $ reset_arg $ Flags.precond $ Flags.fault_seed $ Flags.jobs
      $ Flags.trace)

(* --------------------------------------------------------- snmp demo *)

let snmp_cmd =
  let loss_arg =
    let doc = "Per-poll UDP loss probability." in
    Arg.(value & opt float 0.01 & info [ "loss" ] ~doc)
  in
  let run network loss =
    let d = dataset_of_name network in
    let pairs = Dataset.num_pairs d in
    let samples = Dataset.num_samples d in
    let config =
      { Tmest_snmp.Collect.default_config with
        Tmest_snmp.Collect.loss_prob = loss; seed = 7 }
    in
    let truth k = Dataset.demand_at d k in
    let r = Tmest_snmp.Collect.run config ~true_rates:truth ~samples ~pairs in
    Printf.printf "polled %d LSPs x %d intervals: %d polls sent, %d lost\n"
      pairs samples r.Tmest_snmp.Collect.polls_sent
      r.Tmest_snmp.Collect.polls_lost;
    Printf.printf "mean per-sample rate error: %.4f%%\n"
      (100. *. Tmest_snmp.Collect.mean_absolute_rate_error r ~true_rates:truth);
    0
  in
  let doc = "Simulate the SNMP collection pipeline over a dataset." in
  Cmd.v (Cmd.info "snmp-demo" ~doc) Term.(const run $ Flags.network $ loss_arg)

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let doc =
    "Traffic matrix estimation on a large IP backbone (IMC 2004 \
     reproduction)"
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "tme" ~version:"1.0.0" ~doc)
          [
            info_cmd;
            estimate_cmd;
            experiment_cmd;
            list_cmd;
            csv_cmd;
            faults_cmd;
            daemon_cmd;
            snmp_cmd;
            export_cmd;
            estimate_files_cmd;
          ]))
