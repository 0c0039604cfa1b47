(* Scaling-law study for the sparse solver core: synthetic hierarchical
   backbones on both sides of the workspace sparse gate, a sweep of
   methods per size, CPU seconds and per-solve allocation from the
   workspace counters.  The full BENCH_scale.json sweep lives in the
   bench driver; this experiment is the registry-sized view of the same
   law. *)

module Vec = Tmest_linalg.Vec
module Core = Tmest_core
module W = Tmest_core.Workspace

(* Every registered method that the workspace mode can run — the same
   capability predicate the registry exposes as [Registry.supports]
   (this module sits below [Registry] in the dependency order, so it
   consults the core predicate directly rather than keeping the old
   hand-maintained four-method list). *)
let methods ~sparse =
  List.filter
    (fun name -> (not sparse) || Core.Estimator.supports_sparse
                                   (Core.Estimator.of_name name))
    (Core.Estimator.all_names ())

let scale ctx =
  let sizes =
    match ctx.Ctx.scale_pops with
    | Some sizes -> sizes
    | None -> if ctx.Ctx.fast then [ 8; 12 ] else [ 25; 60; 100 ]
  in
  let rows =
    List.concat_map
      (fun pops ->
        let net = Ctx.synthetic ?seed:ctx.Ctx.scale_seed ctx ~pops in
        let ws = net.Ctx.workspace in
        let pairs = W.num_pairs ws in
        let samples = Ctx.Scan.samples net ~window:8 in
        List.map
          (fun name ->
            let m = Core.Estimator.of_name name in
            W.reset_stats ws;
            let t0 = Tmest_obs.Obs.Clock.now_ns () in
            let estimate =
              Core.Estimator.solve m ws ~loads:net.Ctx.loads
                ~load_samples:samples
            in
            let seconds = Tmest_obs.Obs.Clock.seconds_since t0 in
            let st = W.stats ws in
            let reference =
              if Core.Estimator.uses_time_series m then Ctx.busy_mean net
              else net.Ctx.truth
            in
            ( Printf.sprintf "%d/%s" pops name,
              [|
                float_of_int pops;
                float_of_int pairs;
                (if W.is_sparse ws then 1. else 0.);
                seconds;
                st.W.peak_solve_words;
                Core.Metrics.mre ~truth:reference ~estimate ();
              |] ))
          (methods ~sparse:(W.is_sparse ws)))
      sizes
  in
  {
    Report.id = "scale";
    title = "Scaling law: sparse vs dense solver core";
    items =
      [
        Report.table
          ~columns:
            [ "size/method"; "pops"; "pairs"; "sparse"; "cpu_s";
              "peak_words"; "mre" ]
          rows;
        Report.note
          "sparse = 1 once the OD-pair count clears the workspace gate \
           (%d): those solves never materialize a dense Gram or routing \
           matrix, so peak_words grows with nnz(R), not pairs^2."
          W.sparse_gate;
      ];
  }
