(* Benchmark harness.

   Default mode regenerates every table and figure of the paper's
   evaluation section on the full-scale synthetic datasets and prints
   them as reports (series, tables, notes) — the artifact recorded in
   EXPERIMENTS.md.

   [--perf] instead runs Bechamel micro/meso benchmarks: one Test.make
   per paper table/figure (the full experiment pipeline on the reduced
   context, so each run is sub-second) plus the numerical kernels and
   allocation-free solver cores the estimators are built on, reporting
   both time/run and minor words/run.  It also writes
   BENCH_workspace.json (cold-vs-warm solver-workspace timings),
   BENCH_solvers.json (per-iteration solver allocations, full-method
   timings with the warm-start cache, and the cold-vs-warm window-scan
   meso-benchmark) and BENCH_parallel.json (the multicore fan-out sweep
   over jobs in {1, 2, 4, #cores}).  It exits 1 when FISTA, proxgrad
   or CG allocate more than 2, 4 or 10 minor words per iteration.
   [--perf --fast] is the CI smoke variant: kernels and solvers only,
   reduced context and quota.

   [--scale] runs the scaling-law sweep over synthetic hierarchical
   backbones (PoPs x method, both sides of the workspace sparse gate)
   and writes BENCH_scale.json; [--scale --fast] uses smaller sizes for
   CI.  The sweep asserts that sparse-mode solves keep the GC heap
   watermark below pairs^2/2 words — the witness that no dense Gram or
   routing matrix was ever materialized.

   [--throughput] replays a full measurement day (288 five-minute
   windows) at 25 and 100 PoPs over jobs in {1, 2, 4, 8} and writes
   windows/sec to BENCH_throughput.json; [--throughput --fast] is the
   CI smoke variant (smaller networks, 24 windows, same jobs sweep).
   Speedup floors are asserted only on boxes with >= 2 cores.

   Other flags: [--fast] (reduced datasets for the report mode),
   [--jobs N] (domain-pool size; default TMEST_JOBS, then the
   recommended domain count), [--only fig13,tab2], [--list]. *)

module Registry = Tmest_experiments.Registry
module Report = Tmest_experiments.Report
module Ctx = Tmest_experiments.Ctx
module Pool = Tmest_parallel.Pool

let run_reports ~fast ~only () =
  let t_start = Unix.gettimeofday () in
  Printf.printf
    "Traffic matrix estimation on a large IP backbone — experiment \
     harness\n";
  Printf.printf "mode: %s datasets\n\n%!"
    (if fast then "reduced (--fast)" else "paper-scale");
  let ctx = Ctx.create ~fast () in
  let selected =
    match only with
    | None -> Registry.all
    | Some ids ->
        List.map
          (fun id ->
            try Registry.find id
            with Not_found ->
              Printf.eprintf "unknown experiment id %S; known: %s\n" id
                (String.concat " " (Registry.ids ()));
              exit 2)
          ids
  in
  (* Experiments fan out over the context's pool (sequential at
     jobs = 1); reports print in registry order afterwards, so the
     output is identical at every job count up to the timing lines. *)
  let results =
    Pool.map (Ctx.pool ctx)
      (fun e ->
        let t0 = Unix.gettimeofday () in
        let report = e.Registry.run ctx in
        (e, report, Unix.gettimeofday () -. t0))
      (Array.of_list selected)
  in
  Array.iter
    (fun (e, report, dt) ->
      Report.print report;
      Printf.printf "  (%s completed in %.1fs)\n\n%!" e.Registry.id dt)
    results;
  List.iter
    (fun net ->
      Format.printf "workspace[%s]: %a@." net.Ctx.label
        Tmest_core.Workspace.pp_stats
        (Tmest_core.Workspace.stats net.Ctx.workspace))
    (Ctx.networks ctx);
  Printf.printf "all experiments done in %.1fs\n%!"
    (Unix.gettimeofday () -. t_start)

(* ------------------------------------------------------------------ *)
(* Workspace cold-vs-warm timings (BENCH_workspace.json)               *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled ns/op: repeat the thunk until ~0.2s of wall-clock has
   accumulated (at least 3 runs) and report the mean.  Bechamel's OLS
   machinery is overkill here — these are one-shot artifact timings
   whose point is the cold/warm ratio, not nanosecond precision. *)
(* Machine/run provenance stamped into every BENCH_*.json, so recorded
   numbers can be compared across checkouts: the core count the
   benchmark treats as available, the runtime's own recommendation
   (identical here, but kept as a separate key because downstream
   tooling reads both and containerized runners can diverge), the pool
   size the benchmark actually used, and the compiler version. *)
let provenance ~jobs =
  let cores = Domain.recommended_domain_count () in
  Printf.sprintf
    "  \"cores\": %d,\n  \"cores_recommended\": %d,\n  \"jobs\": %d,\n\
    \  \"ocaml_version\": %S,\n"
    cores cores jobs Sys.ocaml_version

let time_ns f =
  ignore (f ());
  let budget = 0.2 in
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  while Unix.gettimeofday () -. t0 < budget || !reps < 3 do
    ignore (f ());
    incr reps
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !reps *. 1e9

let workspace_json () =
  let module Core = Tmest_core in
  let module Dataset = Tmest_traffic.Dataset in
  let module Mat = Tmest_linalg.Mat in
  let eu = Dataset.europe () in
  let routing = eu.Dataset.routing in
  let spec = eu.Dataset.spec in
  let k = spec.Tmest_traffic.Spec.busy_start + (spec.Tmest_traffic.Spec.busy_len / 2) in
  let loads = Dataset.link_loads_at eu k in
  let ks = Array.of_list (Dataset.busy_samples eu) in
  let window = 20 in
  let ks = Array.sub ks (Array.length ks - window) window in
  let load_samples =
    Mat.init window (Dataset.num_links eu) (fun i j ->
        (Dataset.link_loads_at eu ks.(i)).(j))
  in
  let entropy = Core.Estimator.of_name "entropy" in
  let cao = Core.Estimator.of_name "cao" in
  let warm = Core.Workspace.create routing in
  (* The "cold" rows rebuild the workspace inside the thunk, so they
     price a from-scratch routing context against the cached one. *)
  let solve_cold est () =
    Core.Estimator.solve est
      (Core.Workspace.create routing)
      ~loads ~load_samples
  in
  (* Populate every artifact the warm path uses before timing it. *)
  ignore (Core.Estimator.solve entropy warm ~loads ~load_samples);
  ignore (Core.Estimator.solve cao warm ~loads ~load_samples);
  let rows =
    [
      ( "gram_cold",
        time_ns (fun () ->
            Core.Workspace.gram (Core.Workspace.create routing)) );
      ("gram_warm", time_ns (fun () -> Core.Workspace.gram warm));
      ( "factor_cold",
        let g = Core.Workspace.gram warm in
        time_ns (fun () -> Tmest_linalg.Chol.factor_regularized g) );
      ("factor_warm", time_ns (fun () -> Core.Workspace.gram_chol warm));
      ("entropy_solve_cold", time_ns (solve_cold entropy));
      ( "entropy_solve_warm",
        time_ns (fun () ->
            Core.Estimator.solve entropy warm ~loads ~load_samples) );
      ("cao_solve_cold", time_ns (solve_cold cao));
      ( "cao_solve_warm",
        time_ns (fun () ->
            Core.Estimator.solve cao warm ~loads ~load_samples) );
    ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"network\": \"europe\",\n";
  Buffer.add_string buf (provenance ~jobs:1);
  Buffer.add_string buf
    (Printf.sprintf "  \"window\": %d,\n  \"unit\": \"ns/op\",\n" window);
  Buffer.add_string buf "  \"benchmarks\": {\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %.0f%s\n" name ns
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  }\n}\n";
  let path = "BENCH_workspace.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  List.iter (fun (name, ns) -> Printf.printf "%-20s %12.0f ns/op\n" name ns) rows

(* ------------------------------------------------------------------ *)
(* Solver hot-path allocations and warm-started scans                  *)
(* (BENCH_solvers.json)                                                *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words allocated per call, measured directly with the GC
   counters (deterministic, unlike timings). *)
let minor_words_per f =
  ignore (f ());
  let reps = 8 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

(* Marginal allocation of one extra solver iteration: difference between
   a 1-iteration and a (1+n)-iteration solve.  The setup cost (scratch
   validation, result copy) cancels out. *)
let words_per_iter solve =
  let extra = 64 in
  let base = minor_words_per (fun () -> solve 1) in
  let long = minor_words_per (fun () -> solve (1 + extra)) in
  (long -. base) /. float_of_int extra

let solvers_json ~fast () =
  let module Core = Tmest_core in
  let module Vec = Tmest_linalg.Vec in
  let module Mat = Tmest_linalg.Mat in
  let module Fista = Tmest_opt.Fista in
  let module Proxgrad = Tmest_opt.Proxgrad in
  let module Cg = Tmest_opt.Cg in
  (* Exactly n iterations: tolerance 0 never triggers early exit. *)
  let stop_exact n = Tmest_opt.Stop.make ~max_iter:n ~tol:0. () in
  (* Per-iteration allocations of the solver cores, on a synthetic SPD
     quadratic so the numbers are routing-independent. *)
  let rng = Tmest_stats.Rng.create 23 in
  let dim = 200 in
  let a =
    Mat.add
      (Mat.gram (Mat.init dim dim (fun _ _ -> Tmest_stats.Rng.float rng)))
      (Mat.identity dim)
  in
  let b = Array.init dim (fun _ -> Tmest_stats.Rng.float rng) in
  let lip = Fista.lipschitz_of_gram a in
  let gradient_into x ~dst =
    Mat.matvec_into a x ~dst;
    Vec.sub_into dst b ~dst
  in
  let fista_scratch = Array.init Fista.scratch_size (fun _ -> Vec.zeros dim) in
  let pg_scratch = Array.init Proxgrad.scratch_size (fun _ -> Vec.zeros dim) in
  let cg_scratch = Array.init Cg.scratch_size (fun _ -> Vec.zeros dim) in
  let prior = Vec.ones dim in
  let alloc_rows =
    [
      ( "fista",
        words_per_iter (fun n ->
            Fista.solve_into ~stop:(stop_exact n) ~scratch:fista_scratch ~dim
              ~gradient_into ~lipschitz:lip ()) );
      ( "proxgrad",
        words_per_iter (fun n ->
            Proxgrad.solve_into ~stop:(stop_exact n) ~scratch:pg_scratch ~dim
              ~gradient_into
              ~prox_into:(Proxgrad.kl_prox_into ~weight:0.1 ~prior)
              ~lipschitz:lip ()) );
      ( "cg",
        words_per_iter (fun n ->
            Cg.solve_into ~stop:(stop_exact n) ~scratch:cg_scratch
              ~apply_into:(fun v ~dst -> Mat.matvec_into a v ~dst)
              ~b ()) );
    ]
  in
  (* Full-method timings plus the cold-vs-warm window-scan comparison on
     the shared experiment context. *)
  let ctx = Ctx.create ~fast () in
  let net = ctx.Ctx.europe in
  let ws = net.Ctx.workspace in
  let loads = net.Ctx.loads in
  let window = if fast then 5 else 20 in
  let steps = if fast then 3 else 5 in
  let load_samples = Ctx.Scan.samples net ~window in
  let routing = net.Ctx.dataset.Tmest_traffic.Dataset.routing in
  let entropy = Core.Estimator.of_name "entropy" in
  let cao = Core.Estimator.of_name "cao" in
  let warm_opts = Core.Estimator.Options.make ~warm:true () in
  let solve_cold est () =
    Core.Estimator.solve est
      (Core.Workspace.create routing)
      ~loads ~load_samples
  in
  (* Populate workspace artifacts and the warm-start cache. *)
  ignore (Core.Estimator.solve ~opts:warm_opts entropy ws ~loads ~load_samples);
  ignore (Core.Estimator.solve ~opts:warm_opts cao ws ~loads ~load_samples);
  let ns_rows =
    [
      ("entropy_solve_cold", time_ns (solve_cold entropy));
      ( "entropy_solve_warm",
        time_ns (fun () ->
            Core.Estimator.solve ~opts:warm_opts entropy ws ~loads
              ~load_samples) );
      ("cao_solve_cold", time_ns (solve_cold cao));
      ( "cao_solve_warm",
        time_ns (fun () ->
            Core.Estimator.solve ~opts:warm_opts cao ws ~loads ~load_samples)
      );
      (* Scan with the Cao estimator: its warm start reuses the previous
         window's lambda and skips the first-moment bootstrap entirely,
         so the cold/warm gap is the meso-level payoff of the cache.
         (Entropy re-derives a near-optimal start from the gravity prior
         of each window's own loads, so warm-starting barely moves its
         iteration count.) *)
      ( "windows_scan_cold",
        time_ns (fun () ->
            Ctx.Scan.run net cao (Ctx.Scan.make (Ctx.Scan.Busy { window; steps }))) );
      ( "windows_scan_warm",
        time_ns (fun () ->
            Ctx.Scan.run net cao
              (Ctx.Scan.make ~opts:warm_opts (Ctx.Scan.Busy { window; steps }))) );
    ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"network\": %S,\n" (if fast then "europe-fast" else "europe"));
  Buffer.add_string buf (provenance ~jobs:(Pool.size (Ctx.pool ctx)));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"window\": %d,\n  \"scan_steps\": %d,\n  \"scan_method\": \"cao\",\n"
       window steps);
  Buffer.add_string buf "  \"alloc_minor_words_per_iter\": {\n";
  List.iteri
    (fun i (name, words) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %.1f%s\n" name words
           (if i = List.length alloc_rows - 1 then "" else ",")))
    alloc_rows;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"ns_per_op\": {\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %.0f%s\n" name ns
           (if i = List.length ns_rows - 1 then "" else ",")))
    ns_rows;
  Buffer.add_string buf "  }\n}\n";
  let path = "BENCH_solvers.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  List.iter
    (fun (name, words) ->
      Printf.printf "%-20s %12.1f minor words/iter\n" name words)
    alloc_rows;
  List.iter
    (fun (name, ns) -> Printf.printf "%-20s %12.0f ns/op\n" name ns)
    ns_rows;
  (* Ceilings at the solver cores' measured per-iteration allocation
     with tracing disabled: a value above one means a hot path started
     allocating. *)
  let ceilings = [ ("fista", 2.); ("proxgrad", 4.); ("cg", 10.) ] in
  let over =
    List.filter
      (fun (name, words) -> words > List.assoc name ceilings)
      alloc_rows
  in
  if over <> [] then begin
    List.iter
      (fun (name, words) ->
        Printf.eprintf
          "perf assertion FAILED: %s allocates %.1f minor words/iter \
           (ceiling %.0f)\n"
          name words (List.assoc name ceilings))
      over;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Multicore fan-out sweep (BENCH_parallel.json)                       *)
(* ------------------------------------------------------------------ *)

(* Wall-clock of the three parallelized fan-out layers at several pool
   sizes: the cold Europe window scan (one task per window position),
   the America per-method sweep (one task per estimation method) and
   the America-scale dense Gram matvec (row-partitioned kernel).  One
   context is built up front and its workspaces swap pools between
   sweeps, so every job count times the same cached artifacts; that
   the *results* are independent of the job count is asserted in
   test_parallel, this file only records the speedups. *)
let parallel_json ~fast () =
  let module Core = Tmest_core in
  let module Workspace = Tmest_core.Workspace in
  let module Mat = Tmest_linalg.Mat in
  let module Vec = Tmest_linalg.Vec in
  let cores = Pool.default_jobs () in
  (* On a single-core box every jobs > 1 row measures scheduler churn,
     not parallel speedup; stamp the fact into the JSON so downstream
     consumers discard the speedup columns instead of reading noise. *)
  let oversubscribed = cores = 1 in
  if oversubscribed then
    Printf.eprintf
      "warning: only 1 core available — jobs > 1 rows are oversubscribed \
       and their speedups are not meaningful\n%!";
  let jobs_list = List.sort_uniq compare [ 1; 2; 4; cores ] in
  let window = if fast then 5 else 20 in
  let steps = if fast then 4 else 8 in
  let ctx = Ctx.create ~fast ~jobs:1 () in
  let eu = ctx.Ctx.europe in
  let us = ctx.Ctx.america in
  let cao = Core.Estimator.of_name "cao" in
  let methods =
    Array.of_list
      (List.map Core.Estimator.of_name (Core.Estimator.all_names ()))
  in
  let us_loads = us.Ctx.loads in
  let us_samples = Ctx.Scan.samples us ~window in
  let gram = Workspace.gram us.Ctx.workspace in
  let x = Vec.ones (Mat.cols gram) in
  let dst = Vec.zeros (Mat.rows gram) in
  let bench_at jobs =
    let pool = Pool.create ~jobs in
    List.iter
      (fun net -> Workspace.set_pool net.Ctx.workspace (Some pool))
      (Ctx.networks ctx);
    let scan =
      time_ns (fun () ->
          Ctx.Scan.run eu cao (Ctx.Scan.make (Ctx.Scan.Busy { window; steps })))
    in
    let sweep =
      time_ns (fun () ->
          ignore
            (Pool.map pool
               (fun est ->
                 Core.Estimator.solve est us.Ctx.workspace ~loads:us_loads
                   ~load_samples:us_samples)
               methods))
    in
    let matvec = time_ns (fun () -> Mat.matvec_into ~pool gram x ~dst) in
    Pool.shutdown pool;
    [
      ("europe_scan_cold", scan);
      ("america_method_sweep", sweep);
      ("america_gram_matvec", matvec);
    ]
  in
  let rows = List.map (fun jobs -> (jobs, bench_at jobs)) jobs_list in
  let base = List.assoc (List.hd jobs_list) rows in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (provenance ~jobs:(List.fold_left Stdlib.max 1 jobs_list));
  Buffer.add_string buf
    (Printf.sprintf "  \"oversubscribed\": %b,\n" oversubscribed);
  Buffer.add_string buf
    (Printf.sprintf "  \"mode\": %S,\n" (if fast then "fast" else "full"));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"window\": %d,\n  \"scan_steps\": %d,\n  \"scan_method\": \
        \"cao\",\n  \"unit\": \"ns/op\",\n"
       window steps);
  let section title value last =
    Buffer.add_string buf (Printf.sprintf "  \"%s\": {\n" title);
    List.iteri
      (fun i (jobs, v) ->
        Buffer.add_string buf
          (Printf.sprintf "    \"%d\": %s%s\n" jobs (value v)
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf (if last then "  }\n" else "  },\n")
  in
  let names = List.map fst base in
  List.iteri
    (fun i name ->
      section ("ns_" ^ name)
        (fun bench -> Printf.sprintf "%.0f" (List.assoc name bench))
        false;
      section ("speedup_" ^ name)
        (fun bench ->
          Printf.sprintf "%.2f" (List.assoc name base /. List.assoc name bench))
        (i = List.length names - 1))
    names;
  Buffer.add_string buf "}\n";
  let path = "BENCH_parallel.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  Printf.printf "%-24s" "benchmark \\ jobs";
  List.iter (fun jobs -> Printf.printf " %10d" jobs) jobs_list;
  print_newline ();
  List.iter
    (fun name ->
      Printf.printf "%-24s" name;
      List.iter
        (fun (_, bench) -> Printf.printf " %8.2fms" (List.assoc name bench /. 1e6))
        rows;
      Printf.printf "   (speedup at %d jobs: %.2fx)\n"
        (List.hd (List.rev jobs_list))
        (List.assoc name base
        /. List.assoc name (List.assoc (List.hd (List.rev jobs_list)) rows)))
    names

(* ------------------------------------------------------------------ *)
(* Scaling-law sweep over synthetic backbones (BENCH_scale.json)       *)
(* ------------------------------------------------------------------ *)

(* PoPs x method: wall seconds, MRE, per-solve allocation churn and the
   heap watermark, with sizes on both sides of the workspace sparse
   gate.  Sizes run in ascending order so each sparse size's watermark
   assertion (heap < pairs^2/2 words — the "no dense Gram was ever
   built" witness) is not contaminated by a larger earlier run.
   LP-based worst-case bounds are recorded as a documented exclusion
   above the gate rather than run. *)
let scale_json ~fast () =
  let module Core = Tmest_core in
  let module W = Tmest_core.Workspace in
  let module Dataset = Tmest_traffic.Dataset in
  let module Spec = Tmest_traffic.Spec in
  let module Mat = Tmest_linalg.Mat in
  let sizes = if fast then [ 12; 25; 60 ] else [ 25; 100; 250; 500 ] in
  let methods = Core.Estimator.all_names () in
  let window = 8 in
  let pool = Pool.default () in
  let failures = ref [] in
  (* Iteration-count regression guard: entropy and bayes at 100 PoPs
     (the tentpole size) must stay below pinned ceilings, so a solver
     change that quietly blows up the iteration count fails CI rather
     than just slowing the sweep.  Ceilings are the measured counts
     (entropy 3016, bayes at its 4000-iteration budget) plus margin. *)
  let guard_pops = 100 in
  (* tomogravity_iter and mcmc_int have deterministic budgets (the GIS
     outer cap and burn + samples*thin/chains sweeps): their ceilings
     are exact, and a drift means the budget arithmetic changed.
     cumulant's FISTA count is measured (1388 at 100 PoPs) plus
     margin, like entropy/bayes. *)
  let guard_ceilings =
    [
      ("entropy", 3400);
      ("bayes", 4000);
      ("tomogravity_iter", 200);
      ("cumulant", 1600);
      ("mcmc_int", 150);
    ]
  in
  let guard_results = ref [] in
  let rows =
    List.concat_map
      (fun pops ->
        let t0 = Unix.gettimeofday () in
        let d = Dataset.synthetic ~pops () in
        let ws = W.create ~pool d.Dataset.routing in
        let sparse = W.is_sparse ws in
        let pairs = Dataset.num_pairs d in
        let links = Dataset.num_links d in
        Printf.printf "# %d PoPs: %d pairs, %d links, %s mode (built in \
                       %.1fs)\n%!"
          pops pairs links
          (if sparse then "sparse" else "dense")
          (Unix.gettimeofday () -. t0);
        let spec = d.Dataset.spec in
        let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
        let loads = Dataset.link_loads_at d k in
        let truth = Dataset.demand_at d k in
        let busy_mean = Dataset.busy_mean_demand d in
        let ks = Array.of_list (Dataset.busy_samples d) in
        let ks = Array.sub ks (Array.length ks - window) window in
        let load_samples =
          Mat.init window links (fun i j -> (Dataset.link_loads_at d ks.(i)).(j))
        in
        let out =
          List.map
            (fun name ->
              if
                (* The shared capability predicate — same split the
                   registry, the CLI and the daemon consult. *)
                not
                  ((not sparse)
                  || Core.Estimator.supports_sparse
                       (Core.Estimator.of_name name))
              then begin
                Printf.printf "%4d %-8s excluded (dense-only)\n%!" pops name;
                (pops, pairs, links, sparse, name,
                 `Excluded
                   "LP-based worst-case bounds need a dense simplex \
                    tableau per demand; dense-only by design")
              end
              else begin
                let m = Core.Estimator.of_name name in
                W.reset_stats ws;
                let t0 = Unix.gettimeofday () in
                let estimate =
                  Core.Estimator.solve m ws ~loads ~load_samples
                in
                let seconds = Unix.gettimeofday () -. t0 in
                let st = W.stats ws in
                let iters = W.last_iterations ws ~name in
                let reference =
                  if Core.Estimator.uses_time_series m then busy_mean
                  else truth
                in
                let mre = Core.Metrics.mre ~truth:reference ~estimate () in
                Printf.printf
                  "%4d %-8s %8.2fs  mre %6.4f  iters %5s  churn %.2e w  \
                   heap %.2e w\n%!"
                  pops name seconds mre
                  (match iters with Some n -> string_of_int n | None -> "-")
                  st.W.peak_solve_words st.W.heap_words;
                (pops, pairs, links, sparse, name,
                 `Ok
                   (seconds, mre, st.W.peak_solve_words, st.W.heap_words,
                    iters))
              end)
            methods
        in
        (* The dense-matrix witness for this size. *)
        if sparse then begin
          let budget = float_of_int pairs *. float_of_int pairs /. 2. in
          List.iter
            (fun (_, _, _, _, name, r) ->
              match r with
              | `Ok (_, _, _, heap, _) when heap >= budget ->
                  failures :=
                    Printf.sprintf
                      "%d pops/%s: heap watermark %.2e words >= pairs^2/2 \
                       = %.2e"
                      pops name heap budget
                    :: !failures
              | _ -> ())
            out
        end;
        out)
      sizes
  in
  (* The iteration guard runs its own solves (the fast sizes do not
     include 100 PoPs) so CI and the full sweep apply the identical
     check. *)
  (let t0 = Unix.gettimeofday () in
   let d = Dataset.synthetic ~pops:guard_pops () in
   let ws = W.create ~pool d.Dataset.routing in
   let spec = d.Dataset.spec in
   let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
   let loads = Dataset.link_loads_at d k in
   let links = Dataset.num_links d in
   let ks = Array.of_list (Dataset.busy_samples d) in
   let ks = Array.sub ks (Array.length ks - window) window in
   let load_samples =
     Mat.init window links (fun i j -> (Dataset.link_loads_at d ks.(i)).(j))
   in
   List.iter
     (fun (name, ceiling) ->
       let m = Core.Estimator.of_name name in
       ignore (Core.Estimator.solve m ws ~loads ~load_samples);
       let iters =
         match W.last_iterations ws ~name with Some n -> n | None -> 0
       in
       guard_results := (name, iters, ceiling) :: !guard_results;
       if iters > ceiling then
         failures :=
           Printf.sprintf
             "%d pops/%s: %d iterations exceed the pinned ceiling %d"
             guard_pops name iters ceiling
           :: !failures)
     guard_ceilings;
   Printf.printf "# iteration guard at %d PoPs: %s (%.1fs)\n%!" guard_pops
     (String.concat ", "
        (List.rev_map
           (fun (name, iters, ceiling) ->
             Printf.sprintf "%s %d/%d" name iters ceiling)
           !guard_results))
     (Unix.gettimeofday () -. t0));
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (provenance ~jobs:(Pool.size pool));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"mode\": %S,\n  \"sparse_gate\": %d,\n  \"window\": %d,\n\
       \  \"assert\": \"sparse sizes keep the GC heap watermark below \
        pairs^2/2 words\",\n\
       \  \"assert_ok\": %b,\n"
       (if fast then "fast" else "full")
       Tmest_core.Workspace.sparse_gate window (!failures = []));
  Buffer.add_string buf
    (Printf.sprintf "  \"iteration_guard\": {\"pops\": %d, %s},\n" guard_pops
       (String.concat ", "
          (List.rev_map
             (fun (name, iters, ceiling) ->
               Printf.sprintf "%S: {\"iterations\": %d, \"ceiling\": %d}"
                 name iters ceiling)
             !guard_results)));
  Buffer.add_string buf "  \"sweep\": [\n";
  List.iteri
    (fun i (pops, pairs, links, sparse, name, r) ->
      let body =
        match r with
        | `Ok (seconds, mre, churn, heap, iters) ->
            Printf.sprintf
              "\"status\": \"ok\", \"seconds\": %.3f, \"mre\": %.6f, \
               \"solve_words\": %.3e, \"heap_words\": %.3e%s"
              seconds mre churn heap
              (match iters with
              | Some n -> Printf.sprintf ", \"iterations\": %d" n
              | None -> "")
        | `Excluded why -> Printf.sprintf "\"status\": \"excluded\", \"why\": %S" why
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"pops\": %d, \"pairs\": %d, \"links\": %d, \"mode\": \
            %S, \"method\": %S, %s}%s\n"
           pops pairs links
           (if sparse then "sparse" else "dense")
           name body
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let path = "BENCH_scale.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  if !failures <> [] then begin
    List.iter (Printf.eprintf "scale assertion FAILED: %s\n") !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Day-replay throughput sweep (BENCH_throughput.json)                 *)
(* ------------------------------------------------------------------ *)

(* Windows per second of the production estimation loop: replay a full
   measurement day — 288 five-minute intervals, the paper's operational
   cadence — through [Ctx.replay] at 25 and 100 PoPs, sweeping the pool
   size over {1, 2, 4, 8}.  The method is gravity + iterative
   proportional fitting ("kruithof"): the deployment-grade estimator
   whose per-window cost is low enough that scheduling and measurement
   overheads actually show (an entropy replay would hide any dispatch
   regression behind seconds of solver time).  Each jobs row re-times
   the identical replay on the same primed workspace, so the sweep
   isolates the runtime from cache-construction effects.

   The jobs=2 >= 1.2x jobs=1 windows/sec assertion only applies when
   the box has at least 2 cores; a 1-core container still runs the
   whole sweep and records [oversubscribed: true] plus a stderr
   warning instead of failing on numbers that only measure scheduler
   churn. *)
let throughput_json ~fast () =
  let module Core = Tmest_core in
  let module Workspace = Tmest_core.Workspace in
  let module Dataset = Tmest_traffic.Dataset in
  let cores = Domain.recommended_domain_count () in
  let oversubscribed = cores = 1 in
  if oversubscribed then
    Printf.eprintf
      "warning: only 1 core available — jobs > 1 rows are oversubscribed \
       and their windows/sec are not meaningful\n%!";
  let jobs_list = [ 1; 2; 4; 8 ] in
  let sizes = if fast then [ 12; 25 ] else [ 25; 100 ] in
  let windows = if fast then 24 else 288 in
  let window = 8 in
  let method_name = "kruithof" in
  let est = Core.Estimator.of_name method_name in
  let ctx = Ctx.create ~fast:true ~jobs:1 () in
  let failures = ref [] in
  let sweep =
    List.concat_map
      (fun pops ->
        let net = Ctx.synthetic ctx ~pops in
        let pairs = Dataset.num_pairs net.Ctx.dataset in
        let links = Dataset.num_links net.Ctx.dataset in
        Printf.printf "# %d PoPs: %d pairs, %d links, %d windows\n%!" pops
          pairs links windows;
        (* Prime the shared workspace artifacts once, so every jobs row
           times the steady-state estimation loop rather than paying
           first-touch cache construction in whichever row runs first. *)
        ignore
          (Ctx.Scan.run net est
             (Ctx.Scan.make (Ctx.Scan.Replay { window; windows = 1 })));
        let rows =
          List.map
            (fun jobs ->
              let pool = Pool.create ~jobs in
              Workspace.set_pool net.Ctx.workspace (Some pool);
              let t0 = Unix.gettimeofday () in
              ignore
                (Ctx.Scan.run net est
                   (Ctx.Scan.make (Ctx.Scan.Replay { window; windows })));
              let seconds = Unix.gettimeofday () -. t0 in
              Workspace.set_pool net.Ctx.workspace None;
              Pool.shutdown pool;
              let wps = float_of_int windows /. seconds in
              Printf.printf "%4d PoPs  jobs %d  %7.2fs  %8.1f windows/sec\n%!"
                pops jobs seconds wps;
              (pops, pairs, links, jobs, seconds, wps))
            jobs_list
        in
        (* Speedup floor, asserted only where a speedup can exist. *)
        if cores >= 2 then begin
          let wps_at j =
            let (_, _, _, _, _, w) =
              List.find (fun (_, _, _, jobs, _, _) -> jobs = j) rows
            in
            w
          in
          let ratio = wps_at 2 /. wps_at 1 in
          if ratio < 1.2 then
            failures :=
              Printf.sprintf
                "%d pops: jobs=2 windows/sec only %.2fx jobs=1 (floor 1.2x)"
                pops ratio
              :: !failures
        end;
        rows)
      sizes
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (provenance ~jobs:(List.fold_left Stdlib.max 1 jobs_list));
  Buffer.add_string buf
    (Printf.sprintf "  \"oversubscribed\": %b,\n" oversubscribed);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"mode\": %S,\n  \"method\": %S,\n  \"window\": %d,\n\
       \  \"windows\": %d,\n"
       (if fast then "fast" else "full")
       method_name window windows);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"assert\": \"jobs=2 windows/sec >= 1.2x jobs=1 (skipped when \
        cores = 1)\",\n\
       \  \"assert_skipped\": %b,\n  \"assert_ok\": %b,\n"
       (cores < 2) (!failures = []));
  Buffer.add_string buf "  \"sweep\": [\n";
  List.iteri
    (fun i (pops, pairs, links, jobs, seconds, wps) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"pops\": %d, \"pairs\": %d, \"links\": %d, \"jobs\": %d, \
            \"seconds\": %.3f, \"windows_per_sec\": %.2f}%s\n"
           pops pairs links jobs seconds wps
           (if i = List.length sweep - 1 then "" else ",")))
    sweep;
  Buffer.add_string buf "  ]\n}\n";
  let path = "BENCH_throughput.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  if !failures <> [] then begin
    List.iter (Printf.eprintf "throughput assertion FAILED: %s\n") !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Streaming-daemon day replay (BENCH_daemon.json)                     *)
(* ------------------------------------------------------------------ *)

(* Ticks per second and tick-latency percentiles of the streaming
   estimation daemon over a full measurement day — 288 five-minute
   intervals — at 25 and 100 PoPs, with one mid-day link flap and one
   poller dropout.  The method is kruithof, as in the throughput sweep:
   deployment-grade, cheap enough that loop overheads show.

   Two correctness assertions ride along, so the benchmark doubles as
   the acceptance check for the daemon:

   - every clean full-window tick before the first scripted fault is
     bit-identical to a batch [Ctx.Scan] over the same recovered load
     rows (the stream runs with zero jitter and zero loss here, so the
     pre-fault prefix is genuinely clean and repair is a physical
     no-op);
   - the poller-dropout ticks emit repaired estimates together with a
     health record that says the window was not clean.

   No tick may abort. *)
let daemon_json ~fast () =
  let module Core = Tmest_core in
  let module Dataset = Tmest_traffic.Dataset in
  let module Collect = Tmest_snmp.Collect in
  let module Daemon = Tmest_daemon.Daemon in
  let sizes = if fast then [ 12; 25 ] else [ 25; 100 ] in
  let ticks = if fast then 24 else 288 in
  let window = 8 in
  let method_name = "kruithof" in
  let est = Core.Estimator.of_name method_name in
  let pool = Pool.default () in
  let ctx = Ctx.create ~fast:true ~jobs:1 () in
  (* One interior-link flap mid-day, one poller dropout in the evening;
     everything before the flap is the clean identity prefix. *)
  let flap_from = ticks / 2 in
  let drop_from = 3 * ticks / 4 in
  let scenario =
    {
      Daemon.flaps = [ (0, flap_from, flap_from + 2) ];
      poller_drops = [ (1, drop_from, drop_from + 1) ];
      resets = [];
    }
  in
  let stream =
    { Collect.default_config with Collect.jitter_s = 0.; loss_prob = 0. }
  in
  let failures = ref [] in
  let rows =
    List.map
      (fun pops ->
        let d = Dataset.synthetic ~pops () in
        let pairs = Dataset.num_pairs d in
        let links = Dataset.num_links d in
        Printf.printf "# %d PoPs: %d pairs, %d links, %d ticks\n%!" pops pairs
          links ticks;
        let cfg =
          Daemon.config ~window ~ticks ~stream ~scenario ~est ()
        in
        let r = Daemon.run ~pool cfg d in
        if r.Daemon.aborted > 0 then
          failures :=
            Printf.sprintf "%d pops: %d ticks aborted" pops r.Daemon.aborted
            :: !failures;
        (* Clean-prefix bit-identity: replay the recovered rows of the
           pre-fault ticks through the batch scan and compare the
           full-window estimates bitwise. *)
        let records = Array.of_list r.Daemon.records in
        let prefix = Array.sub records 0 (Stdlib.min flap_from (Array.length records)) in
        let rows_loads = Array.map (fun t -> t.Daemon.loads) prefix in
        let net = Ctx.synthetic ctx ~pops in
        let batch =
          Ctx.Scan.run net est
            (Ctx.Scan.make (Ctx.Scan.Windows { window; loads = rows_loads }))
        in
        let identical = ref 0 in
        List.iter
          (fun (k, batch_est) ->
            (* The scan labels each step with [start + window - 1] — the
               daemon tick whose window it replays. *)
            let daemon_est = prefix.(k).Daemon.estimate in
            let same =
              Array.length batch_est = Array.length daemon_est
              && (let ok = ref true in
                  Array.iteri
                    (fun j v ->
                      if
                        Int64.bits_of_float v
                        <> Int64.bits_of_float daemon_est.(j)
                      then ok := false)
                    batch_est;
                  !ok)
            in
            if same then incr identical
            else
              failures :=
                Printf.sprintf
                  "%d pops: tick %d estimate differs from the batch scan" pops
                  k
                :: !failures)
          batch;
        let checked = List.length batch in
        Printf.printf "  clean prefix: %d/%d full-window ticks bit-identical \
                       to the batch scan\n%!"
          !identical checked;
        (* Faulted ticks: repaired estimate plus a non-clean health
           record on every poller-dropout tick. *)
        Array.iter
          (fun (t : Daemon.tick_record) ->
            if t.Daemon.tick >= drop_from && t.Daemon.tick <= drop_from + 1
            then begin
              if t.Daemon.missing = 0 then
                failures :=
                  Printf.sprintf "%d pops: dropout tick %d lost no polls" pops
                    t.Daemon.tick
                  :: !failures;
              match t.Daemon.health with
              | Some h when not h.Core.Degrade.clean ->
                  if not (Array.for_all Float.is_finite t.Daemon.estimate)
                  then
                    failures :=
                      Printf.sprintf
                        "%d pops: dropout tick %d estimate not finite" pops
                        t.Daemon.tick
                      :: !failures
              | _ ->
                  failures :=
                    Printf.sprintf
                      "%d pops: dropout tick %d has no non-clean health \
                       record"
                      pops t.Daemon.tick
                    :: !failures
            end)
          records;
        Printf.printf
          "%4d PoPs  %8.1f ticks/s  p50 %.2f ms  p99 %.2f ms  %d epochs\n%!"
          pops r.Daemon.ticks_per_sec r.Daemon.p50_ms r.Daemon.p99_ms
          r.Daemon.epochs;
        (pops, pairs, links, r, !identical, checked))
      sizes
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (provenance ~jobs:(Pool.size pool));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"mode\": %S,\n  \"method\": %S,\n  \"window\": %d,\n\
       \  \"ticks\": %d,\n"
       (if fast then "fast" else "full")
       method_name window ticks);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scenario\": {\"flap_link\": [0, %d, %d], \"drop_poller\": [1, \
        %d, %d]},\n"
       flap_from (flap_from + 2) drop_from (drop_from + 1));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"assert\": \"no aborted ticks; clean full-window prefix ticks \
        bit-identical to the batch scan; dropout ticks repaired with \
        non-clean health records\",\n\
       \  \"assert_ok\": %b,\n"
       (!failures = []));
  Buffer.add_string buf "  \"sweep\": [\n";
  List.iteri
    (fun i (pops, pairs, links, (r : Daemon.result), identical, checked) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"pops\": %d, \"pairs\": %d, \"links\": %d, \"ticks\": %d, \
            \"aborted\": %d, \"epochs\": %d, \"ticks_per_sec\": %.2f, \
            \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"polls_lost\": %d, \
            \"identical_prefix_ticks\": %d, \"checked_prefix_ticks\": %d}%s\n"
           pops pairs links r.Daemon.ticks r.Daemon.aborted r.Daemon.epochs
           r.Daemon.ticks_per_sec r.Daemon.p50_ms r.Daemon.p99_ms
           r.Daemon.polls_lost identical checked
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let path = "BENCH_daemon.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  if !failures <> [] then begin
    List.iter (Printf.eprintf "daemon assertion FAILED: %s\n") !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel performance suite                                          *)
(* ------------------------------------------------------------------ *)

let kernel_tests () =
  let open Bechamel in
  let module Mat = Tmest_linalg.Mat in
  let module Vec = Tmest_linalg.Vec in
  let module Csr = Tmest_linalg.Csr in
  let rng = Tmest_stats.Rng.create 11 in
  let mat n m = Mat.init n m (fun _ _ -> Tmest_stats.Rng.float rng) in
  let a200 = mat 200 200 in
  let b200 = mat 200 200 in
  let v200 = Array.init 200 (fun _ -> Tmest_stats.Rng.float rng) in
  let spd = Mat.add (Mat.gram (mat 120 120)) (Mat.identity 120) in
  let rhs = Array.init 120 (fun _ -> Tmest_stats.Rng.float rng) in
  let eu = Tmest_traffic.Dataset.europe () in
  let r_eu = eu.Tmest_traffic.Dataset.routing in
  let demand =
    Tmest_traffic.Dataset.demand_at eu 229
  in
  let w200 = Array.init 200 (fun _ -> Tmest_stats.Rng.float rng) in
  let dst200 = Vec.zeros 200 in
  let dst_mv = Vec.zeros 200 in
  let r_eu_csr = r_eu.Tmest_net.Routing.matrix in
  let link_buf = Vec.zeros (Csr.rows r_eu_csr) in
  let ws_eu = Tmest_core.Workspace.create r_eu in
  let loads_eu = Tmest_net.Routing.link_loads r_eu demand in
  let dirty_eu =
    Tmest_faults.Inject.loads
      (Tmest_faults.Inject.make ~seed:5
         ~noise:(Tmest_faults.Inject.Gaussian 0.02) ~drop_prob:0.05 ())
      ~loads:loads_eu
  in
  ignore (Tmest_core.Workspace.gram_chol ws_eu);
  [
    Test.make ~name:"mat200.matmul" (Staged.stage (fun () ->
        Mat.matmul a200 b200));
    Test.make ~name:"mat200.matvec" (Staged.stage (fun () ->
        Mat.matvec a200 v200));
    Test.make ~name:"mat200.matvec_into" (Staged.stage (fun () ->
        Mat.matvec_into a200 v200 ~dst:dst_mv));
    Test.make ~name:"vec200.axpy" (Staged.stage (fun () ->
        Vec.axpy 1.5 v200 w200));
    Test.make ~name:"vec200.axpy_into" (Staged.stage (fun () ->
        Vec.axpy_into 1.5 v200 w200 ~dst:dst200));
    Test.make ~name:"chol120.factor+solve" (Staged.stage (fun () ->
        Tmest_linalg.Chol.solve_system spd rhs));
    Test.make ~name:"lu120.factor+solve" (Staged.stage (fun () ->
        Tmest_linalg.Lu.solve_system spd rhs));
    Test.make ~name:"csr.europe.link_loads" (Staged.stage (fun () ->
        Tmest_net.Routing.link_loads r_eu demand));
    Test.make ~name:"csr.europe.matvec_into" (Staged.stage (fun () ->
        Csr.matvec_into r_eu_csr demand ~dst:link_buf));
    Test.make ~name:"lambert.w0" (Staged.stage (fun () ->
        Tmest_stats.Lambert.w0 12.3));
    (* Degraded-mode overhead: the clean pass is the per-solve tax when
       nothing is wrong; the dirty pass adds the masked re-factor. *)
    Test.make ~name:"degrade.europe.clean" (Staged.stage (fun () ->
        Tmest_core.Degrade.repair Tmest_core.Degrade.default ws_eu
          ~loads:loads_eu ()));
    Test.make ~name:"degrade.europe.dirty" (Staged.stage (fun () ->
        Tmest_core.Degrade.repair Tmest_core.Degrade.default ws_eu
          ~loads:dirty_eu ()));
  ]

(* Dispatch overhead of the pool primitives themselves: noop bodies, so
   the numbers are pure submit/collect cost.  [parallel_for] prices the
   batched submission path (one lock acquisition and broadcast per
   call, with the participate closure allocated once — not once per
   copy); [iter_chunks] adds the chunk-bounds bookkeeping;
   [iter_grained] the grain-model arithmetic, once with a cost below
   the grain (stays inline, no dispatch at all) and once far above it
   (splits and pays the full fan-out). *)
let pool_tests () =
  let open Bechamel in
  let pool = Pool.create ~jobs:2 in
  [
    Test.make ~name:"pool2.parallel_for_n64"
      (Staged.stage (fun () -> Pool.parallel_for pool ~n:64 (fun _ -> ())));
    Test.make ~name:"pool2.iter_chunks_n64"
      (Staged.stage (fun () ->
           Pool.iter_chunks pool ~n:64 (fun ~chunk:_ ~lo:_ ~hi:_ -> ())));
    Test.make ~name:"pool2.iter_grained_inline"
      (Staged.stage (fun () ->
           Pool.iter_grained pool ~n:64 ~cost:64 (fun ~lo:_ ~hi:_ -> ())));
    Test.make ~name:"pool2.iter_grained_split"
      (Staged.stage (fun () ->
           Pool.iter_grained pool ~n:64 ~cost:1_000_000 (fun ~lo:_ ~hi:_ -> ())));
  ]

(* Full fixed-iteration solves on a 200-dim SPD quadratic with
   preallocated scratch: the allocation column should read ~0 words/run
   beyond the one result copy. *)
let solver_tests () =
  let open Bechamel in
  let module Mat = Tmest_linalg.Mat in
  let module Vec = Tmest_linalg.Vec in
  let module Fista = Tmest_opt.Fista in
  let module Proxgrad = Tmest_opt.Proxgrad in
  let module Cg = Tmest_opt.Cg in
  let rng = Tmest_stats.Rng.create 23 in
  let dim = 200 in
  let a =
    Mat.add
      (Mat.gram (Mat.init dim dim (fun _ _ -> Tmest_stats.Rng.float rng)))
      (Mat.identity dim)
  in
  let b = Array.init dim (fun _ -> Tmest_stats.Rng.float rng) in
  let lip = Fista.lipschitz_of_gram a in
  let gradient_into x ~dst =
    Mat.matvec_into a x ~dst;
    Vec.sub_into dst b ~dst
  in
  let fista_scratch = Array.init Fista.scratch_size (fun _ -> Vec.zeros dim) in
  let pg_scratch = Array.init Proxgrad.scratch_size (fun _ -> Vec.zeros dim) in
  let cg_scratch = Array.init Cg.scratch_size (fun _ -> Vec.zeros dim) in
  let prior = Vec.ones dim in
  let stop64 = Tmest_opt.Stop.make ~max_iter:64 ~tol:0. () in
  [
    Test.make ~name:"fista200.solve_into_x64" (Staged.stage (fun () ->
        Fista.solve_into ~stop:stop64 ~scratch:fista_scratch ~dim
          ~gradient_into ~lipschitz:lip ()));
    Test.make ~name:"proxgrad200.solve_into_x64" (Staged.stage (fun () ->
        Proxgrad.solve_into ~stop:stop64 ~scratch:pg_scratch ~dim
          ~gradient_into
          ~prox_into:(Proxgrad.kl_prox_into ~weight:0.1 ~prior)
          ~lipschitz:lip ()));
    Test.make ~name:"cg200.solve_into_x64" (Staged.stage (fun () ->
        Cg.solve_into ~stop:stop64 ~scratch:cg_scratch
          ~apply_into:(fun v ~dst -> Mat.matvec_into a v ~dst)
          ~b ()));
  ]

let experiment_tests () =
  let open Bechamel in
  (* One Test.make per paper table/figure: the full pipeline on the
     reduced context so a single run stays sub-second. *)
  let ctx = Ctx.create ~fast:true () in
  List.map
    (fun e ->
      Test.make ~name:("exp." ^ e.Registry.id)
        (Staged.stage (fun () -> ignore (e.Registry.run ctx))))
    Registry.all

(* Bechamel's stock [minor_allocated] reads [Gc.quick_stat], which on
   OCaml 5 only refreshes [minor_words] at minor collections — small
   per-run allocation rates are invisible to it.  [Gc.minor_words ()]
   reads the domain-local allocation pointer and is exact. *)
module Precise_minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words_instance =
  let open Bechamel in
  Measure.instance
    (module Precise_minor_words)
    (Measure.register (module Precise_minor_words))

let run_perf ~fast () =
  let open Bechamel in
  (* [--fast] is the CI smoke mode: kernels and solvers only (no
     experiment pipelines) under a small measurement quota. *)
  let tests =
    Test.make_grouped ~name:"tmest" ~fmt:"%s.%s"
      (kernel_tests () @ solver_tests () @ pool_tests ()
      @ (if fast then [] else experiment_tests ()))
  in
  let cfg =
    if fast then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.1) ~kde:None ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None ()
  in
  let instances = [ minor_words_instance; Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  let times = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let allocs = Analyze.all ols minor_words_instance raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) times [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some o -> (
        match Analyze.OLS.estimates o with Some (x :: _) -> Some x | _ -> None)
    | None -> None
  in
  Printf.printf "%-32s %14s %18s\n" "benchmark" "time/run" "minor words/run";
  List.iter
    (fun (name, _) ->
      let time =
        match estimate times name with
        | Some ns ->
            if ns > 1e9 then Printf.sprintf "%8.2f  s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
            else Printf.sprintf "%8.0f ns" ns
        | None -> "n/a"
      in
      let alloc =
        match estimate allocs name with
        | Some w -> Printf.sprintf "%14.0f w" w
        | None -> "n/a"
      in
      Printf.printf "%-32s %14s %18s\n" name time alloc)
    rows

let () =
  let fast = ref false in
  let perf = ref false in
  let scale = ref false in
  let throughput = ref false in
  let daemon = ref false in
  let only = ref None in
  let list = ref false in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
        fast := true;
        parse rest
    | "--perf" :: rest ->
        perf := true;
        parse rest
    | "--scale" :: rest ->
        scale := true;
        parse rest
    | "--throughput" :: rest ->
        throughput := true;
        parse rest
    | "--daemon" :: rest ->
        daemon := true;
        parse rest
    | "--list" :: rest ->
        list := true;
        parse rest
    | "--only" :: ids :: rest ->
        only := Some (String.split_on_char ',' ids);
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j > 0 -> Pool.set_default_jobs j
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 2);
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: main.exe [--fast] [--perf] [--scale] [--throughput] \
           [--daemon] [--list] [--jobs N] [--only id,id,...]\n\
           unknown argument: %s\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list then
    List.iter
      (fun e -> Printf.printf "%-6s %s\n" e.Registry.id e.Registry.title)
      Registry.all
  else if !daemon then daemon_json ~fast:!fast ()
  else if !throughput then throughput_json ~fast:!fast ()
  else if !scale then scale_json ~fast:!fast ()
  else if !perf then begin
    if not !fast then workspace_json ();
    solvers_json ~fast:!fast ();
    parallel_json ~fast:!fast ();
    run_perf ~fast:!fast ()
  end
  else run_reports ~fast:!fast ~only:!only ()
