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
   BENCH_solvers.json (per-iteration solver allocations, full-method
   timings with the warm-start cache, the cold-vs-warm window-scan
   meso-benchmark and the cold-vs-cached workspace artifacts) and
   BENCH_parallel.json (the multicore fan-out sweep over jobs in
   {1, 2, 4, #cores}).  It exits 1 when FISTA, proxgrad or CG allocate
   more than 2, 4 or 10 minor words per iteration.  [--perf --fast] is
   the CI smoke variant: kernels and solvers only, reduced context and
   quota, no workspace-artifact rows.

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

   [--daemon] drives the streaming daemon over a measurement day with
   one link flap and one poller dropout and writes BENCH_daemon.json;
   [--daemon --fast] is the CI smoke variant (24 ticks).

   Timed figures (ns/op, windows/sec) are medians of repeated runs after
   one untimed warm-up ([time_ns]); scale and daemon rows are single
   runs.  [emit] writes every file with the machine provenance; [--fast]
   runs write BENCH_<name>.fast.json, never the committed full-scale
   files.  A mode whose assertions fail writes its file, then exits 1.

   Other flags: [--fast] (reduced datasets for the report mode),
   [--jobs N] (domain-pool size; default TMEST_JOBS, then the
   recommended domain count), [--only fig13,tab2], [--list]. *)

module Registry = Tmest_experiments.Registry
module Report = Tmest_experiments.Report
module Ctx = Tmest_experiments.Ctx
module Pool = Tmest_parallel.Pool
module Json = Tmest_obs.Json
module Core = Tmest_core
module Workspace = Tmest_core.Workspace
module Dataset = Tmest_traffic.Dataset
module Mat = Tmest_linalg.Mat
module Vec = Tmest_linalg.Vec

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
        Workspace.pp_stats
        (Workspace.stats net.Ctx.workspace))
    (Ctx.networks ctx);
  Printf.printf "all experiments done in %.1fs\n%!"
    (Unix.gettimeofday () -. t_start)

(* ------------------------------------------------------------------ *)
(* Shared machinery: provenance, emitter, assertions, timer            *)
(* ------------------------------------------------------------------ *)

(* The machine's core count, read the same way in every mode — not the
   pool size, which follows --jobs and TMEST_JOBS. *)
let cores = Domain.recommended_domain_count ()

(* On a single-core box every jobs > 1 row measures scheduler churn,
   not parallel speedup; the sweeps stamp the fact into their JSON so
   downstream consumers discard those rows instead of reading noise. *)
let oversubscribed ~what =
  if cores = 1 then
    Printf.eprintf
      "warning: only 1 core available — jobs > 1 rows are oversubscribed \
       and their %s are not meaningful\n%!"
      what;
  cores = 1

let int n = Json.Num (float_of_int n)
let str s = Json.Str s
let mode ~fast = str (if fast then "fast" else "full")

(* Writes BENCH_<name>.json, or BENCH_<name>.fast.json for a [--fast]
   run.  The machine/run provenance goes first, so recorded numbers can
   be compared across checkouts: the core count, the runtime's own
   recommendation (identical here, but kept as a separate key because
   downstream tooling reads both and containerized runners can
   diverge), the pool size the benchmark actually used, and the
   compiler version.  One top-level field, or one row of a top-level
   list, per line keeps the files diffable. *)
let emit ~fast ~name ~jobs fields =
  let path =
    Printf.sprintf "BENCH_%s%s.json" name (if fast then ".fast" else "")
  in
  let fields =
    [ ("cores", int cores); ("cores_recommended", int cores);
      ("jobs", int jobs); ("ocaml_version", str Sys.ocaml_version) ]
    @ fields
  in
  let field (key, v) =
    Json.to_string (Json.Str key)
    ^ ": "
    ^
    match v with
    | Json.List (_ :: _ as rows) ->
        "[\n    "
        ^ String.concat ",\n    " (List.map Json.to_string rows)
        ^ "\n  ]"
    | v -> Json.to_string v
  in
  let oc = open_out path in
  output_string oc
    ("{\n  " ^ String.concat ",\n  " (List.map field fields) ^ "\n}\n");
  close_out oc;
  Printf.printf "wrote %s\n" path

(* Assertion failures of the running mode: [check] records one,
   [finish] reports them all on stderr and exits 1. *)
let failures = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

let finish ~label =
  if !failures <> [] then begin
    List.iter
      (Printf.eprintf "%s assertion FAILED: %s\n" label)
      (List.rev !failures);
    exit 1
  end

(* ns/op: one untimed warm-up call, then timed samples until ~0.5 s has
   accumulated (at least 3), reporting the median.  A sample batches
   enough calls to span >= 1 ms, so sub-microsecond cache hits stay
   above the clock's resolution; the median, unlike a mean, is not
   dragged by the odd GC or scheduler stall.  The warm-up also pays
   every first-touch cost — workspace artifacts, and the per-domain
   arenas of a freshly created pool — outside the timing. *)
let time_ns f =
  ignore (f ());
  let sample batch =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do ignore (f ()) done;
    (Unix.gettimeofday () -. t0) /. float_of_int batch
  in
  let t_start = Unix.gettimeofday () in
  let rec calibrate batch =
    let t = sample batch in
    if t *. float_of_int batch >= 1e-3 then (batch, t)
    else calibrate (2 * batch)
  in
  let batch, first = calibrate 1 in
  let samples = ref [ first ] in
  while List.length !samples < 3 || Unix.gettimeofday () -. t_start < 0.5 do
    samples := sample batch :: !samples
  done;
  1e9 *. Tmest_stats.Desc.median (Array.of_list !samples)

(* ns figures are recorded as whole nanoseconds. *)
let ns x = Json.Num (Float.round x)

(* [time_rows rows] times each [(name, f)] with [time_ns], in list
   order (the elements of a list literal are evaluated in no set
   order). *)
let time_rows rows = List.map (fun (name, f) -> (name, time_ns f)) rows
let row name f = (name, fun () -> ignore (f ()))

(* ------------------------------------------------------------------ *)
(* Solver hot-path allocations, full-method and workspace timings      *)
(* (BENCH_solvers.json)                                                *)
(* ------------------------------------------------------------------ *)

(* Marginal allocation of one extra solver iteration: the minor-heap
   words per solve, read directly off the GC counters (deterministic,
   unlike timings), of a (1+n)-iteration solve minus a 1-iteration
   one.  The setup cost (scratch validation, result copy) cancels out. *)
let words_per_iter solve =
  let words iters =
    ignore (solve iters);
    let before = Gc.minor_words () in
    for _ = 1 to 8 do ignore (solve iters) done;
    (Gc.minor_words () -. before) /. 8.
  in
  let extra = 64 in
  (words (1 + extra) -. words 1) /. float_of_int extra

(* The solver cores on a synthetic 200-dim SPD quadratic with
   preallocated scratch, so the numbers are routing-independent:
   [(name, solve)] where [solve stop] runs that core under [stop]. *)
let quadratic_solvers () =
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
  let scratch n = Array.init n (fun _ -> Vec.zeros dim) in
  let fista_scratch = scratch Fista.scratch_size in
  let pg_scratch = scratch Proxgrad.scratch_size in
  let cg_scratch = scratch Cg.scratch_size in
  let prior = Vec.ones dim in
  [
    ( "fista",
      fun stop ->
        ignore
          (Fista.solve_into ~stop ~scratch:fista_scratch ~dim ~gradient_into
             ~lipschitz:lip ()) );
    ( "proxgrad",
      fun stop ->
        ignore
          (Proxgrad.solve_into ~stop ~scratch:pg_scratch ~dim ~gradient_into
             ~prox_into:(Proxgrad.kl_prox_into ~weight:0.1 ~prior)
             ~lipschitz:lip ()) );
    ( "cg",
      fun stop ->
        ignore
          (Cg.solve_into ~stop ~scratch:cg_scratch
             ~apply_into:(fun v ~dst -> Mat.matvec_into a v ~dst)
             ~b ()) );
  ]

let solvers_json ~fast () =
  (* Exactly n iterations: tolerance 0 never triggers early exit. *)
  let stop_exact n = Tmest_opt.Stop.make ~max_iter:n ~tol:0. () in
  let alloc_rows =
    List.map
      (fun (name, solve) ->
        (name, words_per_iter (fun n -> solve (stop_exact n))))
      (quadratic_solvers ())
  in
  (* Full-method timings plus the cold-vs-warm window-scan comparison on
     the shared experiment context. *)
  let ctx = Ctx.create ~fast () in
  let net = ctx.Ctx.europe in
  let loads = net.Ctx.loads in
  let window = if fast then 5 else 20 in
  let steps = if fast then 3 else 5 in
  let load_samples = Ctx.Scan.samples net ~window in
  let routing = net.Ctx.dataset.Dataset.routing in
  let entropy = Core.Estimator.of_name "entropy" in
  let cao = Core.Estimator.of_name "cao" in
  let warm_opts = Core.Estimator.Options.make ~warm:true () in
  let solve ?opts est ws () =
    Core.Estimator.solve ?opts est ws ~loads ~load_samples
  in
  (* The "cold" rows rebuild the workspace inside the thunk, so they
     price a from-scratch routing context; the "warm" rows reuse the
     context's workspace and its warm-start cache, which the timer's
     warm-up call populates. *)
  let cold est () = solve est (Workspace.create routing) () in
  let warm est = solve ~opts:warm_opts est net.Ctx.workspace in
  let scan opts () =
    Ctx.Scan.run net cao (Ctx.Scan.make ~opts (Ctx.Scan.Busy { window; steps }))
  in
  (* Workspace artifacts on their own workspace, cold (rebuilt per
     call) against cached, and the same solves with every artifact
     cached but no warm start. *)
  let cached = Workspace.create routing in
  let cached_rows =
    [
      row "gram_cold" (fun () -> Workspace.gram (Workspace.create routing));
      row "gram_warm" (fun () -> Workspace.gram cached);
      row "factor_cold" (fun () ->
          Tmest_linalg.Chol.factor_regularized (Workspace.gram cached));
      row "factor_warm" (fun () -> Workspace.gram_chol cached);
      row "entropy_solve_cached" (solve entropy cached);
      row "cao_solve_cached" (solve cao cached);
    ]
  in
  let ns_rows =
    time_rows
      ([
         row "entropy_solve_cold" (cold entropy);
         row "entropy_solve_warm" (warm entropy);
         row "cao_solve_cold" (cold cao);
         row "cao_solve_warm" (warm cao);
         (* Scan with the Cao estimator: its warm start reuses the
            previous window's lambda and skips the first-moment
            bootstrap entirely, so the cold/warm gap is the meso-level
            payoff of the cache.  (Entropy re-derives a near-optimal
            start from the gravity prior of each window's own loads, so
            warm-starting barely moves its iteration count.) *)
         row "windows_scan_cold" (scan Core.Estimator.Options.default);
         row "windows_scan_warm" (scan warm_opts);
       ]
      @ if fast then [] else cached_rows)
  in
  emit ~fast ~name:"solvers" ~jobs:(Pool.size (Ctx.pool ctx))
    [
      ("network", str (if fast then "europe-fast" else "europe"));
      ("window", int window); ("scan_steps", int steps);
      ("scan_method", str "cao");
      ( "alloc_minor_words_per_iter",
        Json.Obj (List.map (fun (name, w) -> (name, Json.Num w)) alloc_rows) );
      ( "ns_per_op",
        Json.Obj (List.map (fun (name, t) -> (name, ns t)) ns_rows) );
    ];
  List.iter
    (fun (name, words) ->
      Printf.printf "%-20s %12.1f minor words/iter\n" name words)
    alloc_rows;
  List.iter
    (fun (name, t) -> Printf.printf "%-20s %12.0f ns/op\n" name t)
    ns_rows;
  (* Ceilings at the solver cores' measured per-iteration allocation
     with tracing disabled: a value above one means a hot path started
     allocating. *)
  List.iter
    (fun (name, words) ->
      let ceiling =
        List.assoc name [ ("fista", 2.); ("proxgrad", 4.); ("cg", 10.) ]
      in
      check (words <= ceiling)
        "%s allocates %.1f minor words/iter (ceiling %.0f)" name words ceiling)
    alloc_rows;
  finish ~label:"perf"

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
  let oversubscribed = oversubscribed ~what:"speedups" in
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
  let us_samples = Ctx.Scan.samples us ~window in
  let gram = Workspace.gram us.Ctx.workspace in
  let x = Vec.ones (Mat.cols gram) in
  let dst = Vec.zeros (Mat.rows gram) in
  let bench_at jobs =
    let pool = Pool.create ~jobs in
    List.iter
      (fun net -> Workspace.set_pool net.Ctx.workspace (Some pool))
      (Ctx.networks ctx);
    let bench =
      time_rows
        [
          row "europe_scan_cold" (fun () ->
              Ctx.Scan.run eu cao
                (Ctx.Scan.make (Ctx.Scan.Busy { window; steps })));
          row "america_method_sweep" (fun () ->
              Pool.map pool
                (fun est ->
                  Core.Estimator.solve est us.Ctx.workspace ~loads:us.Ctx.loads
                    ~load_samples:us_samples)
                methods);
          row "america_gram_matvec" (fun () ->
              Mat.matvec_into ~pool gram x ~dst);
        ]
    in
    Pool.shutdown pool;
    bench
  in
  let rows = List.map (fun jobs -> (jobs, bench_at jobs)) jobs_list in
  let base = List.assoc 1 rows in
  let top, top_bench = List.nth rows (List.length rows - 1) in
  let names = List.map fst base in
  let by_jobs value =
    Json.Obj
      (List.map (fun (jobs, bench) -> (string_of_int jobs, value bench)) rows)
  in
  emit ~fast ~name:"parallel" ~jobs:top
    ([
       ("oversubscribed", Json.Bool oversubscribed); ("mode", mode ~fast);
       ("window", int window); ("scan_steps", int steps);
       ("scan_method", str "cao"); ("unit", str "ns/op");
     ]
    @ List.concat_map
        (fun name ->
          [
            ("ns_" ^ name, by_jobs (fun bench -> ns (List.assoc name bench)));
            ( "speedup_" ^ name,
              by_jobs (fun bench ->
                  Json.Num (List.assoc name base /. List.assoc name bench)) );
          ])
        names);
  Printf.printf "%-24s" "benchmark \\ jobs";
  List.iter (fun jobs -> Printf.printf " %10d" jobs) jobs_list;
  print_newline ();
  List.iter
    (fun name ->
      Printf.printf "%-24s" name;
      List.iter
        (fun (_, bench) -> Printf.printf " %8.2fms" (List.assoc name bench /. 1e6))
        rows;
      Printf.printf "   (speedup at %d jobs: %.2fx)\n" top
        (List.assoc name base /. List.assoc name top_bench))
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
  let module Spec = Tmest_traffic.Spec in
  let sizes = if fast then [ 12; 25; 60 ] else [ 25; 100; 250; 500 ] in
  let methods = Core.Estimator.all_names () in
  let window = 8 in
  let pool = Pool.default () in
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
  (* One size's dataset, workspace, busy-midpoint index and loads, and
     busy-window samples. *)
  let setup pops =
    let d = Dataset.synthetic ~pops () in
    let ws = Workspace.create ~pool d.Dataset.routing in
    let spec = d.Dataset.spec in
    let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
    (d, ws, k, Dataset.link_loads_at d k, Dataset.busy_load_samples d ~window)
  in
  let sweep =
    List.concat_map
      (fun pops ->
        let t0 = Unix.gettimeofday () in
        let d, ws, k, loads, load_samples = setup pops in
        let sparse = Workspace.is_sparse ws in
        let pairs = Dataset.num_pairs d in
        let links = Dataset.num_links d in
        Printf.printf "# %d PoPs: %d pairs, %d links, %s mode (built in \
                       %.1fs)\n%!"
          pops pairs links
          (if sparse then "sparse" else "dense")
          (Unix.gettimeofday () -. t0);
        (* Computed once per size: a per-method [demand_at] copy raised
           the process-wide heap peak this sweep asserts on by up to
           1.5 M words at 60 PoPs. *)
        let truth = Dataset.demand_at d k in
        let busy_mean = Dataset.busy_mean_demand d in
        (* The dense-matrix witness for this size. *)
        let budget = float_of_int pairs *. float_of_int pairs /. 2. in
        List.map
          (fun name ->
            let m = Core.Estimator.of_name name in
            let row =
              [ ("pops", int pops); ("pairs", int pairs); ("links", int links);
                ("mode", str (if sparse then "sparse" else "dense"));
                ("method", str name) ]
            in
            (* The shared capability predicate — same split the
               registry, the CLI and the daemon consult. *)
            if sparse && not (Core.Estimator.supports_sparse m) then begin
              Printf.printf "%4d %-8s excluded (dense-only)\n%!" pops name;
              Json.Obj
                (row
                @ [
                    ("status", str "excluded");
                    ( "why",
                      str
                        "LP-based worst-case bounds need a dense simplex \
                         tableau per demand; dense-only by design" );
                  ])
            end
            else begin
              Workspace.reset_stats ws;
              let t0 = Unix.gettimeofday () in
              let estimate = Core.Estimator.solve m ws ~loads ~load_samples in
              let seconds = Unix.gettimeofday () -. t0 in
              let st = Workspace.stats ws in
              let iters = Workspace.last_iterations ws ~name in
              let reference =
                if Core.Estimator.uses_time_series m then busy_mean else truth
              in
              let mre = Core.Metrics.mre ~truth:reference ~estimate () in
              Printf.printf
                "%4d %-8s %8.2fs  mre %6.4f  iters %5s  churn %.2e w  \
                 heap %.2e w\n%!"
                pops name seconds mre
                (match iters with Some n -> string_of_int n | None -> "-")
                st.Workspace.peak_solve_words st.Workspace.heap_words;
              if sparse then
                check (st.Workspace.heap_words < budget)
                  "%d pops/%s: heap watermark %.2e words >= pairs^2/2 = %.2e"
                  pops name st.Workspace.heap_words budget;
              Json.Obj
                (row
                @ [
                    ("status", str "ok");
                    ("seconds", Json.Num seconds);
                    ("mre", Json.Num mre);
                    ("solve_words", Json.Num st.Workspace.peak_solve_words);
                    ("heap_words", Json.Num st.Workspace.heap_words);
                  ]
                @
                match iters with
                | Some n -> [ ("iterations", int n) ]
                | None -> [])
            end)
          methods)
      sizes
  in
  (* The iteration guard runs its own solves (the fast sizes do not
     include 100 PoPs) so CI and the full sweep apply the identical
     check. *)
  let t0 = Unix.gettimeofday () in
  let _, ws, _, loads, load_samples = setup guard_pops in
  let guard =
    List.map
      (fun (name, ceiling) ->
        let m = Core.Estimator.of_name name in
        ignore (Core.Estimator.solve m ws ~loads ~load_samples);
        let iters =
          Option.value ~default:0 (Workspace.last_iterations ws ~name)
        in
        check (iters <= ceiling)
          "%d pops/%s: %d iterations exceed the pinned ceiling %d" guard_pops
          name iters ceiling;
        (name, iters, ceiling))
      guard_ceilings
  in
  Printf.printf "# iteration guard at %d PoPs: %s (%.1fs)\n%!" guard_pops
    (String.concat ", "
       (List.map
          (fun (name, iters, ceiling) ->
            Printf.sprintf "%s %d/%d" name iters ceiling)
          guard))
    (Unix.gettimeofday () -. t0);
  emit ~fast ~name:"scale" ~jobs:(Pool.size pool)
    [
      ("mode", mode ~fast); ("sparse_gate", int Workspace.sparse_gate);
      ("window", int window);
      ( "assert",
        str "sparse sizes keep the GC heap watermark below pairs^2/2 words" );
      ("assert_ok", Json.Bool (!failures = []));
      ( "iteration_guard",
        Json.Obj
          (("pops", int guard_pops)
          :: List.map
               (fun (name, iters, ceiling) ->
                 ( name,
                   Json.Obj
                     [ ("iterations", int iters); ("ceiling", int ceiling) ] ))
               guard) );
      ("sweep", Json.List sweep);
    ];
  finish ~label:"scale"

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
   regression behind seconds of solver time).  Each jobs row times the
   identical replay with [time_ns] on its own freshly created pool: the
   timer's warm-up primes the shared workspace artifacts and that
   pool's per-domain arenas, so every row times the steady-state loop.
   The rows run one after another, never with two pools alive: idle
   domains join every minor GC and would slow the row being timed.

   The jobs=2 >= 1.2x jobs=1 windows/sec assertion only applies when
   the box has at least 2 cores; a 1-core container still runs the
   whole sweep and records [oversubscribed: true] plus a stderr
   warning instead of failing on numbers that only measure scheduler
   churn. *)
let throughput_json ~fast () =
  let oversubscribed = oversubscribed ~what:"windows/sec" in
  let jobs_list = [ 1; 2; 4; 8 ] in
  let sizes = if fast then [ 12; 25 ] else [ 25; 100 ] in
  let windows = if fast then 24 else 288 in
  let window = 8 in
  let method_name = "kruithof" in
  let est = Core.Estimator.of_name method_name in
  let ctx = Ctx.create ~fast:true ~jobs:1 () in
  let replay = Ctx.Scan.make (Ctx.Scan.Replay { window; windows }) in
  let sweep =
    List.concat_map
      (fun pops ->
        let net = Ctx.synthetic ctx ~pops in
        let pairs = Dataset.num_pairs net.Ctx.dataset in
        let links = Dataset.num_links net.Ctx.dataset in
        Printf.printf "# %d PoPs: %d pairs, %d links, %d windows\n%!" pops
          pairs links windows;
        let rows =
          List.map
            (fun jobs ->
              let pool = Pool.create ~jobs in
              Workspace.set_pool net.Ctx.workspace (Some pool);
              let seconds =
                time_ns (fun () -> Ctx.Scan.run net est replay) /. 1e9
              in
              Workspace.set_pool net.Ctx.workspace None;
              Pool.shutdown pool;
              let wps = float_of_int windows /. seconds in
              Printf.printf "%4d PoPs  jobs %d  %7.2fs  %8.1f windows/sec\n%!"
                pops jobs seconds wps;
              ( (jobs, wps),
                Json.Obj
                  [ ("pops", int pops); ("pairs", int pairs);
                    ("links", int links); ("jobs", int jobs);
                    ("seconds", Json.Num seconds);
                    ("windows_per_sec", Json.Num wps) ] ))
            jobs_list
        in
        (* Speedup floor, asserted only where a speedup can exist. *)
        if not oversubscribed then begin
          let wps = List.map fst rows in
          let ratio = List.assoc 2 wps /. List.assoc 1 wps in
          check (ratio >= 1.2)
            "%d pops: jobs=2 windows/sec only %.2fx jobs=1 (floor 1.2x)" pops
            ratio
        end;
        List.map snd rows)
      sizes
  in
  emit ~fast ~name:"throughput" ~jobs:(List.fold_left Stdlib.max 1 jobs_list)
    [
      ("oversubscribed", Json.Bool oversubscribed); ("mode", mode ~fast);
      ("method", str method_name); ("window", int window);
      ("windows", int windows);
      ( "assert",
        str "jobs=2 windows/sec >= 1.2x jobs=1 (skipped when cores = 1)" );
      ("assert_skipped", Json.Bool oversubscribed);
      ("assert_ok", Json.Bool (!failures = []));
      ("sweep", Json.List sweep);
    ];
  finish ~label:"throughput"

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
        check (r.Daemon.aborted = 0) "%d pops: %d ticks aborted" pops
          r.Daemon.aborted;
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
        let identical =
          List.length
            (List.filter
               (fun (k, batch_est) ->
                 (* The scan labels each step with [start + window - 1] —
                    the daemon tick whose window it replays. *)
                 let daemon_est = prefix.(k).Daemon.estimate in
                 let same =
                   Array.length batch_est = Array.length daemon_est
                   && Array.for_all2
                        (fun a b ->
                          Int64.bits_of_float a = Int64.bits_of_float b)
                        batch_est daemon_est
                 in
                 check same
                   "%d pops: tick %d estimate differs from the batch scan" pops
                   k;
                 same)
               batch)
        in
        let checked = List.length batch in
        Printf.printf "  clean prefix: %d/%d full-window ticks bit-identical \
                       to the batch scan\n%!"
          identical checked;
        (* Faulted ticks: repaired estimate plus a non-clean health
           record on every poller-dropout tick. *)
        Array.iter
          (fun (t : Daemon.tick_record) ->
            if t.Daemon.tick >= drop_from && t.Daemon.tick <= drop_from + 1
            then begin
              check (t.Daemon.missing <> 0)
                "%d pops: dropout tick %d lost no polls" pops t.Daemon.tick;
              match t.Daemon.health with
              | Some h when not h.Core.Degrade.clean ->
                  check
                    (Array.for_all Float.is_finite t.Daemon.estimate)
                    "%d pops: dropout tick %d estimate not finite" pops
                    t.Daemon.tick
              | _ ->
                  check false
                    "%d pops: dropout tick %d has no non-clean health record"
                    pops t.Daemon.tick
            end)
          records;
        Printf.printf
          "%4d PoPs  %8.1f ticks/s  p50 %.2f ms  p99 %.2f ms  %d epochs\n%!"
          pops r.Daemon.ticks_per_sec r.Daemon.p50_ms r.Daemon.p99_ms
          r.Daemon.epochs;
        Json.Obj
          [ ("pops", int pops); ("pairs", int pairs); ("links", int links);
            ("ticks", int r.Daemon.ticks); ("aborted", int r.Daemon.aborted);
            ("epochs", int r.Daemon.epochs);
            ("ticks_per_sec", Json.Num r.Daemon.ticks_per_sec);
            ("p50_ms", Json.Num r.Daemon.p50_ms);
            ("p99_ms", Json.Num r.Daemon.p99_ms);
            ("polls_lost", int r.Daemon.polls_lost);
            ("identical_prefix_ticks", int identical);
            ("checked_prefix_ticks", int checked) ])
      sizes
  in
  emit ~fast ~name:"daemon" ~jobs:(Pool.size pool)
    [
      ("mode", mode ~fast); ("method", str method_name);
      ("window", int window); ("ticks", int ticks);
      ( "scenario",
        Json.Obj
          [
            ( "flap_link",
              Json.List (List.map int [ 0; flap_from; flap_from + 2 ]) );
            ( "drop_poller",
              Json.List (List.map int [ 1; drop_from; drop_from + 1 ]) );
          ] );
      ( "assert",
        str
          "no aborted ticks; clean full-window prefix ticks bit-identical to \
           the batch scan; dropout ticks repaired with non-clean health \
           records" );
      ("assert_ok", Json.Bool (!failures = []));
      ("sweep", Json.List rows);
    ];
  finish ~label:"daemon"

(* ------------------------------------------------------------------ *)
(* Bechamel performance suite                                          *)
(* ------------------------------------------------------------------ *)

let kernel_tests () =
  let open Bechamel in
  let module Csr = Tmest_linalg.Csr in
  let rng = Tmest_stats.Rng.create 11 in
  let mat n m = Mat.init n m (fun _ _ -> Tmest_stats.Rng.float rng) in
  let a200 = mat 200 200 in
  let b200 = mat 200 200 in
  let v200 = Array.init 200 (fun _ -> Tmest_stats.Rng.float rng) in
  let spd = Mat.add (Mat.gram (mat 120 120)) (Mat.identity 120) in
  let rhs = Array.init 120 (fun _ -> Tmest_stats.Rng.float rng) in
  let eu = Dataset.europe () in
  let r_eu = eu.Dataset.routing in
  let demand = Dataset.demand_at eu 229 in
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

(* Full fixed-iteration solves of the [quadratic_solvers] with
   preallocated scratch: the allocation column should read ~0 words/run
   beyond the one result copy. *)
let solver_tests () =
  let open Bechamel in
  let stop64 = Tmest_opt.Stop.make ~max_iter:64 ~tol:0. () in
  List.map
    (fun (name, solve) ->
      Test.make ~name:(name ^ "200.solve_into_x64")
        (Staged.stage (fun () -> solve stop64)))
    (quadratic_solvers ())

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
  let switches =
    [ ("--fast", fast); ("--perf", perf); ("--scale", scale);
      ("--throughput", throughput); ("--daemon", daemon); ("--list", list) ]
  in
  let rec parse = function
    | [] -> ()
    | switch :: rest when List.mem_assoc switch switches ->
        List.assoc switch switches := true;
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
    solvers_json ~fast:!fast ();
    parallel_json ~fast:!fast ();
    run_perf ~fast:!fast ()
  end
  else run_reports ~fast:!fast ~only:!only ()
