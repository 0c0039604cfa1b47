(* perfbench: the repository's layered benchmark.

   Three workloads, each built from the seed given on the command line:

   - replay-america: cold Ctx.Scan day replay with entropy on seeded
     America networks (dense workspace, Scan chunk fan-out on the pool);
   - solve-sparse: one cold Estimator.solve of every sparse-capable
     method on seeded synthetic backbones (sparse workspace);
   - daemon-america: Daemon.run with kruithof on a lossy collector
     stream, with one link flap and one poller dropout.

   A run is closed loop with one request in flight.  Shard [i] is a
   network generated from (seed, i); a round runs every shard once on a
   fresh workspace, set-up timed apart from the timed region, and rounds
   repeat until the run's time is used (see [timed_loop]).
   [--trace 0] reports the end-to-end metrics; [--trace 1] runs the same
   shard untraced at jobs=nproc and jobs=1, then traced at jobs=1 with a
   span around every library call, and reports per-layer metrics.  The
   last line of standard output is the JSON result.  See README.md. *)

module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Op = Tmest_linalg.Op
module Csr = Tmest_linalg.Csr
module Pool = Tmest_parallel.Pool
module Obs = Tmest_obs.Obs
module Json = Tmest_obs.Json
module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec
module Routing = Tmest_net.Routing
module Topology = Tmest_net.Topology
module Workspace = Tmest_core.Workspace
module Estimator = Tmest_core.Estimator
module Degrade = Tmest_core.Degrade
module Metrics = Tmest_core.Metrics
module Collect = Tmest_snmp.Collect
module Ctx = Tmest_experiments.Ctx
module Series = Tmest_experiments.Ctx.Scan.Series
module Daemon = Tmest_daemon.Daemon

let now () = Int64.to_float (Obs.Clock.now_ns ()) /. 1e9
let window = 8

(* Shard [i] of workload seed [seed]: distinct seeds never share a
   shard. *)
let shard_seed ~seed i = (seed * 1000) + i

(* ------------------------------------------------------------------ *)
(* Metric catalogue (mirrors BENCHMARK.json)                           *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("mre_median", "ratio");
    ("heap_peak_mb", "MB");
  ]

let panel_methods =
  [
    "gravity"; "kruithof"; "entropy"; "bayes"; "fanout"; "vardi"; "cao";
    "tomogravity_iter"; "cumulant"; "mcmc_int";
  ]

(* Methods that report an iteration count through the workspace. *)
let iterative = List.filter (fun m -> m <> "gravity" && m <> "kruithof") panel_methods

let per_layer =
  [
    ("traffic.generate_s", "s");
    ("net.reroute_ms", "ms");
    ("workspace.artifact_s", "s");
    ("workspace.misses", "count");
    ("workspace.hit_ratio", "ratio");
    ("snmp.poll_round_us", "us");
    ("snmp.polls_lost", "count");
    ("scan.window_ms", "ms");
    ("scan.push_us", "us");
    ("degrade.repair_ms", "ms");
    ("degrade.repair_mwords", "Mwords");
    ("degrade.repaired_ticks", "count");
    ("degrade.tick_share", "ratio");
  ]
  @ List.concat_map
      (fun m ->
        [ ("estimator.solve_ms." ^ m, "ms"); ("estimator.mwords." ^ m, "Mwords") ])
      panel_methods
  @ List.concat_map
      (fun m ->
        [
          ("opt.iterations." ^ m, "count");
          ("opt.iter_us." ^ m, "us");
          ("opt.words_per_iter." ^ m, "words");
          ("opt.iter_over_kernel." ^ m, "ratio");
        ])
      iterative
  @ [
      ("linalg.normal_apply_us", "us");
      ("linalg.gram_matvec_us", "us");
      ("linalg.normal_bytes_per_apply", "B");
      ("linalg.gram_bytes_per_apply", "B");
      ("pool.speedup", "ratio");
      ("pool.efficiency", "ratio");
      ("daemon.tick_self_ms", "ms");
      ("daemon.epoch_tick_ms", "ms");
      ("daemon.dropout_tick_ms", "ms");
      ("gc.minor_mwords", "Mwords");
      ("gc.major_collections", "count");
      ("obs.overhead_pct", "%");
      ("obs.coverage_pct", "%");
    ]

(* ------------------------------------------------------------------ *)
(* Results, checks and statistics                                      *)
(* ------------------------------------------------------------------ *)

type result = {
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  failed_ops : (int, unit) Hashtbl.t;
      (** ops (windows, solves, ticks) that raised, went non-finite or
          failed a check; [-1] stands for a run-level check *)
  quiet : bool;  (** the self-test's expected failures are not logged *)
}

let new_result ?(quiet = false) () =
  {
    values = Hashtbl.create 128;
    attempted = 0;
    failed_ops = Hashtbl.create 8;
    quiet;
  }

let set r k v = Hashtbl.replace r.values k v

(* Hand out [n] op ids. *)
let ops r n =
  let first = r.attempted in
  r.attempted <- first + n;
  first

let fail r ~op fmt =
  Printf.ksprintf
    (fun msg ->
      Hashtbl.replace r.failed_ops op ();
      if not r.quiet then Printf.eprintf "check failed (op %d): %s\n%!" op msg)
    fmt

let same_bits a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
    a;
  !ok

let finite v = Array.for_all Float.is_finite v

let check_identical r ~op ~what a b =
  if not (same_bits a b) then fail r ~op "%s: not bit-identical" what

(* Pins are exact: the iteration count and the bits of the MRE. *)
let check_pin r ~op ~what ~pin ~iterations ~mre =
  let pin_iters, pin_mre = pin in
  if iterations <> pin_iters || Int64.bits_of_float mre <> Int64.bits_of_float pin_mre
  then
    fail r ~op "%s: iterations %d, MRE %.17g; pinned %d, %.17g" what iterations mre
      pin_iters pin_mre

(* Interpolated quantile of a sample (0 for an empty one). *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median = quantile 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.
let mre ~truth x = Metrics.mre ~truth ~estimate:x ()

(* Median time of one call, from batches long enough to read. *)
let time_us f =
  let reps = ref 1 in
  let batch () =
    let t0 = now () in
    for _ = 1 to !reps do
      f ()
    done;
    now () -. t0
  in
  while batch () < 2e-3 do
    reps := 2 * !reps
  done;
  median (List.init 7 (fun _ -> batch () *. 1e6 /. float_of_int !reps))

(* Cache artifacts of a workspace: seconds computing, misses, hits.
   Solve and warm-start rows are not artifacts. *)
let artifacts ws =
  List.fold_left
    (fun (s, m, h) (name, hits, misses, secs) ->
      if name = "solve" || name = "warm" then (s, m, h)
      else (s +. secs, m + misses, h + hits))
    (0., 0, 0)
    (Workspace.stats_rows (Workspace.stats ws))

let set_artifacts r wss =
  let s, m, h =
    List.fold_left
      (fun (s, m, h) ws ->
        let s', m', h' = artifacts ws in
        (s +. s', m + m', h + h'))
      (0., 0, 0) wss
  in
  set r "workspace.artifact_s" s;
  set r "workspace.misses" (float_of_int m);
  set r "workspace.hit_ratio"
    (if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m))

(* Computed, not measured: bytes one kernel apply streams.  R^T R x is
   two passes over the CSR arrays (row pointers, column indices and
   values, 8 bytes each) plus the input and output vectors; the dense
   Gram matvec reads the P x P matrix and two vectors. *)
let normal_bytes r =
  let l = Csr.rows r and p = Csr.cols r and nnz = Csr.nnz r in
  8 * ((2 * (l + 1 + (2 * nnz))) + (2 * (l + p)))

let gram_bytes p = 8 * ((p * p) + (2 * p))

(* Kernel probes on a workspace: R^T R through the matrix-free normal
   operator (both modes) and, in dense mode, the cached Gram matvec. *)
let probe_kernels r ~pool ws =
  let p = Workspace.num_pairs ws in
  let x = Vec.create p 1. and dst = Vec.zeros p in
  let nop = Workspace.normal_op ws in
  let normal_us = time_us (fun () -> Op.apply_into nop x ~dst) in
  set r "linalg.normal_apply_us" normal_us;
  set r "linalg.normal_bytes_per_apply"
    (float_of_int (normal_bytes (Workspace.routing ws).Routing.matrix));
  if not (Workspace.is_sparse ws) then begin
    let g = Workspace.gram ws in
    set r "linalg.gram_matvec_us" (time_us (fun () -> Mat.matvec_into ~pool g x ~dst));
    set r "linalg.gram_bytes_per_apply" (float_of_int (gram_bytes p))
  end;
  normal_us

(* Per-iteration figures of one method, from (solve ms, minor words,
   iterations) samples. *)
let set_method r ~kernel_us name samples =
  let ms = List.map (fun (ms, _, _) -> ms) samples in
  set r ("estimator.solve_ms." ^ name) (median ms);
  set r ("estimator.mwords." ^ name)
    (median (List.map (fun (_, w, _) -> w /. 1e6) samples));
  if List.mem name iterative then begin
    let per f =
      median
        (List.filter_map
           (fun (ms, w, it) -> if it > 0 then Some (f ms w /. float_of_int it) else None)
           samples)
    in
    let iter_us = per (fun ms _ -> ms *. 1e3) in
    set r ("opt.iterations." ^ name)
      (median (List.map (fun (_, _, it) -> float_of_int it) samples));
    set r ("opt.iter_us." ^ name) iter_us;
    set r ("opt.words_per_iter." ^ name) (per (fun _ w -> w));
    set r ("opt.iter_over_kernel." ^ name)
      (if kernel_us > 0. then iter_us /. kernel_us else 0.)
  end

(* Words this domain allocated so far, minor and major heap alike:
   large arrays go straight to the major heap and would escape a minor
   count. *)
let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let gc_counts () =
  let s = Gc.quick_stat () in
  (Gc.minor_words (), s.Gc.major_collections)

let set_gc r (w0, c0) =
  let w1, c1 = gc_counts () in
  set r "gc.minor_mwords" ((w1 -. w0) /. 1e6);
  set r "gc.major_collections" (float_of_int (c1 - c0))

(* The jobs=nproc / jobs=1 / traced comparison every traced run ends
   with; walls in seconds. *)
let set_passes r ~jobs ~wall_n ~wall_1 ~wall_traced ~covered =
  let speedup = wall_1 /. wall_n in
  set r "pool.speedup" speedup;
  set r "pool.efficiency" (speedup /. float_of_int jobs);
  set r "obs.overhead_pct" (100. *. (wall_traced -. wall_1) /. wall_1);
  set r "obs.coverage_pct" (100. *. covered /. wall_traced)

(* ------------------------------------------------------------------ *)
(* Run settings                                                        *)
(* ------------------------------------------------------------------ *)

type settings = {
  seed : int;
  seconds : float;
  jobs : int;
  pool : Pool.t;  (** jobs participants: the timed configuration *)
  pool1 : Pool.t;  (** one participant: the jobs=1 reference *)
  res : result;
}

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* What the timed loop keeps of one shard: each of its passes ran the
   same inputs on a fresh workspace, and the host's speed drifts between
   them, so the shard's figures are the best of its passes. *)
type 'a shard = {
  setup_s : float;  (** fastest set-up *)
  wall : float;  (** fastest pass *)
  lat : float array;  (** per item, the fastest of its passes *)
  outs : 'a list;  (** every pass's output, in order *)
}

(* Timed loop shared by the workloads.  A round sets up and runs each of
   [shards] shards once — set-up timed on its own, outside the timed
   region, every pass on a fresh workspace and a compacted heap.  Rounds
   repeat until the timed work reaches [seconds] (within half a round),
   and there are always at least two.  On the 2-vCPU virtual machine the
   baseline was taken on, speed drifts by up to 2x within seconds to
   minutes, so repeats of a shard are spread over the run and each
   figure is the best of its repeats.  [latencies out]
   lists a pass's per-item latencies, items in a fixed order.  Returns
   the shards and the heap peak (MB) after the first round. *)
let timed_loop s ~shards:k ~setup ~pass ~latencies =
  let runs = Array.make k [] and busy = ref 0. and last = ref 0. in
  let peak = ref 0. and rounds = ref 0 in
  while !rounds < 2 || !busy +. (0.5 *. !last) < s.seconds do
    let t_round = !busy in
    for i = 0 to k - 1 do
      let t0 = now () in
      let sh = setup i in
      let setup_s = now () -. t0 in
      Gc.compact ();
      let t0 = now () in
      let out = pass sh in
      let wall = now () -. t0 in
      busy := !busy +. wall;
      runs.(i) <- (setup_s, wall, out) :: runs.(i)
    done;
    last := !busy -. t_round;
    incr rounds;
    if !rounds = 1 then peak := heap_peak_mb ()
  done;
  let shard reps =
    let reps = List.rev reps in
    let best f = List.fold_left (fun m r -> Float.min m (f r)) infinity reps in
    let lats = List.map (fun (_, _, o) -> Array.of_list (latencies o)) reps in
    let lat =
      List.fold_left
        (fun m l ->
          if Array.length l = Array.length m then Array.map2 Float.min m l else m)
        (List.hd lats) lats
    in
    {
      setup_s = best (fun (t, _, _) -> t);
      wall = best (fun (_, w, _) -> w);
      lat;
      outs = List.map (fun (_, _, o) -> o) reps;
    }
  in
  (Array.to_list (Array.map shard runs), !peak)

let set_end_to_end s ~items_per_pass ~shards ~mres ~heap_mb =
  let r = s.res in
  set r "setup_s" (median (List.map (fun sh -> sh.setup_s) shards));
  set r "throughput_per_s"
    (float_of_int items_per_pass /. mean (List.map (fun sh -> sh.wall) shards));
  let lat = List.concat_map (fun sh -> Array.to_list sh.lat) shards in
  set r "latency_p50_ms" (quantile 0.5 lat);
  set r "latency_p90_ms" (quantile 0.9 lat);
  set r "mre_median" (median mres);
  set r "heap_peak_mb" heap_mb

(* ------------------------------------------------------------------ *)
(* replay-america                                                      *)
(* ------------------------------------------------------------------ *)

(* Each shard replays 20 windows from one eighth of the measurement day
   (positions [35 i .. 35 i + 19] of the 281 a 288-sample day holds), so
   a round of eight shards samples the whole day, slice [i] on shard
   [i]'s network. *)
let replay_windows = 20
let replay_shards = 8
let replay_est = Estimator.of_name "entropy"

type rshard = {
  rd : Dataset.t;
  rows : Vec.t array;  (** the slice's per-snapshot link loads *)
  first : int;  (** day index of [rows.(0)] *)
}

let replay_data ~tr ~seed i =
  let rd =
    Span.with_ tr "traffic.generate" (fun () ->
        Dataset.america ~seed:(shard_seed ~seed i) ())
  in
  let first = 35 * i in
  let rows =
    Array.init (replay_windows + window - 1) (fun j ->
        Dataset.link_loads_at rd (first + j))
  in
  { rd; rows; first }

let network ~pool d =
  let spec = d.Dataset.spec in
  let snapshot_k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
  let loads = Dataset.link_loads_at d snapshot_k in
  let workspace = Workspace.create ~pool d.Dataset.routing in
  {
    Ctx.label = spec.Spec.name;
    dataset = d;
    workspace;
    snapshot_k;
    truth = Dataset.demand_at d snapshot_k;
    loads;
    gravity_prior =
      Pool.Once.make (fun () ->
          Estimator.prior Estimator.Prior_gravity workspace ~loads);
    wcb = Pool.Once.make (fun () -> Tmest_core.Wcb.bounds workspace ~loads);
    wcb_prior = Pool.Once.make (fun () -> invalid_arg "perfbench: no WCB prior");
  }

let scan ?pool ?on_window net rows =
  Array.of_list
    (List.map snd
       (Ctx.Scan.run net replay_est
          (Ctx.Scan.make ?pool ?on_window (Ctx.Scan.Windows { window; loads = rows }))))

(* A cold workspace for the shard, its shared artifacts primed by one
   window (Gram, Lipschitz constant, scratch arenas). *)
let replay_net ~tr ~pool sh =
  Span.with_ tr "workspace.prime" (fun () ->
      let net = network ~pool sh.rd in
      ignore (scan ~pool net (Array.sub sh.rows 0 window));
      net)

(* One timed pass: the cold scan over the shard's windows, each window's
   latency read from the scan's per-window callback (the time since the
   previous window finished on the same domain), indexed by window. *)
let replay_pass ~pool net sh =
  let n = replay_windows in
  let ends = Array.make n 0. and doms = Array.make n 0 in
  let on_window ~step ~snapshot:_ _ =
    ends.(step) <- now ();
    doms.(step) <- (Domain.self () :> int)
  in
  let t0 = now () in
  let ests = scan ~pool ~on_window net sh.rows in
  let lat = Array.make n 0. and prev = Hashtbl.create 4 in
  List.iter
    (fun i ->
      let p = Option.value ~default:t0 (Hashtbl.find_opt prev doms.(i)) in
      Hashtbl.replace prev doms.(i) ends.(i);
      lat.(i) <- (ends.(i) -. p) *. 1e3)
    (List.sort (fun a b -> compare ends.(a) ends.(b)) (List.init n Fun.id));
  (ests, lat)

(* Finite estimates; returns each window's MRE. *)
let replay_checks s ~op0 sh (ests : Vec.t array) =
  Array.mapi
    (fun j x ->
      let op = op0 + j in
      if not (finite x) then fail s.res ~op "replay window %d: non-finite estimate" j;
      mre ~truth:(Dataset.demand_at sh.rd (sh.first + j + window - 1)) x)
    ests

(* Repeated cold passes over one shard agree bit for bit; ops of pass
   [k] are numbered from [op0 + k * items]. *)
let check_repeats s ~op0 ~what (outs : Vec.t array list) =
  match outs with
  | [] -> ()
  | first :: _ ->
      List.iteri
        (fun k o ->
          Array.iteri
            (fun j x ->
              check_identical s.res
                ~op:(op0 + (k * Array.length first) + j)
                ~what:(Printf.sprintf "%s item %d pass %d vs pass 0" what j k)
                x first.(j))
            o)
        outs

let replay s ~trace =
  let null = Span.disabled () in
  if not trace then begin
    let identity = 4 (* windows of shard 0 re-run at jobs=1 *) in
    let shards, heap_mb =
      timed_loop s ~shards:replay_shards
        ~setup:(fun i ->
          let sh = replay_data ~tr:null ~seed:s.seed i in
          (sh, replay_net ~tr:null ~pool:s.pool sh))
        ~pass:(fun (sh, net) -> (sh, replay_pass ~pool:s.pool net sh))
        ~latencies:(fun (_, (_, lat)) -> Array.to_list lat)
    in
    let mres =
      List.concat
        (List.mapi
           (fun i shard ->
             let outs = List.map (fun (_, (e, _)) -> e) shard.outs in
             let sh = fst (List.hd shard.outs) and ests = List.hd outs in
             let op0 = ops s.res (replay_windows * List.length outs) in
             check_repeats s ~op0 ~what:"replay" outs;
             let m = replay_checks s ~op0 sh ests in
             if i = 0 then begin
               (* Cold scans are bit-identical at every pool size. *)
               let net = replay_net ~tr:null ~pool:s.pool1 sh in
               Array.iteri
                 (fun j x ->
                   check_identical s.res ~op:(op0 + j)
                     ~what:(Printf.sprintf "replay window %d jobs=1 vs jobs=%d" j s.jobs)
                     x ests.(j))
                 (scan ~pool:s.pool1 net (Array.sub sh.rows 0 (identity + window - 1)))
             end;
             Array.to_list m)
           shards)
    in
    set_end_to_end s ~items_per_pass:replay_windows ~shards ~mres ~heap_mb;
    None
  end
  else begin
    (* Two slices, run untraced at jobs=nproc, untraced at jobs=1, then
       traced at jobs=1; each pass on fresh workspaces. *)
    let tr = Span.create ~meta:[ ("workload", "replay-america") ] () in
    let shards = List.init 2 (fun i -> replay_data ~tr ~seed:s.seed i) in
    set s.res "traffic.generate_s"
      (median (List.map (fun d -> d /. 1e3) (Span.durations tr "traffic.generate")));
    let run_pass ~pool =
      let nets = List.map (fun sh -> (sh, replay_net ~tr:null ~pool sh)) shards in
      Gc.compact ();
      let t0 = now () in
      let outs = List.map (fun (sh, net) -> fst (replay_pass ~pool net sh)) nets in
      (now () -. t0, outs)
    in
    let wall_n, out_n = run_pass ~pool:s.pool in
    let g0 = gc_counts () in
    let wall_1, out_1 = run_pass ~pool:s.pool1 in
    set_gc s.res g0;
    (* Traced pass: a span per shard, per scan call and per window; each
       window's span closes in the scan's callback and the next opens,
       which on a one-slot pool brackets exactly one window solve. *)
    let nets = List.map (fun sh -> (sh, replay_net ~tr ~pool:s.pool1 sh)) shards in
    let samples = ref [] in
    Gc.compact ();
    let t_start = Obs.Clock.now_ns () in
    let t0 = now () in
    let out_t =
      List.mapi
        (fun k (sh, net) ->
          Span.with_ ~req:k tr "replay.shard" (fun () ->
              Span.with_ tr "scan.run" (fun () ->
                  let ws = net.Ctx.workspace in
                  let w0 = ref (words ()) and t0 = ref (now ()) in
                  Span.enter ~req:(k * replay_windows) tr "scan.window";
                  let on_window ~step ~snapshot:_ _ =
                    Span.leave tr;
                    let t = now () and w = words () in
                    let it =
                      Option.value ~default:0
                        (Workspace.last_iterations ws ~name:"entropy")
                    in
                    samples := ((t -. !t0) *. 1e3, w -. !w0, it) :: !samples;
                    if step + 1 < replay_windows then
                      Span.enter ~req:((k * replay_windows) + step + 1) tr "scan.window";
                    w0 := words ();
                    t0 := now ()
                  in
                  scan ~pool:s.pool1 ~on_window net sh.rows)))
        nets
    in
    let wall_t = now () -. t0 in
    List.iteri
      (fun k ((ests_n, ests_1), ests_t) ->
        let op0 = ops s.res (3 * Array.length ests_n) in
        ignore (replay_checks s ~op0 (List.nth shards k) ests_n);
        Array.iteri
          (fun j x ->
            check_identical s.res ~op:(op0 + j)
              ~what:(Printf.sprintf "replay shard %d window %d jobs=1 vs jobs=%d" k j s.jobs)
              ests_1.(j) x;
            check_identical s.res ~op:(op0 + j)
              ~what:(Printf.sprintf "replay shard %d window %d traced vs untraced" k j)
              ests_t.(j) x)
          ests_n)
      (List.combine (List.combine out_n out_1) out_t);
    let ws = (snd (List.hd nets)).Ctx.workspace in
    let kernel_us = probe_kernels s.res ~pool:s.pool1 ws in
    set_method s.res ~kernel_us "entropy" !samples;
    set s.res "scan.window_ms" (median (Span.durations tr "scan.window"));
    set_artifacts s.res (List.map (fun (_, n) -> n.Ctx.workspace) nets);
    Some (tr, t_start, wall_n, wall_1, wall_t)
  end

(* ------------------------------------------------------------------ *)
(* solve-sparse                                                     *)
(* ------------------------------------------------------------------ *)

(* The method panel runs on 46-PoP synthetic backbones: 2 070 pairs,
   above the workspace's sparse gate (2 048), so every solve goes
   through the matrix-free path.  One panel at 100 PoPs takes about 35 s
   here, longer than a whole run. *)
let panel_pops = 46
let record_pins = ref false
let panel_shards = 2

type pshard = { pd : Dataset.t; pseed : int; loads : Vec.t; truth : Vec.t; psamples : Mat.t }

let panel_data ~tr ~seed i =
  let pseed = shard_seed ~seed i in
  let pd =
    Span.with_ tr "traffic.generate" (fun () ->
        Dataset.synthetic ~seed:pseed ~pops:panel_pops ())
  in
  let spec = pd.Dataset.spec in
  let k = spec.Spec.busy_start + (spec.Spec.busy_len / 2) in
  let ks = Array.of_list (Dataset.busy_samples pd) in
  let ks = Array.sub ks (Array.length ks - window) window in
  let psamples = Mat.zeros window (Dataset.num_links pd) in
  Array.iteri (fun r k -> Mat.set_row psamples r (Dataset.link_loads_at pd k)) ks;
  {
    pd;
    pseed;
    loads = Dataset.link_loads_at pd k;
    truth = Dataset.demand_at pd k;
    psamples;
  }

(* A cold workspace with the caches every method shares primed: the
   operator, its normal form and the gravity prior. *)
let panel_ws ~tr ~pool p =
  Span.with_ tr "workspace.prime" (fun () ->
      let ws = Workspace.create ~pool p.pd.Dataset.routing in
      ignore (Workspace.op ws);
      ignore (Workspace.normal_op ws);
      ignore (Estimator.prior Estimator.Prior_gravity ws ~loads:p.loads);
      ws)

(* One panel: (method, solve ms, words allocated, iterations, estimate). *)
let panel_pass ~tr ~req0 ws p =
  List.mapi
    (fun j name ->
      Span.with_ ~req:(req0 + j) tr ("estimator.solve/" ^ name) (fun () ->
          let m = Estimator.of_name name in
          let w0 = words () and t0 = now () in
          let x = Estimator.solve m ws ~loads:p.loads ~load_samples:p.psamples in
          let ms = (now () -. t0) *. 1e3 in
          let allocated = words () -. w0 in
          let it = Option.value ~default:0 (Workspace.last_iterations ws ~name) in
          (name, ms, allocated, it, x)))
    panel_methods

(* Iteration budgets: the two fixed-budget methods must hit theirs
   exactly, the others may not exceed their caps.  Applied where no
   pin was recorded for the shard. *)
let budget = function
  | "tomogravity_iter" -> `Exact 200
  | "mcmc_int" -> `Exact 150
  | "entropy" | "bayes" | "fanout" -> `Cap 4000
  | "vardi" | "cumulant" -> `Cap 6000
  | "cao" -> `Cap 400
  | _ -> `Cap 0

let panel_checks s ~op0 p solves =
  List.mapi
    (fun j (name, _, _, it, x) ->
      let op = op0 + j in
      let e = mre ~truth:p.truth x in
      let what = Printf.sprintf "panel seed %d %s" p.pseed name in
      if not (finite x) then fail s.res ~op "%s: non-finite estimate" what;
      (match List.assoc_opt (p.pseed, name) Pins.panel with
      | Some pin -> check_pin s.res ~op ~what ~pin ~iterations:it ~mre:e
      | None -> (
          if not (Float.is_finite e) then fail s.res ~op "%s: MRE %g" what e;
          match budget name with
          | `Exact n when it <> n -> fail s.res ~op "%s: %d iterations, budget %d" what it n
          | `Cap n when it > n -> fail s.res ~op "%s: %d iterations over cap %d" what it n
          | _ -> ()));
      e)
    solves

let panel s ~trace =
  let null = Span.disabled () in
  let n = List.length panel_methods in
  if not trace then begin
    let shards, heap_mb =
      timed_loop s ~shards:panel_shards
        ~setup:(fun i ->
          let p = panel_data ~tr:null ~seed:s.seed i in
          (p, panel_ws ~tr:null ~pool:s.pool p))
        ~pass:(fun (p, ws) -> (p, panel_pass ~tr:null ~req0:0 ws p))
        ~latencies:(fun (_, solves) -> [ sum (List.map (fun (_, ms, _, _, _) -> ms) solves) ])
    in
    let mres =
      List.concat_map
        (fun shard ->
          let p, solves = List.hd shard.outs in
          let op0 = ops s.res (n * List.length shard.outs) in
          check_repeats s ~op0 ~what:(Printf.sprintf "panel seed %d" p.pseed)
            (List.map
               (fun (_, sv) -> Array.of_list (List.map (fun (_, _, _, _, x) -> x) sv))
               shard.outs);
          let m = panel_checks s ~op0 p solves in
          if !record_pins then
            List.iter2
              (fun (name, _, _, it, _) e ->
                Printf.eprintf "    ((%d, %S), (%d, %h));\n" p.pseed name it e)
              solves m;
          m)
        shards
    in
    set_end_to_end s ~items_per_pass:n ~shards ~mres ~heap_mb;
    None
  end
  else begin
    let tr = Span.create ~meta:[ ("workload", "solve-sparse") ] () in
    let p = panel_data ~tr ~seed:s.seed 0 in
    set s.res "traffic.generate_s" (median (Span.durations tr "traffic.generate") /. 1e3);
    let run_pass ~tr ~pool =
      let ws = panel_ws ~tr ~pool p in
      Gc.compact ();
      let t_start = Obs.Clock.now_ns () in
      let t0 = now () in
      let solves = panel_pass ~tr ~req0:0 ws p in
      (t_start, now () -. t0, ws, solves)
    in
    let _, wall_n, _, out_n = run_pass ~tr:null ~pool:s.pool in
    let g0 = gc_counts () in
    let _, wall_1, _, out_1 = run_pass ~tr:null ~pool:s.pool1 in
    set_gc s.res g0;
    let t_start, wall_t, ws, out_t = run_pass ~tr ~pool:s.pool1 in
    ignore (panel_checks s ~op0:(ops s.res n) p out_n);
    let op0 = ops s.res (2 * n) in
    List.iteri
      (fun j (((name, _, _, _, x), (_, _, _, _, x1)), (_, _, _, _, xt)) ->
        check_identical s.res ~op:(op0 + j)
          ~what:(Printf.sprintf "panel %s jobs=1 vs jobs=%d" name s.jobs) x1 x;
        check_identical s.res ~op:(op0 + n + j)
          ~what:(Printf.sprintf "panel %s traced vs untraced" name) xt x)
      (List.combine (List.combine out_n out_1) out_t);
    let kernel_us = probe_kernels s.res ~pool:s.pool1 ws in
    List.iter
      (fun (name, ms, words, it, _) -> set_method s.res ~kernel_us name [ (ms, words, it) ])
      out_t;
    set_artifacts s.res [ ws ];
    Some (tr, t_start, wall_n, wall_1, wall_t)
  end

(* ------------------------------------------------------------------ *)
(* daemon-america                                                      *)
(* ------------------------------------------------------------------ *)

(* Each shard is one Daemon.run of [daemon_ticks] ticks on the
   collector's default stream (1% poll loss, 10 s jitter), with one
   interior-link flap and one poller dropout. *)
let daemon_ticks = 24
let daemon_shards = 4
let flap_at = (8, 9)
let dropout_at = (16, 17)
let daemon_est = Estimator.of_name "kruithof"

type dshard = { dd : Dataset.t; cfg : Daemon.config }

(* The flapped link is the first interior link whose loss leaves every
   pair routable, so no tick of the workload fails by construction. *)
let daemon_data ~tr ~seed i =
  let dseed = shard_seed ~seed i in
  let dd =
    Span.with_ tr "traffic.generate" (fun () -> Dataset.america ~seed:dseed ())
  in
  let topo = dd.Dataset.routing.Routing.topo in
  let link =
    List.find
      (fun l -> Routing.without_links topo ~failed:[ l.Topology.link_id ] <> None)
      (Topology.interior_links topo)
  in
  let scenario =
    {
      Daemon.flaps = [ (link.Topology.link_id, fst flap_at, snd flap_at) ];
      poller_drops = [ (1, fst dropout_at, snd dropout_at) ];
      resets = [];
    }
  in
  let stream = { Collect.default_config with Collect.seed = dseed } in
  { dd; cfg = Daemon.config ~window ~ticks:daemon_ticks ~stream ~scenario ~est:daemon_est () }

let is_dropout k = fst dropout_at <= k && k <= snd dropout_at

let daemon_checks s ~op0 sh (r : Daemon.result) =
  if r.Daemon.aborted > 0 then
    (* Aborted ticks leave no record; charge them to the run's ops. *)
    for j = 0 to r.Daemon.aborted - 1 do
      fail s.res ~op:(op0 + daemon_ticks - 1 - j) "daemon: tick aborted"
    done;
  List.map
    (fun (t : Daemon.tick_record) ->
      let op = op0 + t.Daemon.tick in
      if not (finite t.Daemon.estimate) then
        fail s.res ~op "daemon tick %d: non-finite estimate" t.Daemon.tick;
      (if is_dropout t.Daemon.tick then
         match t.Daemon.health with
         | Some h when not h.Degrade.clean -> ()
         | _ -> fail s.res ~op "daemon dropout tick %d: no non-clean health record" t.Daemon.tick);
      mre ~truth:(Dataset.demand_at sh.dd t.Daemon.snapshot) t.Daemon.estimate)
    r.Daemon.records

(* Records of two runs must agree bit for bit: estimate and loads. *)
let compare_records s ~op0 ~what (a : Daemon.tick_record list) b =
  if List.length a <> List.length b then fail s.res ~op:op0 "%s: record counts differ" what
  else
    List.iter2
      (fun (x : Daemon.tick_record) (y : Daemon.tick_record) ->
        let op = op0 + x.Daemon.tick in
        check_identical s.res ~op
          ~what:(Printf.sprintf "%s tick %d estimate" what x.Daemon.tick)
          x.Daemon.estimate y.Daemon.estimate;
        check_identical s.res ~op
          ~what:(Printf.sprintf "%s tick %d loads" what x.Daemon.tick)
          x.Daemon.loads y.Daemon.loads)
      a b

(* The shadow loop: Daemon.run's tick rebuilt from the public calls in
   daemon.ml's order, each under its own span.  The daemon repairs
   inside Estimator.solve; here Degrade.repair runs on its own and the
   repaired row goes through a second series, which for a snapshot
   method such as kruithof feeds the solver exactly the row the daemon
   feeds it.  Epoch switches (reroute, fresh workspace) happen between
   ticks, as in the daemon.  Returns the tick records (estimate and
   loads filled in), per-tick durations in ms, and the workspaces. *)
let shadow ~tr ~pool (sh : dshard) =
  let cfg = sh.cfg and d = sh.dd in
  if Estimator.uses_time_series cfg.Daemon.est then
    invalid_arg "perfbench: the shadow loop replays snapshot methods only";
  let base = d.Dataset.routing in
  let links = Dataset.num_links d and ns = Dataset.num_samples d in
  let active l k =
    List.filter_map (fun (x, k0, k1) -> if k0 <= k && k <= k1 then Some x else None) l
  in
  let scen = cfg.Daemon.scenario in
  let failed_at k = List.sort_uniq compare (active scen.Daemon.flaps k) in
  let contexts = Hashtbl.create 4 in
  let state failed =
    let routing, ws =
      match Hashtbl.find_opt contexts failed with
      | Some c -> c
      | None ->
          let routing =
            match failed with
            | [] -> base
            | _ ->
                Span.with_ tr "net.reroute" (fun () ->
                    Option.get (Routing.without_links base.Routing.topo ~failed))
          in
          let ws = Span.with_ tr "workspace.create" (fun () -> Workspace.create ~pool routing) in
          Hashtbl.add contexts failed (routing, ws);
          (routing, ws)
    in
    ( failed,
      routing,
      ws,
      Series.create ~name:"daemon" ws ~window ~links,
      Series.create ~name:"repaired" ws ~window ~links )
  in
  let stream, cur =
    Span.with_ tr "daemon.start" (fun () ->
        let peak = ref 0. in
        for k = 0 to ns - 1 do
          Array.iter
            (fun v -> if v > !peak then peak := v)
            (Routing.link_loads base (Dataset.demand_at d k))
        done;
        let st =
          {
            cfg.Daemon.stream with
            Collect.max_rate_bps =
              Float.max cfg.Daemon.stream.Collect.max_rate_bps (4. *. !peak);
          }
        in
        (Collect.Stream.create st ~links, ref (state (failed_at 0))))
  in
  let epoch = ref 0 in
  let out =
    List.init cfg.Daemon.ticks (fun k ->
        let failed = failed_at k in
        let (f, _, _, _, _) = !cur in
        let switched = failed <> f in
        if switched then
          Span.with_ ~req:k tr "daemon.epoch" (fun () ->
              incr epoch;
              cur := state failed);
        let _, routing, ws, raw, repaired = !cur in
        let snapshot = k mod ns in
        let t0 = now () in
        let rec_ =
          Span.with_ ~req:k tr "daemon.tick" (fun () ->
              let truth =
                Span.with_ tr "net.link_loads" (fun () ->
                    Routing.link_loads routing (Dataset.demand_at d snapshot))
              in
              let st =
                Span.with_ tr "snmp.poll_round" (fun () ->
                    Collect.Stream.tick ~drop_pollers:(active scen.Daemon.poller_drops k)
                      ~reset_links:
                        (List.filter_map
                           (fun (l, at) -> if at = k then Some l else None)
                           scen.Daemon.resets)
                      stream ~true_loads:truth)
              in
              Span.with_ tr "scan.push" (fun () -> Series.push raw st.Collect.Stream.loads);
              let w0 = words () in
              let r =
                Span.with_ tr "degrade.repair" (fun () ->
                    Degrade.repair cfg.Daemon.degrade ws ~loads:(Series.latest raw) ())
              in
              let repair_words = words () -. w0 in
              Series.push repaired r.Degrade.loads;
              let opts =
                Estimator.Options.make ~warm:cfg.Daemon.warm
                  ~warm_tag:(Printf.sprintf "daemon/e%d" !epoch)
                  ~precond:cfg.Daemon.precond ()
              in
              let w1 = words () in
              let estimate =
                Span.with_ tr "scan.estimate" (fun () ->
                    Series.estimate ~opts repaired cfg.Daemon.est)
              in
              let est_words = words () -. w1 in
              ( {
                  Daemon.tick = k;
                  snapshot;
                  epoch = !epoch;
                  loads = st.Collect.Stream.loads;
                  estimate;
                  total_bps = Vec.sum estimate;
                  health = Some r.Degrade.health;
                  missing = st.Collect.Stream.missing;
                  resets = st.Collect.Stream.resets;
                  polls_lost = st.Collect.Stream.polls_lost;
                  latency_ns = 0L;
                },
                repair_words,
                est_words ))
        in
        (rec_, (now () -. t0) *. 1e3, switched))
  in
  (out, Hashtbl.fold (fun _ (_, ws) acc -> ws :: acc) contexts [])

let daemon s ~trace =
  let null = Span.disabled () in
  if not trace then begin
    let shards, heap_mb =
      timed_loop s ~shards:daemon_shards
        ~setup:(fun i -> daemon_data ~tr:null ~seed:s.seed i)
        ~pass:(fun sh -> (sh, Daemon.run ~pool:s.pool sh.cfg sh.dd))
        ~latencies:(fun (_, r) ->
          List.map
            (fun (t : Daemon.tick_record) -> Int64.to_float t.Daemon.latency_ns /. 1e6)
            r.Daemon.records)
    in
    let mres =
      List.concat
        (List.mapi
           (fun i shard ->
             let sh, r = List.hd shard.outs in
             let op0 = ops s.res (daemon_ticks * List.length shard.outs) in
             List.iteri
               (fun k (_, rk) ->
                 compare_records s ~op0:(op0 + (k * daemon_ticks))
                   ~what:(Printf.sprintf "daemon pass %d vs pass 0" k)
                   rk.Daemon.records r.Daemon.records)
               shard.outs;
             let m = daemon_checks s ~op0 sh r in
             if i = 0 then begin
               (* Daemon records are bit-identical at every pool size. *)
               let r1 = Daemon.run ~pool:s.pool1 sh.cfg sh.dd in
               compare_records s ~op0
                 ~what:(Printf.sprintf "daemon jobs=1 vs jobs=%d" s.jobs)
                 r1.Daemon.records r.Daemon.records
             end;
             m)
           shards)
    in
    set_end_to_end s ~items_per_pass:daemon_ticks ~shards ~mres ~heap_mb;
    None
  end
  else begin
    let tr = Span.create ~meta:[ ("workload", "daemon-america") ] () in
    let sh = daemon_data ~tr ~seed:s.seed 0 in
    set s.res "traffic.generate_s" (median (Span.durations tr "traffic.generate") /. 1e3);
    let timed f =
      let t0 = now () in
      let v = f () in
      (now () -. t0, v)
    in
    let timed f =
      Gc.compact ();
      timed f
    in
    let wall_n, r_n = timed (fun () -> Daemon.run ~pool:s.pool sh.cfg sh.dd) in
    let g0 = gc_counts () in
    let wall_1, r_1 = timed (fun () -> Daemon.run ~pool:s.pool1 sh.cfg sh.dd) in
    set_gc s.res g0;
    let t_start = Obs.Clock.now_ns () in
    let wall_t, (out, wss) = timed (fun () -> shadow ~tr ~pool:s.pool1 sh) in
    let op0 = ops s.res daemon_ticks in
    ignore (daemon_checks s ~op0 sh r_n);
    compare_records s ~op0
      ~what:(Printf.sprintf "daemon jobs=1 vs jobs=%d" s.jobs)
      r_1.Daemon.records r_n.Daemon.records;
    compare_records s ~op0 ~what:"shadow vs Daemon.run"
      (List.map (fun ((t, _, _), _, _) -> t) out)
      r_1.Daemon.records;
    let r = s.res in
    let us name = List.map (fun d -> d *. 1e3) (Span.durations tr name) in
    set r "net.reroute_ms" (median (Span.durations tr "net.reroute"));
    set r "snmp.poll_round_us" (median (us "snmp.poll_round"));
    set r "snmp.polls_lost"
      (float_of_int
         (List.fold_left
            (fun acc (((t : Daemon.tick_record), _, _), _, _) -> acc + t.Daemon.polls_lost)
            0 out));
    set r "scan.push_us" (median (us "scan.push"));
    set r "scan.window_ms" (median (Span.durations tr "scan.estimate"));
    let repairs =
      List.filter_map
        (fun (((t : Daemon.tick_record), words, _), _, _) ->
          match t.Daemon.health with
          | Some h when not h.Degrade.clean -> Some (t.Daemon.tick, words)
          | _ -> None)
        out
    in
    let repair_ms =
      List.filter_map
        (fun (s : Span.span) ->
          if s.Span.name = "degrade.repair" && List.mem_assoc s.Span.req repairs then
            Some (Span.dur_ms s)
          else None)
        (Span.spans tr)
    in
    set r "degrade.repair_ms" (median repair_ms);
    set r "degrade.repair_mwords" (median (List.map (fun (_, w) -> w /. 1e6) repairs));
    set r "degrade.repaired_ticks" (float_of_int (List.length repairs));
    set r "degrade.tick_share"
      (sum (Span.durations tr "degrade.repair") /. sum (Span.durations tr "daemon.tick"));
    let kernel_us = probe_kernels r ~pool:s.pool1 (List.hd wss) in
    set_method r ~kernel_us "kruithof"
      (List.map2
         (fun ms ((_, _, w), _, _) -> (ms, w, 0))
         (Span.durations tr "scan.estimate") out);
    let tick_self =
      List.filter_map
        (fun ((s : Span.span), self) -> if s.Span.name = "daemon.tick" then Some self else None)
        (Span.self_ms tr)
    in
    set r "daemon.tick_self_ms" (median tick_self);
    set r "daemon.epoch_tick_ms"
      (mean (List.filter_map (fun (_, ms, sw) -> if sw then Some ms else None) out));
    set r "daemon.dropout_tick_ms"
      (mean
         (List.filter_map
            (fun ((t, _, _), ms, _) -> if is_dropout t.Daemon.tick then Some ms else None)
            out));
    set_artifacts r wss;
    Some (tr, t_start, wall_n, wall_1, wall_t)
  end

(* ------------------------------------------------------------------ *)
(* Self-test, layer table, output                                      *)
(* ------------------------------------------------------------------ *)

(* The checks must catch what they claim to: a wrong pin and a
   perturbed estimate are both counted as failures. *)
let self_test () =
  let r = new_result ~quiet:true () in
  let op = ops r 2 in
  check_pin r ~op ~what:"self-test wrong pin" ~pin:(3016, 0.25) ~iterations:3015 ~mre:0.25;
  let x = Vec.create 4 1. in
  let y = Vec.copy x in
  y.(2) <- Float.succ y.(2);
  check_identical r ~op:(op + 1) ~what:"self-test perturbed estimate" x y;
  Hashtbl.length r.failed_ops = 2

(* Per-layer table of the traced pass: self time per span name, its
   share of the pass, call count and median duration. *)
let print_layers name tr ~t_start ~wall_t =
  let rows = Hashtbl.create 32 in
  let covered = ref 0. in
  List.iter
    (fun ((sp : Span.span), self) ->
      if sp.Span.t0 >= t_start then begin
        if sp.Span.parent < 0 then covered := !covered +. Span.dur_ms sp;
        let self0, durs = Option.value ~default:(0., []) (Hashtbl.find_opt rows sp.Span.name) in
        Hashtbl.replace rows sp.Span.name (self0 +. self, Span.dur_ms sp :: durs)
      end)
    (Span.self_ms tr);
  let rows =
    List.sort (fun (_, (a, _)) (_, (b, _)) -> compare b a) (List.of_seq (Hashtbl.to_seq rows))
  in
  Printf.printf "# layers of the traced pass (%s, %.3f s wall)\n" name wall_t;
  Printf.printf "# %-28s %12s %7s %7s %12s\n" "span" "self ms" "share" "calls" "median ms";
  List.iter
    (fun (n, (self, durs)) ->
      Printf.printf "# %-28s %12.3f %6.2f%% %7d %12.4f\n" n self
        (100. *. self /. (wall_t *. 1e3))
        (List.length durs) (median durs))
    rows;
  Printf.printf "# %-28s %12.3f %6.2f%%\n" "(spans total)" !covered
    (100. *. !covered /. (wall_t *. 1e3));
  !covered /. 1e3

let usage () =
  prerr_endline
    "usage: main.exe --workload replay-america|solve-sparse|daemon-america \
     --seed N --seconds S --trace 0|1 --nproc N [--jobs J] [--trace-dir D] \
     [--record-pins]";
  exit 2

let () =
  Obs.Clock.set_source Unix.gettimeofday;
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let nproc = ref 0 and jobs = ref 0 and trace_dir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--nproc", Arg.Set_int nproc, "N online processors");
      ("--jobs", Arg.Set_int jobs, "J pool size (default nproc)");
      ("--trace-dir", Arg.Set_string trace_dir, "D");
      ("--record-pins", Arg.Set record_pins, " print the panel's pins");
    ]
    (fun _ -> usage ())
    "perfbench";
  let seed = match !seed with Some s -> s | None -> usage () in
  if !nproc < 1 then usage ();
  let jobs = if !jobs = 0 then !nproc else !jobs in
  if jobs > !nproc then begin
    Printf.eprintf "perfbench: refusing jobs=%d on %d processors\n" jobs !nproc;
    exit 2
  end;
  let run =
    match !workload with
    | "replay-america" -> replay
    | "solve-sparse" -> panel
    | "daemon-america" -> daemon
    | _ -> usage ()
  in
  let s =
    {
      seed;
      seconds = !seconds;
      jobs;
      pool = Pool.create ~jobs;
      pool1 = Pool.create ~jobs:1;
      res = new_result ();
    }
  in
  let provenance =
    [
      ("workload", Json.Str !workload);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num s.seconds);
      ("trace", Json.Num (float_of_int !trace));
      ("nproc", Json.Num (float_of_int !nproc));
      ("recommended_domains", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("jobs", Json.Num (float_of_int jobs));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]
  in
  let self_ok = self_test () in
  if not self_ok then prerr_endline "perfbench: self-test did not count its failures";
  let traced = run s ~trace:(!trace = 1) in
  let trace_ok =
    match traced with
    | None -> true
    | Some (tr, t_start, wall_n, wall_1, wall_t) -> (
        let covered = print_layers !workload tr ~t_start ~wall_t in
        set_passes s.res ~jobs ~wall_n ~wall_1 ~wall_traced:wall_t ~covered;
        let path =
          Filename.concat !trace_dir (Printf.sprintf "trace-%s-%d.jsonl" !workload seed)
        in
        match Span.write tr path with
        | Ok () ->
            Printf.printf "# trace %s passes the trace schema\n" path;
            true
        | Error e ->
            Printf.eprintf "perfbench: trace %s rejected: %s\n" path e;
            false)
  in
  if not trace_ok then Hashtbl.replace s.res.failed_ops (-1) ();
  Pool.shutdown s.pool;
  Pool.shutdown s.pool1;
  let catalogue = if !trace = 1 then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (Hashtbl.find_opt s.res.values name) in
        (* JSON has no NaN or infinity: such a figure fails the run. *)
        if not (Float.is_finite v) then fail s.res ~op:(-1) "metric %s is %g" name v;
        (name, (if Float.is_finite v then v else 0.), unit))
      catalogue
  in
  let failed = Hashtbl.length s.res.failed_ops in
  Printf.printf "# provenance %s\n"
    (Json.to_string
       (Json.Obj (provenance @ [ ("ops", Json.Num (float_of_int s.res.attempted)) ])));
  List.iter (fun (n, v, u) -> Printf.printf "# %-36s %18.6f %s\n" n v u) metrics;
  Printf.printf "# ops %d  failed_frac %g  self-test %s\n" s.res.attempted
    (float_of_int failed /. float_of_int (Stdlib.max 1 s.res.attempted))
    (if self_ok then "ok" else "FAILED");
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0 && self_ok));
            ("attempted", Json.Num (float_of_int s.res.attempted));
            ("failed", Json.Num (float_of_int failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                   metrics) );
          ]))
