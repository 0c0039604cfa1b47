(* Fault injection (Tmest_faults.Inject) and degraded-mode repair
   (Tmest_core.Degrade): determinism, the clean-path physical-identity
   guarantee, and repair actually beating the naive zero-fill
   baseline. *)

module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Core = Tmest_core
module Inject = Tmest_faults.Inject
module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec

let small_spec =
  { (Spec.scaled ~nodes:6 ~directed_links:28 Spec.europe) with Spec.seed = 7 }

let dataset = lazy (Dataset.generate small_spec)

let snapshot d = d.Dataset.spec.Spec.busy_start + (d.Dataset.spec.Spec.busy_len / 2)

let bits_equal u v =
  Array.length u = Array.length v
  && Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       u v

(* ------------------------------------------------- injection -------- *)

let test_inject_deterministic () =
  let d = Lazy.force dataset in
  let loads = Dataset.link_loads_at d (snapshot d) in
  let spec =
    Inject.make ~seed:42 ~noise:(Inject.Gaussian 0.05) ~drop_prob:0.1
      ~wrap_prob:0.02 ~reset_prob:0.01 ()
  in
  let a = Inject.loads spec ~loads in
  let b = Inject.loads spec ~loads in
  Alcotest.(check bool) "same corruption twice" true
    (Array.for_all2
       (fun x y ->
         Int64.bits_of_float x = Int64.bits_of_float y)
       a b);
  (* Corrupting a window first must not change the snapshot streams. *)
  let samples = Dataset.busy_load_samples d ~window:6 in
  ignore (Inject.samples spec samples);
  let c = Inject.loads spec ~loads in
  Alcotest.(check bool) "snapshot independent of window corruption" true
    (Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a c);
  Alcotest.(check bool) "input not mutated" true
    (bits_equal loads (Dataset.link_loads_at d (snapshot d)))

let test_inject_none_physical () =
  let d = Lazy.force dataset in
  let loads = Dataset.link_loads_at d (snapshot d) in
  let samples = Dataset.busy_load_samples d ~window:4 in
  Alcotest.(check bool) "loads physical" true
    (Inject.loads Inject.none ~loads == loads);
  Alcotest.(check bool) "samples physical" true
    (Inject.samples Inject.none samples == samples)

let test_wrap_folds_high_rates () =
  (* 1 Gbps over 300 s is ~37.5 GB — far past a 32-bit octet counter,
     so the uncorrected reading must come out lower than the truth. *)
  let spec = Inject.make ~seed:3 ~wrap_prob:1. () in
  let loads = [| 1e9; 2e9; 5e8 |] in
  let dirty = Inject.loads spec ~loads in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "wrapped %d below truth" i)
        true
        (x < loads.(i) && x >= 0.))
    dirty

let test_drop_rate () =
  let spec = Inject.make ~seed:11 ~drop_prob:0.3 () in
  let n = 10_000 in
  let loads = Array.make n 1e7 in
  let dirty = Inject.loads spec ~loads in
  let dropped =
    Array.fold_left
      (fun acc x -> if Float.is_nan x then acc + 1 else acc)
      0 dirty
  in
  let rate = float_of_int dropped /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "drop rate %.3f near 0.3" rate)
    true
    (abs_float (rate -. 0.3) < 0.02)

let test_stale_routing () =
  let d = Lazy.force dataset in
  let topo = d.Dataset.topo in
  (* No failures: the reroute must reproduce plain shortest-path loads
     (the dataset's own primary routing is a CSPF mesh, so it is not
     the reference here). *)
  (match Inject.stale_routing topo ~fail:[] with
  | None -> Alcotest.fail "reroute with no failures disconnected"
  | Some r ->
      let truth = Dataset.demand_at d (snapshot d) in
      Alcotest.(check bool) "same loads as shortest-path routing" true
        (bits_equal
           (Tmest_net.Routing.link_loads r truth)
           (Tmest_net.Routing.link_loads
              (Tmest_net.Routing.shortest_path topo)
              truth)));
  (* Failing one interior link must still leave the mesh connected and
     shift load onto other links. *)
  let interior = List.hd (Tmest_net.Topology.interior_links topo) in
  match Inject.stale_routing topo ~fail:[ interior.Tmest_net.Topology.link_id ] with
  | None -> Alcotest.fail "single-link failure disconnected the mesh"
  | Some r ->
      let truth = Dataset.demand_at d (snapshot d) in
      let loads = Tmest_net.Routing.link_loads r truth in
      Alcotest.(check (float 1.)) "failed link carries nothing" 0.
        loads.(interior.Tmest_net.Topology.link_id);
      Alcotest.(check bool) "loads differ from primary" true
        (not
           (bits_equal loads
              (Tmest_net.Routing.link_loads d.Dataset.routing truth)))

(* --------------------------------------------------- degrade -------- *)

let test_clean_repair_physical () =
  let d = Lazy.force dataset in
  let ws = Core.Workspace.create d.Dataset.routing in
  let loads = Dataset.link_loads_at d (snapshot d) in
  let samples = Dataset.busy_load_samples d ~window:6 in
  let r = Core.Degrade.repair Core.Degrade.default ws ~loads ~samples () in
  Alcotest.(check bool) "clean flag" true r.Core.Degrade.health.Core.Degrade.clean;
  Alcotest.(check bool) "loads physical" true (r.Core.Degrade.loads == loads);
  Alcotest.(check bool) "samples physical" true
    (match r.Core.Degrade.samples with Some m -> m == samples | None -> false)

let test_degraded_solve_bit_identical () =
  let d = Lazy.force dataset in
  let ws = Core.Workspace.create d.Dataset.routing in
  let loads = Dataset.link_loads_at d (snapshot d) in
  let samples = Dataset.busy_load_samples d ~window:8 in
  let opts = Core.Estimator.Options.make ~degrade:Core.Degrade.default () in
  List.iter
    (fun name ->
      let m = Core.Estimator.of_name name in
      let plain = Core.Estimator.solve m ws ~loads ~load_samples:samples in
      let degraded =
        Core.Estimator.solve ~opts m ws ~loads ~load_samples:samples
      in
      Alcotest.(check bool)
        (name ^ " bit-identical with clean inputs")
        true
        (bits_equal plain degraded))
    (Core.Estimator.all_names ())

let test_drop_imputation_beats_zero_fill () =
  let d = Lazy.force dataset in
  let ws = Core.Workspace.create d.Dataset.routing in
  let truth = Dataset.demand_at d (snapshot d) in
  let loads = Dataset.link_loads_at d (snapshot d) in
  let samples = Dataset.busy_load_samples d ~window:8 in
  let spec = Inject.make ~seed:17 ~drop_prob:0.15 () in
  let dirty = Inject.loads spec ~loads in
  Alcotest.(check bool) "something was dropped" true
    (Array.exists Float.is_nan dirty);
  let m = Core.Estimator.of_name "entropy" in
  let mre estimate = Core.Metrics.mre ~truth ~estimate () in
  let repaired =
    mre
      (Core.Estimator.solve
         ~opts:(Core.Estimator.Options.make ~degrade:Core.Degrade.default ())
         m ws ~loads:dirty ~load_samples:samples)
  in
  let zero =
    mre
      (Core.Estimator.solve m ws
         ~loads:(Inject.zero_fill dirty)
         ~load_samples:samples)
  in
  Alcotest.(check bool)
    (Printf.sprintf "repaired %.4f < zero-filled %.4f" repaired zero)
    true (repaired < zero)

let test_single_corruption_detected () =
  let d = Lazy.force dataset in
  let ws = Core.Workspace.create d.Dataset.routing in
  let loads = Array.copy (Dataset.link_loads_at d (snapshot d)) in
  (* Triple one busy interior link: row leaves range(R). *)
  let i =
    let best = ref 0 in
    Array.iteri (fun j x -> if x > loads.(!best) then best := j) loads;
    !best
  in
  loads.(i) <- loads.(i) *. 3.;
  let r = Core.Degrade.repair Core.Degrade.default ws ~loads () in
  let h = r.Core.Degrade.health in
  Alcotest.(check bool) "not clean" false h.Core.Degrade.clean;
  Alcotest.(check bool) "at least the bad row projected" true
    (h.Core.Degrade.projected >= 1);
  Alcotest.(check bool) "repair reduced the misfit" true
    (h.Core.Degrade.residual_after < h.Core.Degrade.residual_before);
  Alcotest.(check bool) "bad row pulled toward consensus" true
    (abs_float (r.Core.Degrade.loads.(i) -. loads.(i)) > 0.)

let test_window_fill () =
  let d = Lazy.force dataset in
  let ws = Core.Workspace.create d.Dataset.routing in
  let loads = Dataset.link_loads_at d (snapshot d) in
  let samples = Dataset.busy_load_samples d ~window:6 in
  let holed = Mat.copy samples in
  Mat.set holed 0 3 Float.nan;
  Mat.set holed 3 5 Float.nan;
  Mat.set holed 5 5 Float.nan;
  let r = Core.Degrade.repair Core.Degrade.default ws ~loads ~samples:holed () in
  let h = r.Core.Degrade.health in
  Alcotest.(check int) "three cells filled" 3 h.Core.Degrade.sample_missing;
  match r.Core.Degrade.samples with
  | None -> Alcotest.fail "samples missing from repair"
  | Some m ->
      Alcotest.(check bool) "all finite" true
        (let ok = ref true in
         for row = 0 to Mat.rows m - 1 do
           for col = 0 to Mat.cols m - 1 do
             if not (Float.is_finite (Mat.get m row col)) then ok := false
           done
         done;
         !ok);
      (* Leading gap takes the next value, interior gap the previous. *)
      Alcotest.(check (float 0.)) "leading gap backward-filled"
        (Mat.get samples 1 3) (Mat.get m 0 3);
      Alcotest.(check (float 0.)) "interior gap forward-filled"
        (Mat.get samples 2 5) (Mat.get m 3 5)

let test_window_fill_through_solve () =
  (* The same temporal fill end to end: a holed window handed to
     [Estimator.solve ?degrade] must be repaired in-flight, report the
     fills through [on_health], and produce exactly the estimate the
     explicitly repaired matrix produces. *)
  let d = Lazy.force dataset in
  let ws = Core.Workspace.create d.Dataset.routing in
  let loads = Dataset.link_loads_at d (snapshot d) in
  let samples = Dataset.busy_load_samples d ~window:8 in
  let holed = Mat.copy samples in
  Mat.set holed 0 2 Float.nan;
  Mat.set holed 4 2 Float.nan;
  Mat.set holed 7 9 Float.nan;
  let stash = ref None in
  let policy =
    Core.Degrade.with_on_health (fun h -> stash := Some h) Core.Degrade.default
  in
  let m = Core.Estimator.of_name "fanout" in
  let est =
    Core.Estimator.solve
      ~opts:(Core.Estimator.Options.make ~degrade:policy ())
      m ws ~loads ~load_samples:holed
  in
  (match !stash with
  | None -> Alcotest.fail "health not reported"
  | Some h ->
      Alcotest.(check int) "holes counted" 3 h.Core.Degrade.sample_missing;
      Alcotest.(check bool) "window repair drops the clean flag" false
        h.Core.Degrade.clean);
  Array.iter
    (fun x ->
      Alcotest.(check bool) "estimate finite" true (Float.is_finite x))
    est;
  let r = Core.Degrade.repair Core.Degrade.default ws ~loads ~samples:holed () in
  match r.Core.Degrade.samples with
  | None -> Alcotest.fail "samples missing from repair"
  | Some repaired ->
      let direct =
        Core.Estimator.solve m ws ~loads ~load_samples:repaired
      in
      Alcotest.(check bool) "same estimate as explicit repair" true
        (bits_equal est direct)

let () =
  Alcotest.run "faults"
    [
      ( "inject",
        [
          Alcotest.test_case "deterministic" `Quick test_inject_deterministic;
          Alcotest.test_case "none is physical identity" `Quick
            test_inject_none_physical;
          Alcotest.test_case "wrap folds high rates" `Quick
            test_wrap_folds_high_rates;
          Alcotest.test_case "drop rate" `Quick test_drop_rate;
          Alcotest.test_case "stale routing" `Quick test_stale_routing;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "clean repair is physical identity" `Quick
            test_clean_repair_physical;
          Alcotest.test_case "degraded solve bit-identical on clean data"
            `Quick test_degraded_solve_bit_identical;
          Alcotest.test_case "imputation beats zero-fill" `Quick
            test_drop_imputation_beats_zero_fill;
          Alcotest.test_case "single corrupted row detected" `Quick
            test_single_corruption_detected;
          Alcotest.test_case "window temporal fill" `Quick test_window_fill;
          Alcotest.test_case "window fill through solve" `Quick
            test_window_fill_through_solve;
        ] );
    ]
