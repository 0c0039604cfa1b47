(* The observability layer: the null sink must be invisible (estimates
   bit-identical with tracing compiled in but disabled), recorded traces
   must satisfy their own schema in both encodings (monotone timestamps,
   properly nested spans), and a single-job run must emit a
   deterministic event sequence. *)

module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Obs = Tmest_obs.Obs
module Recorder = Tmest_obs.Recorder
module Validate = Tmest_obs.Validate
module Stop = Tmest_opt.Stop
module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec
module Workspace = Tmest_core.Workspace
module Estimator = Tmest_core.Estimator
module Ctx = Tmest_experiments.Ctx

let small_spec =
  { (Spec.scaled ~nodes:6 ~directed_links:28 Spec.europe) with Spec.seed = 7 }

let small = lazy (Dataset.generate small_spec)

let busy_inputs d =
  let k = d.Dataset.spec.Spec.busy_start + (d.Dataset.spec.Spec.busy_len / 2) in
  let loads = Dataset.link_loads_at d k in
  (loads, Dataset.busy_load_samples d ~window:10)

(* Every method, solved once against a workspace wired to [sink]. *)
let solve_all ~sink =
  let d = Lazy.force small in
  let loads, load_samples = busy_inputs d in
  let ws = Workspace.create ~sink d.Dataset.routing in
  List.map
    (fun name ->
      (name, Estimator.solve (Estimator.of_name name) ws ~loads ~load_samples))
    (Estimator.all_names ())

(* ------------------------------------------------------------------ *)
(* Null sink: bit-identity                                             *)
(* ------------------------------------------------------------------ *)

let test_null_sink_bit_identical () =
  (* Tracing may never perturb the numerics: solving through an enabled
     recorder sink and through the null sink must agree bit-for-bit. *)
  let plain = solve_all ~sink:Obs.null in
  let r = Recorder.create () in
  let traced = solve_all ~sink:(Recorder.sink r) in
  List.iter2
    (fun (name, a) (name', b) ->
      Alcotest.(check string) "method order" name name';
      Alcotest.(check bool)
        (name ^ " traced = untraced bit-for-bit")
        true
        (Array.length a = Array.length b
        && Array.for_all2
             (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
             a b))
    plain traced;
  Alcotest.(check bool) "the traced run recorded something" true
    (Recorder.length r > 0)

let test_null_sink_is_silent () =
  Alcotest.(check bool) "null sink disabled" false Obs.null.Obs.enabled;
  Alcotest.(check bool) "is_null" true (Obs.is_null Obs.null);
  (* Emissions through the front-door API are dropped without calling
     the sink at all — exercised here simply by not crashing and by the
     recorder staying empty when wrapped in a disabled sink. *)
  Obs.counter Obs.null "nothing" 1.;
  Obs.span Obs.null "nothing" (fun () -> ())

(* ------------------------------------------------------------------ *)
(* Recorded traces satisfy their own schema                            *)
(* ------------------------------------------------------------------ *)

let record_one_run () =
  let r = Recorder.create ~meta:[ ("command", "test_obs") ] () in
  ignore (solve_all ~sink:(Recorder.sink r));
  r

let test_jsonl_validates () =
  let r = record_one_run () in
  match Validate.jsonl (Recorder.to_jsonl r) with
  | Error msg -> Alcotest.failf "jsonl trace invalid: %s" msg
  | Ok s ->
      Alcotest.(check bool) "events recorded" true (s.Validate.events > 0);
      Alcotest.(check bool) "spans closed" true (s.Validate.spans > 0);
      Alcotest.(check bool) "solver iterations present" true
        (s.Validate.iters > 0);
      (* solve/<method> wraps the method's solver span, so nesting must
         reach at least two levels. *)
      Alcotest.(check bool) "spans nest" true (s.Validate.max_depth >= 2);
      (* Entropy runs through proxgrad, bayes through fista; their
         labels name the method, not just the algorithm. *)
      List.iter
        (fun label ->
          Alcotest.(check bool) ("solver label " ^ label) true
            (List.mem label s.Validate.solvers))
        [ "entropy/proxgrad"; "bayes/fista"; "vardi/fista" ]

let test_chrome_validates () =
  let r = record_one_run () in
  match Validate.chrome (Recorder.to_chrome r) with
  | Error msg -> Alcotest.failf "chrome trace invalid: %s" msg
  | Ok s ->
      Alcotest.(check bool) "events recorded" true (s.Validate.events > 0);
      Alcotest.(check bool) "spans closed" true (s.Validate.spans > 0)

let test_validate_rejects_garbage () =
  (match Validate.jsonl "not json\n" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  (* A begin without its end: span nesting must be rejected. *)
  let r = Recorder.create () in
  let sink = Recorder.sink r in
  Obs.span_begin sink "left-open";
  (match Validate.jsonl (Recorder.to_jsonl r) with
  | Ok _ -> Alcotest.fail "accepted an unclosed span"
  | Error _ -> ());
  (* An end with no begin. *)
  let r = Recorder.create () in
  Obs.span_end (Recorder.sink r) "never-opened";
  match Validate.jsonl (Recorder.to_jsonl r) with
  | Ok _ -> Alcotest.fail "accepted an unmatched span end"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Determinism at one job                                              *)
(* ------------------------------------------------------------------ *)

(* Structural view of an event, timestamps erased: at jobs = 1 two
   identical runs must produce identical event sequences (floats are
   compared bitwise through their string rendering). *)
let shape (_, tid, (e : Obs.event)) =
  let v = function
    | Obs.Int i -> string_of_int i
    | Obs.Float f -> Printf.sprintf "%h" f
    | Obs.String s -> s
    | Obs.Bool b -> string_of_bool b
  in
  match e with
  | Obs.Span_begin { name; args } ->
      Printf.sprintf "B:%d:%s:%s" tid name
        (String.concat "," (List.map (fun (k, x) -> k ^ "=" ^ v x) args))
  | Obs.Span_end { name } -> Printf.sprintf "E:%d:%s" tid name
  | Obs.Counter { name; value } -> Printf.sprintf "C:%d:%s=%h" tid name value
  | Obs.Iter { solver; iter; objective; residual; step; restart } ->
      Printf.sprintf "I:%d:%s:%d:%h:%h:%h:%b" tid solver iter objective
        residual step restart

let traced_scan () =
  let r = Recorder.create () in
  let ctx = Ctx.create ~fast:true ~jobs:1 ~sink:(Recorder.sink r) () in
  ignore
    (Ctx.Scan.run ctx.Ctx.europe
       (Estimator.of_name "entropy")
       (Ctx.Scan.make (Ctx.Scan.Busy { window = 5; steps = 3 })));
  Array.to_list (Array.map shape (Recorder.events r))

let test_deterministic_at_one_job () =
  let a = traced_scan () in
  let b = traced_scan () in
  Alcotest.(check (list string)) "identical event sequences" a b;
  Alcotest.(check bool) "nonempty" true (a <> [])

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotone_under_stepping_source () =
  (* A time source stepping backwards must still yield a non-decreasing
     stamp sequence (the recorder's validator depends on this). *)
  let steps = ref [ 5.; 3.; 4.; 1.; 2. ] in
  Obs.Clock.set_source (fun () ->
      match !steps with
      | [] -> 10.
      | t :: rest ->
          steps := rest;
          t);
  let stamps = Array.init 6 (fun _ -> Obs.Clock.now_ns ()) in
  Obs.Clock.set_source Sys.time;
  Array.iteri
    (fun i t ->
      if i > 0 && Int64.compare t stamps.(i - 1) < 0 then
        Alcotest.failf "clock went backwards at %d" i)
    stamps

(* ------------------------------------------------------------------ *)
(* File round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let test_write_file_dispatches_on_suffix () =
  let r = record_one_run () in
  let check_file suffix =
    let path = Filename.temp_file "tmest_trace" suffix in
    Recorder.write_file r path;
    let res = Validate.file path in
    Sys.remove path;
    match res with
    | Ok s -> s
    | Error msg -> Alcotest.failf "%s trace invalid: %s" suffix msg
  in
  let jl = check_file ".jsonl" in
  let ch = check_file ".json" in
  (* Both encodings describe the same recording. *)
  Alcotest.(check int) "same span count" jl.Validate.spans ch.Validate.spans;
  Alcotest.(check int) "same iteration count" jl.Validate.iters
    ch.Validate.iters

let () =
  Alcotest.run "obs"
    [
      ( "null-sink",
        [
          Alcotest.test_case "bit-identical estimates" `Quick
            test_null_sink_bit_identical;
          Alcotest.test_case "silent" `Quick test_null_sink_is_silent;
        ] );
      ( "schema",
        [
          Alcotest.test_case "jsonl validates" `Quick test_jsonl_validates;
          Alcotest.test_case "chrome validates" `Quick test_chrome_validates;
          Alcotest.test_case "garbage rejected" `Quick
            test_validate_rejects_garbage;
          Alcotest.test_case "write_file round-trip" `Quick
            test_write_file_dispatches_on_suffix;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "one-job trace deterministic" `Quick
            test_deterministic_at_one_job;
          Alcotest.test_case "clock monotone" `Quick
            test_clock_monotone_under_stepping_source;
        ] );
    ]
