module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Obs = Tmest_obs.Obs

type result = { x : Vec.t; iterations : int; converged : bool }

let scratch_size = 4

let default_project v ~dst = Vec.clamp_nonneg_into v ~dst

let solve_into ?x0 ?(stop = Stop.default) ?scratch ?project_into ?objective
    ?dinv ~dim ~gradient_into ~lipschitz () =
  if lipschitz <= 0. then invalid_arg "Fista.solve: lipschitz must be > 0";
  (match dinv with
  | Some dv when Vec.dim dv <> dim ->
      invalid_arg "Fista.solve: dinv dimension mismatch"
  | _ -> ());
  let max_iter = Stop.max_iter stop ~default:2000 in
  let tol = Stop.tol stop ~default:1e-9 in
  let sink = stop.Stop.sink in
  let traced = sink.Obs.enabled in
  let label = Stop.label stop ~default:"fista" in
  let project_into =
    match project_into with Some f -> f | None -> default_project
  in
  let step = 1. /. lipschitz in
  let bufs =
    Scratch.take ~name:"Fista.solve_into" ~dim ~count:scratch_size scratch
  in
  let x = ref bufs.(0) and x_next = ref bufs.(1) in
  let y = bufs.(2) and g = bufs.(3) in
  (match x0 with
  | Some v ->
      if Vec.dim v <> dim then
        invalid_arg "Fista.solve: x0 dimension mismatch";
      project_into v ~dst:!x
  | None -> Array.fill !x 0 dim 0.);
  Vec.blit_into !x ~dst:y;
  let momentum = ref 1. in
  let iterations = ref 0 in
  let converged = ref false in
  if traced then
    Obs.span_begin sink label
      ~args:[ ("dim", Obs.Int dim); ("max_iter", Obs.Int max_iter) ];
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    gradient_into y ~dst:g;
    (* Preconditioned gradient step x⁺ = Π(y − η·D⁻¹∇f(y)), written out
       inline: a closure taking the float step would box it every
       iteration (+2 minor words on the disabled path, which
       BENCH_solvers.json pins at 2/iter).  Without [dinv] this is the
       historical axpy, bit for bit. *)
    (match dinv with
    | None -> Vec.axpy_into (-.step) g y ~dst:!x_next
    | Some dv ->
        let xna = !x_next in
        for i = 0 to dim - 1 do
          Array.unsafe_set xna i
            (Array.unsafe_get y i
            -. (step *. Array.unsafe_get dv i *. Array.unsafe_get g i))
        done);
    project_into !x_next ~dst:!x_next;
    (* One fused pass computes the adaptive-restart test
       (O'Donoghue & Candès: kill the momentum when it opposes the
       direction of progress), the step length and ‖x_next‖ without
       materializing [y − x_next] or [delta = x_next − x]. *)
    let xa = !x and xna = !x_next in
    let restart_dot = ref 0. and delta_sq = ref 0. and xnext_sq = ref 0. in
    for i = 0 to dim - 1 do
      let xn = Array.unsafe_get xna i in
      let d = xn -. Array.unsafe_get xa i in
      restart_dot := !restart_dot +. ((Array.unsafe_get y i -. xn) *. d);
      delta_sq := !delta_sq +. (d *. d);
      xnext_sq := !xnext_sq +. (xn *. xn)
    done;
    let restart = !restart_dot > 0. in
    let momentum_next =
      if restart then 1.
      else (1. +. sqrt (1. +. (4. *. !momentum *. !momentum))) /. 2.
    in
    let beta = if restart then 0. else (!momentum -. 1.) /. momentum_next in
    for i = 0 to dim - 1 do
      let xn = Array.unsafe_get xna i in
      Array.unsafe_set y i
        ((beta *. (xn -. Array.unsafe_get xa i)) +. xn)
    done;
    if sqrt !delta_sq <= tol *. (1. +. sqrt !xnext_sq) then converged := true;
    if traced then
      Obs.iter sink ~solver:label ~iter:!iterations
        ~objective:
          (match objective with Some f -> f !x_next | None -> nan)
        ~residual:(sqrt !delta_sq) ~step ~restart ();
    let tmp = !x in
    x := !x_next;
    x_next := tmp;
    momentum := momentum_next
  done;
  if traced then Obs.span_end sink label;
  { x = Vec.copy !x; iterations = !iterations; converged = !converged }

let solve ?x0 ?stop ~dim ~gradient ~lipschitz () =
  solve_into ?x0 ?stop ~dim
    ~gradient_into:(fun v ~dst -> Vec.blit_into (gradient v) ~dst)
    ~lipschitz ()

let lipschitz_of_op ?(iters = 60) ~dim apply =
  if dim = 0 then 0.
  else begin
    (* Power iteration with a deterministic, mildly irregular start so we
       do not begin orthogonal to the principal eigenvector. *)
    let v = ref (Vec.init dim (fun i -> 1. +. (0.01 *. float_of_int (i mod 7)))) in
    let lambda = ref 0. in
    let n0 = Vec.norm2 !v in
    v := Vec.scale (1. /. n0) !v;
    for _ = 1 to iters do
      let w = apply !v in
      let n = Vec.norm2 w in
      if n > 0. then begin
        lambda := n;
        v := Vec.scale (1. /. n) w
      end
    done;
    (* Small safety margin: an underestimated Lipschitz constant breaks
       the FISTA step-size guarantee. *)
    !lambda *. 1.01
  end

let lipschitz_of_gram ?iters h =
  if Mat.rows h <> Mat.cols h then
    invalid_arg "Fista.lipschitz_of_gram: matrix not square";
  lipschitz_of_op ?iters ~dim:(Mat.rows h) (fun v -> Mat.matvec h v)
