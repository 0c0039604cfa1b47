module Vec = Tmest_linalg.Vec
module Lambert = Tmest_stats.Lambert
module Obs = Tmest_obs.Obs

type result = { x : Vec.t; iterations : int; converged : bool }

let scratch_size = 4

let solve_into ?x0 ?(stop = Stop.default) ?scratch ?objective ?dinv ~dim
    ~gradient_into ~prox_into ~lipschitz () =
  if lipschitz <= 0. then invalid_arg "Proxgrad.solve: lipschitz must be > 0";
  (match dinv with
  | Some dv when Vec.dim dv <> dim ->
      invalid_arg "Proxgrad.solve: dinv dimension mismatch"
  | _ -> ());
  let max_iter = Stop.max_iter stop ~default:3000 in
  let tol = Stop.tol stop ~default:1e-9 in
  let sink = stop.Stop.sink in
  let traced = sink.Obs.enabled in
  let label = Stop.label stop ~default:"proxgrad" in
  let step = 1. /. lipschitz in
  let bufs =
    Scratch.take ~name:"Proxgrad.solve_into" ~dim ~count:scratch_size scratch
  in
  let x = ref bufs.(0) and x_next = ref bufs.(1) in
  let y = bufs.(2) and g = bufs.(3) in
  (match x0 with
  | Some v ->
      if Vec.dim v <> dim then
        invalid_arg "Proxgrad.solve: x0 dimension mismatch";
      Vec.blit_into v ~dst:!x
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
    (* Preconditioned forward step x⁺ = prox_η(y − η·D⁻¹∇f(y)); the prox
       callback sees the same η and is expected to apply the matching
       metric (e.g. {!kl_prox_scaled_into} with the same [dinv]).
       Without [dinv] this is the historical axpy, bit for bit. *)
    (match dinv with
    | None -> Vec.axpy_into (-.step) g y ~dst:!x_next
    | Some dv ->
        let xna = !x_next in
        for i = 0 to dim - 1 do
          Array.unsafe_set xna i
            (Array.unsafe_get y i
            -. (step *. Array.unsafe_get dv i *. Array.unsafe_get g i))
        done);
    prox_into step !x_next ~dst:!x_next;
    (* Fused restart/step/norm pass; see Fista.solve_into. *)
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

let solve ?x0 ?stop ~dim ~gradient ~prox ~lipschitz () =
  solve_into ?x0 ?stop ~dim
    ~gradient_into:(fun v ~dst -> Vec.blit_into (gradient v) ~dst)
    ~prox_into:(fun step v ~dst -> Vec.blit_into (prox step v) ~dst)
    ~lipschitz ()

(* Minimizer of  w·(s ln(s/p) − s + p) + (s − v)²/(2η)  over s >= 0:
   stationarity gives  c ln(s/p) + s = v  with  c = w·η, hence
   s = c · W₀((p/c)·e^(v/c)).  Computed via the log-domain W to survive
   v/c of thousands. *)
let kl_prox_into ~weight ~prior step v ~dst =
  if weight < 0. then invalid_arg "Proxgrad.kl_prox: negative weight";
  if Vec.dim dst <> Vec.dim v then
    invalid_arg "Proxgrad.kl_prox_into: destination dimension mismatch";
  if Vec.dim prior <> Vec.dim v then
    invalid_arg "Proxgrad.kl_prox_into: prior dimension mismatch";
  let c = weight *. step in
  if c = 0. then Vec.clamp_nonneg_into v ~dst
  else
    (* The Lambert evaluation is inlined from [Lambert.w0_exp] /
       [Lambert.w0] (same guesses, same iteration counts, so results are
       bit-identical), with [dst.(i)] as the unboxed Newton/Halley cell:
       a [float ref] or a cross-module float call would box on every
       element and this loop is the allocation hot path of the entropy
       solver.  [test_kernels] pins the two implementations together. *)
    for i = 0 to Vec.dim v - 1 do
      let p = prior.(i) in
      if p <= 0. then dst.(i) <- 0.
      else begin
        let l = log p -. log c +. (v.(i) /. c) in
        if l < -700. then dst.(i) <- c *. exp l
        else if l <= 1. then begin
          (* Halley on w·e^w = x, x = e^l in (0, e]. *)
          let x = exp l in
          if x = 0. then dst.(i) <- 0.
          else begin
            let guess =
              if x < 1. then x *. (1. -. x +. (1.5 *. x *. x))
              else begin
                let l1 = log x in
                let l2 = log l1 in
                if l1 > 3. then l1 -. l2 +. (l2 /. l1) else l1
              end
            in
            dst.(i) <- (if guess > -1.0 then guess else -1.0);
            (* Fixed-point early exit (see [Lambert.w0]): once an
               update leaves the cell unchanged every remaining pass
               would too, so breaking is bit-identical to the fixed
               40-iteration loop.  Halley converges cubically, so this
               turns ~40 exp/log evaluations into ~5 — the difference
               between the prox dominating the entropy solve and it
               costing about as much as the matvecs. *)
            let it = ref 0 and live = ref true in
            while !live && !it < 40 do
              incr it;
              let w = dst.(i) in
              let ew = exp w in
              let f = (w *. ew) -. x in
              if f = 0. then live := false
              else begin
                let denom =
                  (ew *. (w +. 1.))
                  -. ((w +. 2.) *. f /. (2. *. (w +. 1.)))
                in
                if denom = 0. then live := false
                else begin
                  let next = w -. (f /. denom) in
                  if next = w then live := false else dst.(i) <- next
                end
              end
            done;
            dst.(i) <- c *. dst.(i)
          end
        end
        else begin
          (* Newton on w + ln w = l.  ([Stdlib.max] is polymorphic and
             would box both floats; [l > 1] here so no NaN concerns.) *)
          let g = l -. log l in
          dst.(i) <- (if g > 1e-8 then g else 1e-8);
          (* Same fixed-point early exit as the Halley branch. *)
          let it = ref 0 and live = ref true in
          while !live && !it < 60 do
            incr it;
            let w = dst.(i) in
            let f = w +. log w -. l in
            let f' = 1. +. (1. /. w) in
            let next = w -. (f /. f') in
            let next = if next > 0. then next else w /. 2. in
            if next = w then live := false else dst.(i) <- next
          done;
          dst.(i) <- c *. dst.(i)
        end
      end
    done

let kl_prox ~weight ~prior step v =
  if weight < 0. then invalid_arg "Proxgrad.kl_prox: negative weight";
  let dst = Vec.zeros (Vec.dim v) in
  kl_prox_into ~weight ~prior step v ~dst;
  dst

(* KL prox in the diagonal metric ‖u−v‖²_D/(2η) with D = diag(1/dinv):
   the problem stays separable and coordinate i sees the effective step
   η·dinv_i, so this is {!kl_prox_into} with a per-coordinate
   c_i = weight·step·dinv_i.  The loop bodies are duplicated rather
   than shared through a closure for the same unboxing reason. *)
let kl_prox_scaled_into ~weight ~prior ~dinv step v ~dst =
  if weight < 0. then invalid_arg "Proxgrad.kl_prox_scaled: negative weight";
  if Vec.dim dst <> Vec.dim v then
    invalid_arg "Proxgrad.kl_prox_scaled_into: destination dimension mismatch";
  if Vec.dim prior <> Vec.dim v then
    invalid_arg "Proxgrad.kl_prox_scaled_into: prior dimension mismatch";
  if Vec.dim dinv <> Vec.dim v then
    invalid_arg "Proxgrad.kl_prox_scaled_into: dinv dimension mismatch";
  if weight = 0. || step = 0. then Vec.clamp_nonneg_into v ~dst
  else
    for i = 0 to Vec.dim v - 1 do
      let p = prior.(i) in
      let c = weight *. step *. dinv.(i) in
      if p <= 0. then dst.(i) <- 0.
      else if c <= 0. then
        dst.(i) <- (if v.(i) > 0. then v.(i) else 0.)
      else begin
        let l = log p -. log c +. (v.(i) /. c) in
        if l < -700. then dst.(i) <- c *. exp l
        else if l <= 1. then begin
          let x = exp l in
          if x = 0. then dst.(i) <- 0.
          else begin
            let guess =
              if x < 1. then x *. (1. -. x +. (1.5 *. x *. x))
              else begin
                let l1 = log x in
                let l2 = log l1 in
                if l1 > 3. then l1 -. l2 +. (l2 /. l1) else l1
              end
            in
            dst.(i) <- (if guess > -1.0 then guess else -1.0);
            let it = ref 0 and live = ref true in
            while !live && !it < 40 do
              incr it;
              let w = dst.(i) in
              let ew = exp w in
              let f = (w *. ew) -. x in
              if f = 0. then live := false
              else begin
                let denom =
                  (ew *. (w +. 1.))
                  -. ((w +. 2.) *. f /. (2. *. (w +. 1.)))
                in
                if denom = 0. then live := false
                else begin
                  let next = w -. (f /. denom) in
                  if next = w then live := false else dst.(i) <- next
                end
              end
            done;
            dst.(i) <- c *. dst.(i)
          end
        end
        else begin
          let g = l -. log l in
          dst.(i) <- (if g > 1e-8 then g else 1e-8);
          let it = ref 0 and live = ref true in
          while !live && !it < 60 do
            incr it;
            let w = dst.(i) in
            let f = w +. log w -. l in
            let f' = 1. +. (1. /. w) in
            let next = w -. (f /. f') in
            let next = if next > 0. then next else w /. 2. in
            if next = w then live := false else dst.(i) <- next
          done;
          dst.(i) <- c *. dst.(i)
        end
      end
    done

let kl_divergence s p =
  if Array.length s <> Array.length p then
    invalid_arg "Proxgrad.kl_divergence: dimension mismatch";
  let acc = ref 0. in
  (try
     Array.iteri
       (fun i si ->
         let pi = p.(i) in
         if si < 0. then invalid_arg "Proxgrad.kl_divergence: negative entry";
         if si = 0. then acc := !acc +. pi
         else if pi <= 0. then begin
           acc := infinity;
           raise Exit
         end
         else acc := !acc +. ((si *. log (si /. pi)) -. si +. pi))
       s
   with Exit -> ());
  !acc
