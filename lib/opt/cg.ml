module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Obs = Tmest_obs.Obs

type result = {
  x : Vec.t;
  iterations : int;
  residual_norm : float;
  converged : bool;
}

let scratch_size = 4

let solve_into ?x0 ?(stop = Stop.default) ?scratch ~apply_into ~b () =
  let dim = Array.length b in
  let max_iter = Stop.max_iter stop ~default:(2 * dim) in
  let tol = Stop.tol stop ~default:1e-10 in
  let sink = stop.Stop.sink in
  let traced = sink.Obs.enabled in
  let label = Stop.label stop ~default:"cg" in
  let bufs =
    Scratch.take ~name:"Cg.solve_into" ~dim ~count:scratch_size scratch
  in
  let x = bufs.(0) and r = bufs.(1) and p = bufs.(2) and ap = bufs.(3) in
  (match x0 with
  | Some v ->
      if Vec.dim v <> dim then invalid_arg "Cg.solve: x0 dimension mismatch";
      Vec.blit_into v ~dst:x
  | None -> Array.fill x 0 dim 0.);
  apply_into x ~dst:ap;
  Vec.sub_into b ap ~dst:r;
  let rs = ref (Vec.dot r r) in
  Vec.blit_into r ~dst:p;
  let target = tol *. (Vec.norm2 b +. 1e-300) in
  let iterations = ref 0 in
  if traced then
    Obs.span_begin sink label
      ~args:[ ("dim", Obs.Int dim); ("max_iter", Obs.Int max_iter) ];
  while sqrt !rs > target && !iterations < max_iter do
    incr iterations;
    apply_into p ~dst:ap;
    let pap = Vec.dot p ap in
    if pap <= 0. then begin
      (* Null-space direction of a semidefinite operator: stop here. *)
      if traced then
        Obs.iter sink ~solver:label ~iter:!iterations ~residual:0. ();
      rs := 0.
    end
    else begin
      let alpha = !rs /. pap in
      Vec.axpy_into alpha p x ~dst:x;
      (* Fused r <- r - alpha*Ap and ||r||^2 in one pass: bit-identical
         to the separate axpy + dot (store precedes accumulate per
         element) and allocation-neutral (one boxed float return where
         [dot] returned one). *)
      let rs' = Vec.axpy_sq_into (-.alpha) ap r ~dst:r in
      let beta = rs' /. !rs in
      Vec.axpy_into beta p r ~dst:p;
      if traced then
        Obs.iter sink ~solver:label ~iter:!iterations ~residual:(sqrt rs')
          ~step:alpha ();
      rs := rs'
    end
  done;
  if traced then Obs.span_end sink label;
  apply_into x ~dst:ap;
  Vec.sub_into b ap ~dst:r;
  let residual_norm = Vec.norm2 r in
  {
    x = Vec.copy x;
    iterations = !iterations;
    residual_norm;
    converged = residual_norm <= Stdlib.max target (10. *. target);
  }

let solve ?x0 ?stop ~apply ~b () =
  solve_into ?x0 ?stop
    ~apply_into:(fun v ~dst -> Vec.blit_into (apply v) ~dst)
    ~b ()

let solve_mat ?stop a b =
  if Mat.rows a <> Mat.cols a then invalid_arg "Cg.solve_mat: not square";
  solve_into ?stop
    ~apply_into:(fun v ~dst -> Mat.matvec_into a v ~dst)
    ~b ()
