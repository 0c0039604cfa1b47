(* Property tests (via the zero-dependency helper in [Prop]): the
   destination-passing kernels against their allocating counterparts,
   pooled matvecs against sequential ones, projection invariants, and
   Kruithof's marginal-preservation guarantee. *)

module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Csr = Tmest_linalg.Csr
module Pool = Tmest_parallel.Pool
module Projections = Tmest_opt.Projections
module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec
module Odpairs = Tmest_net.Odpairs

(* ------------------------------------------------- into-kernels ----- *)

let dim_gen = Prop.int_in ~lo:1 ~hi:64

let vec_pair rng =
  let n = dim_gen rng in
  (Prop.vec ~lo:(-5.) ~hi:5. n rng, Prop.vec ~lo:(-5.) ~hi:5. n rng)

let test_into_kernels () =
  let binary name into alloc =
    Prop.run ~seed:101 ~name vec_pair (fun (u, v) ->
        let dst = Vec.zeros (Array.length u) in
        into u v ~dst;
        Prop.vec_bits_equal dst (alloc u v));
    (* Writing into the first operand must give the same bits. *)
    Prop.run ~seed:102 ~name:(name ^ " (aliased)") vec_pair (fun (u, v) ->
        let expected = alloc u v in
        let u' = Vec.copy u in
        into u' v ~dst:u';
        Prop.vec_bits_equal u' expected)
  in
  binary "add_into" Vec.add_into Vec.add;
  binary "sub_into" Vec.sub_into Vec.sub;
  binary "mul_into" Vec.mul_into Vec.mul;
  Prop.run ~seed:103 ~name:"div_into"
    (fun rng ->
      let n = dim_gen rng in
      (Prop.vec ~lo:(-5.) ~hi:5. n rng, Prop.vec ~lo:0.5 ~hi:5. n rng))
    (fun (u, v) ->
      let dst = Vec.zeros (Array.length u) in
      Vec.div_into u v ~dst;
      Prop.vec_bits_equal dst (Vec.div u v));
  Prop.run ~seed:104 ~name:"scale_into"
    (fun rng ->
      (Prop.float_in ~lo:(-3.) ~hi:3. rng, Prop.vec ~lo:(-5.) ~hi:5. 33 rng))
    (fun (a, v) ->
      let dst = Vec.zeros (Array.length v) in
      Vec.scale_into a v ~dst;
      Prop.vec_bits_equal dst (Vec.scale a v));
  Prop.run ~seed:105 ~name:"axpy_into (aliased y)"
    (fun rng ->
      let a = Prop.float_in ~lo:(-3.) ~hi:3. rng in
      let x, y = vec_pair rng in
      (a, x, y))
    (fun (a, x, y) ->
      let expected = Vec.axpy a x y in
      let y' = Vec.copy y in
      Vec.axpy_into a x y' ~dst:y';
      Prop.vec_bits_equal y' expected);
  Prop.run ~seed:106 ~name:"clamp_nonneg_into"
    (fun rng -> Prop.vec ~lo:(-5.) ~hi:5. (dim_gen rng) rng)
    (fun v ->
      let dst = Vec.zeros (Array.length v) in
      Vec.clamp_nonneg_into v ~dst;
      Prop.vec_bits_equal dst (Array.map (fun x -> Stdlib.max 0. x) v));
  Prop.run ~seed:107 ~name:"blit_into"
    (fun rng -> Prop.vec ~lo:(-5.) ~hi:5. (dim_gen rng) rng)
    (fun v ->
      let dst = Vec.zeros (Array.length v) in
      Vec.blit_into v ~dst;
      Prop.vec_bits_equal dst v)

(* ------------------------------------------- pooled matvec bits ----- *)

let sparse_gen rng =
  let rows = Prop.int_in ~lo:1 ~hi:40 rng in
  let cols = Prop.int_in ~lo:1 ~hi:40 rng in
  let nnz = Prop.int_in ~lo:0 ~hi:(rows * cols / 2) rng in
  let entries =
    List.init nnz (fun _ ->
        ( Prop.int_in ~lo:0 ~hi:(rows - 1) rng,
          Prop.int_in ~lo:0 ~hi:(cols - 1) rng,
          Prop.float_in ~lo:(-2.) ~hi:2. rng ))
  in
  let m = Csr.of_triplets ~rows ~cols entries in
  (m, Prop.vec ~lo:(-3.) ~hi:3. cols rng)

let test_pooled_matvec () =
  let pool = Pool.create ~jobs:2 in
  Prop.run ~seed:201 ~count:60 ~name:"csr matvec pool=2"
    sparse_gen
    (fun (m, x) -> Prop.vec_bits_equal (Csr.matvec m x) (Csr.matvec ~pool m x));
  Prop.run ~seed:202 ~count:60 ~name:"csr matvec_into pool=2" sparse_gen
    (fun (m, x) ->
      let d1 = Vec.zeros (Csr.rows m) and d2 = Vec.zeros (Csr.rows m) in
      Csr.matvec_into m x ~dst:d1;
      Csr.matvec_into ~pool m x ~dst:d2;
      Prop.vec_bits_equal d1 d2);
  Prop.run ~seed:203 ~count:60 ~name:"csr tmatvec_into" sparse_gen
    (fun (m, _x) ->
      let y = Prop.vec ~lo:(-3.) ~hi:3. (Csr.rows m) (Tmest_stats.Rng.create 5) in
      let dst = Vec.zeros (Csr.cols m) in
      Csr.tmatvec_into m y ~dst;
      Prop.vec_bits_equal dst (Csr.tmatvec m y))

(* ------------------------------------------ matrix-free operators --- *)

module Op = Tmest_linalg.Op

let test_op_adjoint () =
  (* <A x, y> = <x, A^T y>: the defining identity of the adjoint, over
     random CSR operators and their compositions. *)
  Prop.run ~seed:501 ~count:60 ~name:"of_csr adjoint consistency" sparse_gen
    (fun (m, x) ->
      let op = Op.of_csr m in
      let y =
        Prop.vec ~lo:(-3.) ~hi:3. (Csr.rows m) (Tmest_stats.Rng.create 9)
      in
      Prop.close ~tol:1e-12 (Vec.dot (Op.apply op x) y)
        (Vec.dot x (Op.apply_t op y)));
  Prop.run ~seed:502 ~count:60 ~name:"of_csr matches dense" sparse_gen
    (fun (m, x) ->
      let op = Op.of_csr m in
      let dense = Csr.to_dense m in
      let y =
        Prop.vec ~lo:(-3.) ~hi:3. (Csr.rows m) (Tmest_stats.Rng.create 11)
      in
      Prop.vec_close ~tol:1e-12 (Op.apply op x) (Mat.matvec dense x)
      && Prop.vec_close ~tol:1e-12 (Op.apply_t op y)
           (Mat.matvec (Mat.transpose dense) y))

let test_op_normal () =
  (* The fused normal-equations kernel behind [Workspace.normal_op] and
     the operator-form spectral estimate behind [Workspace.op_norm],
     against the explicit Gram. *)
  Prop.run ~seed:503 ~count:60 ~name:"normal apply = explicit Gram" sparse_gen
    (fun (m, x) ->
      let link = Vec.zeros (Csr.rows m) and dst = Vec.zeros (Csr.cols m) in
      Csr.normal_apply_into m x ~link ~dst;
      Prop.vec_close ~tol:1e-9 dst (Mat.matvec (Csr.gram m) x));
  Prop.run ~seed:504 ~count:40 ~name:"lipschitz_of_op = dense power iteration"
    sparse_gen
    (fun (m, _x) ->
      let est =
        Tmest_opt.Fista.lipschitz_of_op ~dim:(Csr.cols m) (fun v ->
            Csr.tmatvec m (Csr.matvec m v))
      in
      let dense = Tmest_opt.Fista.lipschitz_of_gram (Csr.gram m) in
      (* Same start vector, iteration count and margin — only the
         floating-point association differs between the two paths. *)
      Prop.close ~tol:1e-6 est dense)

let test_workspace_sparse_ops () =
  (* The workspace's cached operators against the dense artifacts a
     twin dense-mode workspace materializes for the same routing. *)
  let d =
    Dataset.generate
      { (Spec.scaled ~nodes:6 ~directed_links:28 Spec.europe) with
        Spec.seed = 13 }
  in
  let module W = Tmest_core.Workspace in
  let routing = d.Dataset.routing in
  let dense_ws = W.create routing in
  let sparse_ws = W.create ~mode:W.Sparse routing in
  let pairs = Dataset.num_pairs d in
  Prop.run ~seed:507 ~count:40 ~name:"workspace normal_op = dense gram"
    (Prop.vec ~lo:(-2.) ~hi:2. pairs)
    (fun x ->
      Prop.vec_close ~tol:1e-9
        (Op.apply (W.normal_op sparse_ws) x)
        (Mat.matvec (W.gram dense_ws) x));
  Prop.run ~seed:508 ~count:40 ~name:"workspace gram_sq_op = dense gram^2"
    (Prop.vec ~lo:(-2.) ~hi:2. pairs)
    (fun x ->
      Prop.vec_close ~tol:1e-9
        (Op.apply (W.gram_sq_op sparse_ws) x)
        (Mat.matvec (W.gram_sq dense_ws) x));
  Alcotest.(check bool)
    "op_norm agrees across modes" true
    (Prop.close ~tol:1e-9 (W.op_norm sparse_ws) (W.op_norm dense_ws))

(* --------------------------------------------- projections ---------- *)

let test_simplex () =
  let gen rng =
    let n = Prop.int_in ~lo:1 ~hi:50 rng in
    let total = Prop.float_in ~lo:0.1 ~hi:20. rng in
    (total, Prop.vec ~lo:(-5.) ~hi:5. n rng)
  in
  Prop.run ~seed:301 ~name:"simplex feasibility" gen (fun (total, v) ->
      let p = Projections.simplex ~total v in
      Array.for_all (fun x -> x >= 0.) p && Prop.close (Vec.sum p) total);
  Prop.run ~seed:302 ~name:"simplex idempotence" gen (fun (total, v) ->
      let p = Projections.simplex ~total v in
      Prop.vec_close ~tol:1e-9 p (Projections.simplex ~total p));
  Prop.run ~seed:303 ~count:60 ~name:"block simplex = per-block simplex"
    (fun rng ->
      let blocks = Prop.int_in ~lo:1 ~hi:5 rng in
      let n = Prop.int_in ~lo:blocks ~hi:40 rng in
      (* Every block non-empty: first [blocks] coordinates cycle. *)
      let block =
        Array.init n (fun i ->
            if i < blocks then i else Prop.int_in ~lo:0 ~hi:(blocks - 1) rng)
      in
      (blocks, block, Prop.vec ~lo:(-4.) ~hi:4. n rng))
    (fun (blocks, block, v) ->
      let part = Projections.block_partition ~block in
      let dst = Vec.zeros (Array.length v) in
      Projections.block_simplex_into part v ~dst;
      let ok = ref true in
      for b = 0 to blocks - 1 do
        let idx =
          List.filter
            (fun i -> block.(i) = b)
            (List.init (Array.length v) Fun.id)
        in
        let sub = Array.of_list (List.map (fun i -> v.(i)) idx) in
        let expected = Projections.simplex sub in
        List.iteri
          (fun k i -> if not (Prop.close dst.(i) expected.(k)) then ok := false)
          idx
      done;
      !ok)

(* ----------------------------------------------- kruithof ----------- *)

let test_kruithof_marginals () =
  let d =
    Dataset.generate
      { (Spec.scaled ~nodes:6 ~directed_links:28 Spec.europe) with
        Spec.seed = 7 }
  in
  let routing = d.Dataset.routing in
  let ws = Tmest_core.Workspace.create routing in
  let nodes = Dataset.num_nodes d in
  let pairs = Dataset.num_pairs d in
  Prop.run ~seed:401 ~count:25 ~name:"kruithof preserves node marginals"
    (fun rng ->
      ( Prop.vec ~lo:1e5 ~hi:1e8 pairs rng,
        Prop.vec ~lo:1e5 ~hi:1e8 pairs rng ))
    (fun (truth, prior) ->
      let loads = Tmest_net.Routing.link_loads routing truth in
      let s = Tmest_core.Kruithof.adjust ws ~loads ~prior in
      let te, tx = Tmest_core.Gravity.node_totals routing ~loads in
      let ok = ref true in
      for n = 0 to nodes - 1 do
        let row = ref 0. and col = ref 0. in
        for m = 0 to nodes - 1 do
          if m <> n then begin
            row := !row +. s.(Odpairs.index ~nodes ~src:n ~dst:m);
            col := !col +. s.(Odpairs.index ~nodes ~src:m ~dst:n)
          end
        done;
        if not (Prop.close ~tol:1e-6 !row te.(n)) then ok := false;
        if not (Prop.close ~tol:1e-6 !col tx.(n)) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "prop"
    [
      ( "kernels",
        [
          Alcotest.test_case "into vs allocating" `Quick test_into_kernels;
          Alcotest.test_case "pooled matvec bits" `Quick test_pooled_matvec;
        ] );
      ( "operators",
        [
          Alcotest.test_case "adjoint" `Quick test_op_adjoint;
          Alcotest.test_case "normal equations" `Quick test_op_normal;
          Alcotest.test_case "workspace sparse ops" `Quick
            test_workspace_sparse_ops;
        ] );
      ( "projections",
        [ Alcotest.test_case "simplex" `Quick test_simplex ] );
      ( "kruithof",
        [
          Alcotest.test_case "marginal preservation" `Quick
            test_kruithof_marginals;
        ] );
    ]
