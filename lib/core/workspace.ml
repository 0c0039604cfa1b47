module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Csr = Tmest_linalg.Csr
module Chol = Tmest_linalg.Chol
module Eigen = Tmest_linalg.Eigen
module Op = Tmest_linalg.Op
module Fista = Tmest_opt.Fista
module Routing = Tmest_net.Routing
module Topology = Tmest_net.Topology
module Pool = Tmest_parallel.Pool
module Obs = Tmest_obs.Obs

type prior_kind = Prior_gravity | Prior_wcb | Prior_uniform

type mode = Auto | Dense | Sparse

(* Preconditioner policy, resolved per workspace.  [Precond_auto] picks
   Jacobi in sparse mode — where iteration counts dominate wall-clock
   and the exact Gram diagonal is one O(nnz) pass — and none in dense
   mode, which is what the dense golden pins were taken with. *)
type precond_kind = Precond_auto | Precond_jacobi | Precond_none

(* Above this many OD pairs the dense artifacts (Gram, R, Cholesky,
   eigen) become the memory bottleneck — a 10⁴-pair Gram is ~1 GB — so
   [Auto] switches the workspace to matrix-free operators.  The paper
   networks (132 and 600 pairs) stay far below the gate, so the dense
   fast paths that remain (Cao, Fanout, Degrade) keep their goldens. *)
let sparse_gate = 2048

(* Internal mutable counters; snapshots exposed as immutable records.
   All mutation happens under the workspace lock, so hit/miss totals
   stay exact even when several domains solve concurrently. *)
type c = { mutable h : int; mutable m : int; mutable s : float }

let c_zero () = { h = 0; m = 0; s = 0. }

type counters = {
  c_gram : c;
  c_chol : c;
  c_eigen : c;
  c_transpose : c;
  c_dense : c;
  c_op : c;
  c_lipschitz : c;
  c_prior : c;
  c_solve : c;
  c_warm : c;
  c_precond : c;
}

(* The load-keyed prior cache is a bounded MRU list: snapshot sweeps
   reuse the same few load vectors and hit; long scans (e.g. the greedy
   combined-method search, which solves against thousands of distinct
   right-hand sides) cannot grow the workspace without bound. *)
let max_keyed = 8

(* Prior slots carry an explicit "being computed" state because the
   computation closure ([Estimator.build_prior_ws]) re-enters the
   workspace — the WCB prior calls [dense] and [total_traffic] — so it
   must run outside the lock; concurrent requests for the same
   [(kind, loads)] wait on [filled] instead of recomputing, which keeps
   the miss count at exactly one per materialized prior. *)
type prior_slot = {
  p_kind : prior_kind;
  p_loads : Vec.t;
  mutable p_value : Vec.t option;
}

type t = {
  mutable sink : Obs.sink;
      (* trace destination for everything solved against this routing
         context; [Obs.null] keeps every probe to a single branch *)
  routing : Routing.t;
  sparse : bool;
  ingress : int array;
  egress : int array;
  lock : Mutex.t;
  filled : Condition.t;
  mutable pool : Pool.t option;
  mutable gram : Mat.t option;
  mutable gram_sq : Mat.t option;
  mutable chol : Chol.t option;
  mutable eigen : Eigen.t option;
  mutable transpose : Csr.t option;
  mutable dense : Mat.t option;
  mutable zfac : Csr.t option;
      (* sparse mode: Z with ZᵀZ = (RᵀR)∘(RᵀR), see [z_factor] *)
  lipschitz_tbl : (string, float) Hashtbl.t;
      (* every spectral-norm estimate, [op_norm]/[gram_norm] included *)
  op_tbl : (string * int, Op.t) Hashtbl.t;
      (* operator values keyed by (name, domain): the normal-equations
         operators own link buffers, so each domain gets private
         closures *)
  mutable priors : prior_slot list;  (* MRU *)
  scratch_tbl : (string * int * int, Vec.t array) Hashtbl.t;
      (* keyed by (consumer, dim, domain): each domain owns its arena *)
  scratch_mat_tbl : (string * int * int * int, Mat.t) Hashtbl.t;
      (* matrix arenas keyed by (consumer, rows, cols, domain): the
         window-scan samples buffers, one per scanning domain *)
  mutable warm : (string * Vec.t) list;  (* MRU *)
  mutable gdiag : Vec.t option;  (* exact diag(RᵀR) *)
  precond_tbl : (string, Vec.t) Hashtbl.t;
      (* memoized preconditioner diagonals, keyed by a method-built
         string with parameters %h-encoded; values are shared read-only
         so one entry serves every domain *)
  mutable last_iters : (string * int) list;  (* MRU, per method name *)
  counters : counters;
  mutable solve_words : float;  (* cumulative allocation over solves *)
  mutable peak_words : float;  (* largest single-solve allocation *)
  mutable heap_words : float;  (* top-of-heap watermark after a solve *)
}

let create ?pool ?(sink = Obs.null) ?(mode = Auto) routing =
  let n = Topology.num_nodes routing.Routing.topo in
  let sparse =
    match mode with
    | Dense -> false
    | Sparse -> true
    | Auto -> Routing.num_pairs routing > sparse_gate
  in
  {
    sink;
    routing;
    sparse;
    ingress = Array.init n (fun i -> Routing.ingress_row routing i);
    egress = Array.init n (fun i -> Routing.egress_row routing i);
    lock = Mutex.create ();
    filled = Condition.create ();
    pool;
    gram = None;
    gram_sq = None;
    chol = None;
    eigen = None;
    transpose = None;
    dense = None;
    zfac = None;
    lipschitz_tbl = Hashtbl.create 7;
    op_tbl = Hashtbl.create 7;
    priors = [];
    scratch_tbl = Hashtbl.create 7;
    scratch_mat_tbl = Hashtbl.create 7;
    warm = [];
    gdiag = None;
    precond_tbl = Hashtbl.create 7;
    last_iters = [];
    counters =
      {
        c_gram = c_zero ();
        c_chol = c_zero ();
        c_eigen = c_zero ();
        c_transpose = c_zero ();
        c_dense = c_zero ();
        c_op = c_zero ();
        c_lipschitz = c_zero ();
        c_prior = c_zero ();
        c_solve = c_zero ();
        c_warm = c_zero ();
        c_precond = c_zero ();
      };
    solve_words = 0.;
    peak_words = 0.;
    heap_words = 0.;
  }

let routing t = t.routing
let is_sparse t = t.sparse

let resolve_precond t = function
  | Precond_auto -> if t.sparse then Precond_jacobi else Precond_none
  | k -> k
let sink t = t.sink

(* Every estimation method resolves its caller-supplied stopping policy
   the same way: its own defaults fill unset limits, the workspace sink
   backs an unset sink, and the method's name becomes the trace label
   unless the caller already attached one (e.g. a per-chunk tag). *)
let solver_stop t stop ~label ~max_iter ~tol =
  let module Stop = Tmest_opt.Stop in
  let sink =
    if Obs.is_null stop.Stop.sink then t.sink else stop.Stop.sink
  in
  Stop.make
    ~max_iter:(Stop.max_iter stop ~default:max_iter)
    ~tol:(Stop.tol stop ~default:tol)
    ~sink
    ~label:(Stop.label stop ~default:label) ()
let num_links t = Routing.num_links t.routing
let num_pairs t = Routing.num_pairs t.routing
let ingress_rows t = t.ingress
let egress_rows t = t.egress
let pool t = t.pool
let set_pool t p = t.pool <- p

(* Wall-clock seconds through the shared trace clock (drivers point it
   at [Unix.gettimeofday]); CPU time would sum over every domain and
   over-count concurrent work. *)
let timed c compute =
  let t0 = Obs.Clock.now_ns () in
  let v = compute () in
  c.s <- c.s +. Obs.Clock.seconds_since t0;
  v

(* Artifact memos hold the lock across the computation: the closures
   below are pure in the workspace (they read [t.routing] or an
   already-forced artifact), so holding the lock cannot deadlock, and
   it guarantees each artifact is computed once with exact counters —
   a concurrent second caller blocks, then hits. *)
(* Cumulative hit/miss totals go to the trace as counter samples, so a
   timeline shows cache effectiveness evolving, not just the final
   score.  Emission happens under the workspace lock; the recorder has
   its own independent mutex and never calls back in, so the order is
   safe. *)
let sample t name c =
  if t.sink.Obs.enabled then begin
    Obs.counter t.sink ("ws." ^ name ^ ".hits") (float_of_int c.h);
    Obs.counter t.sink ("ws." ^ name ^ ".misses") (float_of_int c.m)
  end

let memo ~name c get set compute t =
  Mutex.protect t.lock (fun () ->
      match get t with
      | Some v ->
          c.h <- c.h + 1;
          sample t name c;
          v
      | None ->
          c.m <- c.m + 1;
          sample t name c;
          let v =
            Obs.span t.sink ("ws." ^ name) (fun () -> timed c compute)
          in
          set t (Some v);
          v)

(* Dense artifacts are refused outright in sparse mode: silently
   materializing a 10⁴x10⁴ matrix would defeat the point of the mode,
   and a loud error names the matrix-free replacement. *)
let dense_only t ~name ~hint =
  if t.sparse then
    invalid_arg
      (Printf.sprintf
         "Workspace.%s: sparse mode (%d OD pairs > gate %d) never \
          materializes this artifact; use %s"
         name (num_pairs t) sparse_gate hint)

let gram t =
  dense_only t ~name:"gram" ~hint:"Workspace.normal_op";
  memo ~name:"gram" t.counters.c_gram
    (fun t -> t.gram)
    (fun t v -> t.gram <- v)
    (fun () -> Csr.gram t.routing.Routing.matrix)
    t

let gram_sq t =
  dense_only t ~name:"gram_sq" ~hint:"Workspace.gram_sq_op";
  let g = gram t in
  memo ~name:"gram" t.counters.c_gram
    (fun t -> t.gram_sq)
    (fun t v -> t.gram_sq <- v)
    (fun () ->
      let p = Mat.rows g in
      Mat.init p p (fun i j ->
          let x = Mat.unsafe_get g i j in
          x *. x))
    t

let gram_chol t =
  dense_only t ~name:"gram_chol"
    ~hint:"Tmest_opt.Cg over Workspace.normal_op";
  let g = gram t in
  memo ~name:"chol" t.counters.c_chol
    (fun t -> t.chol)
    (fun t v -> t.chol <- v)
    (fun () -> Chol.factor_regularized g)
    t

let gram_eigen t =
  dense_only t ~name:"gram_eigen" ~hint:"Workspace.op_norm";
  let g = gram t in
  memo ~name:"eigen" t.counters.c_eigen
    (fun t -> t.eigen)
    (fun t v -> t.eigen <- v)
    (fun () -> Eigen.symmetric g)
    t

let transpose t =
  memo ~name:"transpose" t.counters.c_transpose
    (fun t -> t.transpose)
    (fun t v -> t.transpose <- v)
    (fun () -> Csr.transpose t.routing.Routing.matrix)
    t

let dense t =
  dense_only t ~name:"dense" ~hint:"Workspace.op";
  memo ~name:"dense" t.counters.c_dense
    (fun t -> t.dense)
    (fun t v -> t.dense <- v)
    (fun () -> Routing.dense t.routing)
    t

let cached_lipschitz t ~key ~compute =
  memo ~name:"lipschitz" t.counters.c_lipschitz
    (fun t -> Hashtbl.find_opt t.lipschitz_tbl key)
    (fun t v -> Option.iter (Hashtbl.replace t.lipschitz_tbl key) v)
    compute t

let op_norm t =
  cached_lipschitz t ~key:"op_norm" ~compute:(fun () ->
      let r = t.routing.Routing.matrix in
      Fista.lipschitz_of_op ~dim:(num_pairs t) (fun v ->
          Csr.tmatvec r (Csr.matvec r v)))

let gram_norm t =
  dense_only t ~name:"gram_norm" ~hint:"Workspace.op_norm";
  (* Forced first: [cached_lipschitz] computes under the workspace lock,
     which is not reentrant. *)
  let g = gram t in
  cached_lipschitz t ~key:"gram_norm" ~compute:(fun () ->
      Fista.lipschitz_of_gram g)

(* ------------------------------------------------------------------ *)
(* Matrix-free operator artifacts                                      *)
(* ------------------------------------------------------------------ *)

(* Operators are cached per (name, domain) because the normal-equations
   operators own link-space buffers (see the single-caller note in
   {!Tmest_linalg.Op}); handing every domain its private closures keeps
   concurrent solves race-free, mirroring the scratch arenas below.  The builders must
   not re-enter the workspace — expensive inputs (transpose, Z factor)
   are forced through their own memos first. *)
let op_cached t ~name ~build =
  let key = (name, (Domain.self () :> int)) in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.op_tbl key with
      | Some v ->
          t.counters.c_op.h <- t.counters.c_op.h + 1;
          sample t "op" t.counters.c_op;
          v
      | None ->
          t.counters.c_op.m <- t.counters.c_op.m + 1;
          sample t "op" t.counters.c_op;
          let v = timed t.counters.c_op build in
          Hashtbl.replace t.op_tbl key v;
          v)

(* R itself.  The closures read [t.pool] at application time so that
   [set_pool] sweeps (bench drivers) apply to already-cached operators. *)
let op t =
  op_cached t ~name:"op" ~build:(fun () ->
      let r = t.routing.Routing.matrix in
      Op.make ~rows:(Csr.rows r) ~cols:(Csr.cols r)
        ~apply_into:(fun x ~dst -> Csr.matvec_into ?pool:t.pool r x ~dst)
        ~apply_t_into:(fun y ~dst -> Csr.tmatvec_into r y ~dst))

(* RᵀR as x ↦ Rᵀ(Rx): the matrix-free replacement for {!gram}.  Built
   on the fused [Csr.normal_apply_into] — one kernel call per solver
   iteration through a per-domain link buffer, bit-identical to a
   matvec followed by a tmatvec.  [t.pool] is read at application time
   so [set_pool] sweeps apply to cached operators. *)
let normal_op t =
  op_cached t ~name:"normal" ~build:(fun () ->
      let r = t.routing.Routing.matrix in
      let link = Vec.zeros (Csr.rows r) in
      let apply x ~dst =
        Csr.normal_apply_into ?pool:t.pool r x ~link ~dst
      in
      Op.make ~rows:(Csr.cols r) ~cols:(Csr.cols r) ~apply_into:apply
        ~apply_t_into:apply)

(* The entry-wise squared Gram (RᵀR)∘(RᵀR) factored as ZᵀZ without ever
   forming the p x p matrix: G∘G has entries (Σ_l R_li R_lj)² =
   Σ_{l,l'} (R_li R_l'i)(R_lj R_l'j), so Z has one row per *used*
   ordered link pair (l,l') — a pair is used when some OD path crosses
   both links — with Z_((l,l'),i) = R_li · R_l'i.  nnz(Z) = Σ_i h_i²
   (squared path length per OD pair), far below the L² worst case. *)
let build_z rt =
  let p = Csr.rows rt in
  let pair_id = Hashtbl.create 1024 in
  let next = ref 0 in
  let triplets = ref [] in
  for i = 0 to p - 1 do
    let support = Csr.row_nonzeros rt i in
    List.iter
      (fun (l, vl) ->
        List.iter
          (fun (l', vl') ->
            let row =
              match Hashtbl.find_opt pair_id (l, l') with
              | Some r -> r
              | None ->
                  let r = !next in
                  incr next;
                  Hashtbl.add pair_id (l, l') r;
                  r
            in
            triplets := (row, i, vl *. vl') :: !triplets)
          support)
      support
  done;
  Csr.of_triplets ~rows:!next ~cols:p !triplets

let z_factor t =
  let rt = transpose t in
  memo ~name:"op" t.counters.c_op
    (fun t -> t.zfac)
    (fun t v -> t.zfac <- v)
    (fun () -> build_z rt)
    t

let gram_sq_op t =
  let z = z_factor t in
  op_cached t ~name:"gram_sq" ~build:(fun () ->
      let link = Vec.zeros (Csr.rows z) in
      let apply x ~dst =
        Csr.normal_apply_into ?pool:t.pool z x ~link ~dst
      in
      Op.make ~rows:(Csr.cols z) ~cols:(Csr.cols z) ~apply_into:apply
        ~apply_t_into:apply)

(* Uncached spectral-norm estimates: the computation belongs to the
   caller (per-window matrices, stacked operators) and must not run
   under the lock — only the accounting does. *)
let lipschitz_of_op t ~dim apply =
  let t0 = Obs.Clock.now_ns () in
  let v = Fista.lipschitz_of_op ~dim apply in
  let dt = Obs.Clock.seconds_since t0 in
  Mutex.protect t.lock (fun () ->
      t.counters.c_lipschitz.m <- t.counters.c_lipschitz.m + 1;
      t.counters.c_lipschitz.s <- t.counters.c_lipschitz.s +. dt;
      sample t "lipschitz" t.counters.c_lipschitz);
  v

(* ------------------------------------------------------------------ *)
(* Preconditioners                                                     *)
(* ------------------------------------------------------------------ *)

let take_mru n l = List.filteri (fun i _ -> i < n) l

(* Exact diagonal of RᵀR — one O(nnz) pass over the routing matrix
   (Csr.col_sq_norms), never a stochastic estimate.  Works in both
   modes; the building block of every Jacobi preconditioner. *)
let gram_diag t =
  memo ~name:"precond" t.counters.c_precond
    (fun t -> t.gdiag)
    (fun t v -> t.gdiag <- v)
    (fun () -> Csr.col_sq_norms t.routing.Routing.matrix)
    t

(* Method-specific preconditioner diagonals (e.g. the inverse curvature
   diagonal 1/(2g_i + 2w)), memoized per key with parameters %h-encoded
   by the caller.  Values are read-only and shared across domains.  The
   compute closure may re-enter the workspace (gram_diag), so it runs
   outside the lock; a rare double compute costs one O(p) pass and both
   results are identical. *)
let precond_vec t ~key ~compute =
  let cached =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.precond_tbl key with
        | Some v ->
            t.counters.c_precond.h <- t.counters.c_precond.h + 1;
            sample t "precond" t.counters.c_precond;
            Some v
        | None ->
            t.counters.c_precond.m <- t.counters.c_precond.m + 1;
            sample t "precond" t.counters.c_precond;
            None)
  in
  match cached with
  | Some v -> v
  | None ->
      let t0 = Obs.Clock.now_ns () in
      let v = compute () in
      let dt = Obs.Clock.seconds_since t0 in
      Mutex.protect t.lock (fun () ->
          t.counters.c_precond.s <- t.counters.c_precond.s +. dt;
          match Hashtbl.find_opt t.precond_tbl key with
          | Some v' -> v'
          | None ->
              Hashtbl.replace t.precond_tbl key v;
              v)

(* Per-method iteration counts from the most recent solve: noted by
   [Estimator.solve], read by the benchmark emitters.  Also streamed as
   a [solve.<name>.iterations] counter when tracing is enabled (the
   count is deterministic, so this keeps one-job trace determinism). *)
let note_iterations t ~name ~iterations =
  Mutex.protect t.lock (fun () ->
      t.last_iters <-
        take_mru max_keyed
          ((name, iterations)
          :: List.filter (fun (k, _) -> not (String.equal k name)) t.last_iters);
      if t.sink.Obs.enabled then
        Obs.counter t.sink
          ("solve." ^ name ^ ".iterations")
          (float_of_int iterations))

let last_iterations t ~name =
  Mutex.protect t.lock (fun () -> List.assoc_opt name t.last_iters)

let same_loads a b = a == b || Vec.equal ~eps:0. a b

(* Uncached: every scan window brings new loads, so a load-keyed cache
   would only add a comparison against each stored vector per miss. *)
let total_traffic t ~loads =
  if Array.length loads <> num_links t then
    invalid_arg "Workspace.total_traffic: load vector dimension mismatch";
  let acc = ref 0. in
  Array.iter (fun row -> acc := !acc +. loads.(row)) t.ingress;
  !acc

let find_prior_slot t ~kind ~loads =
  List.find_opt
    (fun s -> s.p_kind = kind && same_loads s.p_loads loads)
    t.priors

let cached_prior t ~kind ~loads ~compute =
  Mutex.lock t.lock;
  match find_prior_slot t ~kind ~loads with
  | Some slot ->
      t.counters.c_prior.h <- t.counters.c_prior.h + 1;
      sample t "prior" t.counters.c_prior;
      t.priors <- slot :: List.filter (fun s -> s != slot) t.priors;
      (* Another domain may still be materializing this slot; waiting
         counts as a hit — the value is computed exactly once.  The
         computing domain keeps a direct reference, so the slot fills
         even if the MRU bound evicts it from the list meanwhile. *)
      let rec await () =
        match slot.p_value with
        | Some v -> v
        | None ->
            Condition.wait t.filled t.lock;
            await ()
      in
      let v = await () in
      Mutex.unlock t.lock;
      v
  | None ->
      t.counters.c_prior.m <- t.counters.c_prior.m + 1;
      sample t "prior" t.counters.c_prior;
      let slot = { p_kind = kind; p_loads = loads; p_value = None } in
      t.priors <- take_mru max_keyed (slot :: t.priors);
      Mutex.unlock t.lock;
      (* Outside the lock: prior closures re-enter the workspace (the
         WCB prior reads [dense] and [total_traffic]). *)
      let kind_tag =
        match kind with
        | Prior_gravity -> "gravity"
        | Prior_wcb -> "wcb"
        | Prior_uniform -> "uniform"
      in
      if t.sink.Obs.enabled then
        Obs.span_begin t.sink "ws.prior"
          ~args:[ ("kind", Obs.String kind_tag) ];
      let t0 = Obs.Clock.now_ns () in
      let v = compute () in
      let dt = Obs.Clock.seconds_since t0 in
      if t.sink.Obs.enabled then Obs.span_end t.sink "ws.prior";
      Mutex.protect t.lock (fun () ->
          t.counters.c_prior.s <- t.counters.c_prior.s +. dt;
          slot.p_value <- Some v;
          Condition.broadcast t.filled);
      v

(* ------------------------------------------------------------------ *)
(* Scratch-buffer pool and warm-start cache                            *)
(* ------------------------------------------------------------------ *)

(* Scratch pools are keyed by (consumer name, dimension, domain) so
   solvers with the same problem size against this routing context
   share one set of work vectors across an entire window scan, while
   concurrent solves on different domains each own a private arena and
   never scribble on each other's iterates.  Buffers are handed out as
   uninitialized storage — consumers must not assume contents survive
   between uses. *)
let scratch t ~name ~dim ~count =
  let key = (name, dim, (Domain.self () :> int)) in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.scratch_tbl key with
      | Some bufs when Array.length bufs >= count -> bufs
      | existing ->
          let have = match existing with Some b -> b | None -> [||] in
          let bufs =
            Array.init count (fun i ->
                if i < Array.length have then have.(i) else Vec.zeros dim)
          in
          Hashtbl.replace t.scratch_tbl key bufs;
          if t.sink.Obs.enabled then begin
            Obs.counter t.sink "ws.scratch.arenas"
              (float_of_int (Hashtbl.length t.scratch_tbl));
            Obs.counter t.sink "ws.scratch.vectors"
              (float_of_int
                 (Hashtbl.fold
                    (fun _ b acc -> acc + Array.length b)
                    t.scratch_tbl 0))
          end;
          bufs)

(* Matrix arena with the same per-domain keying as [scratch]: window
   scans fill one samples matrix per scanning domain instead of
   allocating a window x L matrix per window position.  Contents are
   uninitialized storage between uses, like the vector arenas. *)
let scratch_mat t ~name ~rows ~cols =
  let key = (name, rows, cols, (Domain.self () :> int)) in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.scratch_mat_tbl key with
      | Some m -> m
      | None ->
          let m = Mat.zeros rows cols in
          Hashtbl.replace t.scratch_mat_tbl key m;
          if t.sink.Obs.enabled then
            Obs.counter t.sink "ws.scratch.matrices"
              (float_of_int (Hashtbl.length t.scratch_mat_tbl));
          m)

(* Warm starts are bounded MRU like the other load-keyed caches: a
   window scan re-solves one (method, parameters) pair against slowly
   drifting loads, so the previous window's solution is an excellent
   starting point; unrelated keys evict the oldest entry.  Parallel
   scans append a per-chunk tag to the key (see [Ctx.scan_busy]), so
   each chunk chains through its own isolated entry. *)
let warm_start t ~key ~dim =
  Mutex.protect t.lock (fun () ->
      match List.find_opt (fun (k, _) -> String.equal k key) t.warm with
      | Some ((_, v) as entry) when Vec.dim v = dim ->
          t.counters.c_warm.h <- t.counters.c_warm.h + 1;
          sample t "warm" t.counters.c_warm;
          t.warm <-
            entry
            :: List.filter (fun (k', _) -> not (String.equal k' key)) t.warm;
          Some v
      | _ ->
          t.counters.c_warm.m <- t.counters.c_warm.m + 1;
          sample t "warm" t.counters.c_warm;
          None)

let store_warm_start t ~key v =
  (* Copy: the caller's estimate escapes to user code that may mutate
     it, while cache entries must stay frozen. *)
  let v = Vec.copy v in
  Mutex.protect t.lock (fun () ->
      t.warm <-
        take_mru max_keyed
          ((key, v)
          :: List.filter (fun (k', _) -> not (String.equal k' key)) t.warm))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

type counter = { hits : int; misses : int; seconds : float }

type stats = {
  gram : counter;
  chol : counter;
  eigen : counter;
  transpose : counter;
  dense : counter;
  op : counter;
  lipschitz : counter;
  prior : counter;
  solve : counter;
  warm : counter;
  precond : counter;
  solve_words : float;
  peak_solve_words : float;
  heap_words : float;
}

let snap c = { hits = c.h; misses = c.m; seconds = c.s }

let stats t =
  Mutex.protect t.lock (fun () ->
      let c = t.counters in
      {
        gram = snap c.c_gram;
        chol = snap c.c_chol;
        eigen = snap c.c_eigen;
        transpose = snap c.c_transpose;
        dense = snap c.c_dense;
        op = snap c.c_op;
        lipschitz = snap c.c_lipschitz;
        prior = snap c.c_prior;
        solve = snap c.c_solve;
        warm = snap c.c_warm;
        precond = snap c.c_precond;
        solve_words = t.solve_words;
        peak_solve_words = t.peak_words;
        heap_words = t.heap_words;
      })

let reset_stats t =
  Mutex.protect t.lock (fun () ->
      let z c =
        c.h <- 0;
        c.m <- 0;
        c.s <- 0.
      in
      let c = t.counters in
      z c.c_gram;
      z c.c_chol;
      z c.c_eigen;
      z c.c_transpose;
      z c.c_dense;
      z c.c_op;
      z c.c_lipschitz;
      z c.c_prior;
      z c.c_solve;
      z c.c_warm;
      z c.c_precond;
      t.solve_words <- 0.;
      t.peak_words <- 0.;
      t.heap_words <- 0.)

let record_solve t ~seconds ~words =
  (* Two complementary figures: [words] is the solve's cumulative
     allocation (minor + major churn, large for iterative methods), the
     heap watermark is the dense-matrix witness — a p x p Gram must
     *live* on the heap, so sparse-mode solves keep the watermark far
     below p^2 words however much they churn. *)
  let heap = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
  Mutex.protect t.lock (fun () ->
      t.counters.c_solve.m <- t.counters.c_solve.m + 1;
      t.counters.c_solve.s <- t.counters.c_solve.s +. seconds;
      t.solve_words <- t.solve_words +. words;
      if words > t.peak_words then t.peak_words <- words;
      if heap > t.heap_words then t.heap_words <- heap;
      if t.sink.Obs.enabled then
        (* Only the solve count is traced.  The heap watermark is
           process-global and monotone, and the per-solve allocation
           delta depends on process history (a first solve pays one-time
           lazy-initialization allocations that a repeat does not), so
           tracing either would make two identical runs record different
           values and break the one-job trace-determinism invariant.
           Both remain visible through [stats]. *)
        Obs.counter t.sink "ws.solves" (float_of_int t.counters.c_solve.m))

let stats_rows s =
  [
    ("gram", s.gram.hits, s.gram.misses, s.gram.seconds);
    ("chol", s.chol.hits, s.chol.misses, s.chol.seconds);
    ("eigen", s.eigen.hits, s.eigen.misses, s.eigen.seconds);
    ("transpose", s.transpose.hits, s.transpose.misses, s.transpose.seconds);
    ("dense", s.dense.hits, s.dense.misses, s.dense.seconds);
    ("op", s.op.hits, s.op.misses, s.op.seconds);
    ("lipschitz", s.lipschitz.hits, s.lipschitz.misses, s.lipschitz.seconds);
    ("prior", s.prior.hits, s.prior.misses, s.prior.seconds);
    ("solve", s.solve.hits, s.solve.misses, s.solve.seconds);
    ("warm", s.warm.hits, s.warm.misses, s.warm.seconds);
    ("precond", s.precond.hits, s.precond.misses, s.precond.seconds);
  ]

let pp_stats ppf s =
  let pp_row first (name, hits, misses, seconds) =
    if hits + misses > 0 then begin
      if not first then Format.fprintf ppf "  ";
      if name = "solve" then
        Format.fprintf ppf "%s %d runs (%.3fs)" name misses seconds
      else
        Format.fprintf ppf "%s %d hit%s/%d miss%s (%.3fs)" name hits
          (if hits = 1 then "" else "s")
          misses
          (if misses = 1 then "" else "es")
          seconds
    end
  in
  let rec go first = function
    | [] -> ()
    | ((_, h, m, _) as row) :: rest ->
        pp_row first row;
        go (first && h + m = 0) rest
  in
  go true (stats_rows s);
  if s.peak_solve_words > 0. then
    Format.fprintf ppf "  peak %.2e words/solve" s.peak_solve_words
