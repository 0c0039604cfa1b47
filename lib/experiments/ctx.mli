(** Shared experiment context: the two datasets plus cached derived
    artifacts (priors, worst-case bounds, busy-window load matrices)
    that several experiments reuse. *)

type network = {
  label : string;
  dataset : Tmest_traffic.Dataset.t;
  workspace : Tmest_core.Workspace.t;
      (** shared solver workspace for this network's routing context:
          every experiment and every 5-minute snapshot reuses its cached
          Gram/Lipschitz/prior artifacts *)
  snapshot_k : int;  (** the busy-period snapshot the paper-style
                         single-measurement evaluations use *)
  truth : Tmest_linalg.Vec.t;  (** demand vector at [snapshot_k] *)
  loads : Tmest_linalg.Vec.t;  (** [R s] at [snapshot_k] *)
  gravity_prior : Tmest_linalg.Vec.t Tmest_parallel.Pool.Once.t;
      (** one-shot memos rather than [Lazy.t]: experiments running
          concurrently on the pool may force these from any domain *)
  wcb : Tmest_core.Wcb.bounds Tmest_parallel.Pool.Once.t;
  wcb_prior : Tmest_linalg.Vec.t Tmest_parallel.Pool.Once.t;
}

type t = {
  europe : network;
  america : network;
  pool : Tmest_parallel.Pool.t;
      (** domain pool shared by both workspaces, window scans and the
          experiment registry *)
  fast : bool;  (** shrink sweeps for quick runs (tests) *)
  sink : Tmest_obs.Obs.sink;
      (** trace sink installed at {!create}; the null sink unless the
          driver passed [--trace] *)
  scale_pops : int list option;
      (** override of the scaling experiment's PoP-count sweep
          (CLI [--pops]); [None] leaves each experiment's default *)
  scale_seed : int option;
      (** override of the synthetic-network seed (CLI [--seed]) *)
}

(** [create ?fast ?jobs ?sink ()] builds the paper-scale context
    ([fast = false], default) or a reduced one on small networks with
    shorter sweeps ([fast = true]).  [jobs] sizes a dedicated domain
    pool (default: the shared {!Tmest_parallel.Pool.default}); the two
    networks are generated and wrapped concurrently on it.  [sink],
    when given, is installed on the pool and both workspaces, so every
    solver, cache and chunk in the whole run traces to it.
    [scale_pops] / [scale_seed] override the scaling experiments'
    synthetic-network sweep. *)
val create :
  ?fast:bool ->
  ?jobs:int ->
  ?sink:Tmest_obs.Obs.sink ->
  ?scale_pops:int list ->
  ?scale_seed:int ->
  unit ->
  t

(** [pool t] is the context's domain pool. *)
val pool : t -> Tmest_parallel.Pool.t

(** [sink t] is the trace sink installed at {!create}. *)
val sink : t -> Tmest_obs.Obs.sink

(** [networks t] is [[europe; america]] (evaluation order used in all
    two-network tables). *)
val networks : t -> network list

(** [synthetic t ~pops] builds a [pops]-PoP scale-study network
    ({!Tmest_traffic.Dataset.synthetic}) on the context's pool and sink.
    Not cached and not part of {!networks}: the paper experiments stay
    two-network, scale studies request the sizes they need.  Above the
    workspace sparse gate the returned network's workspace runs
    matrix-free (and its [wcb] memo raises if forced — the LP bounds are
    a dense-only method). *)
val synthetic : ?seed:int -> t -> pops:int -> network

(** [busy_mean net] is the busy-period mean demand (reference for
    time-series methods). *)
val busy_mean : network -> Tmest_linalg.Vec.t

(** The unified windowed-scan API: every sliding-window estimation run
    — busy-period scan, day replay, caller-supplied measurement series,
    and (through {!Scan.Series}) the streaming daemon's incremental
    loop — goes through one engine configured by a single record.

    This replaces the former [scan_busy] / [busy_loads] / [replay]
    trio; the migrated paths are bit-identical to the old entry points
    (pinned by a golden test). *)
module Scan : sig
  (** Where the measurement windows come from. *)
  type source =
    | Busy of { window : int; steps : int }
        (** slide a [window]-sample measurement window over the last
            [steps] busy-period snapshots of the network's dataset *)
    | Replay of { window : int; windows : int }
        (** production-shaped day replay: [windows] successive
            re-estimations (the paper's every-5-minutes loop — 288
            intervals per day), cycling over the dataset's full
            measurement day when the replay is longer than the recorded
            series *)
    | Windows of { window : int; loads : Tmest_linalg.Vec.t array }
        (** slide over a caller-supplied series of per-snapshot load
            vectors (oldest first) — one step per window position; used
            to re-run a recorded stream as a batch scan *)

  (** The scan configuration: one record carrying the window source,
      the per-solve estimator options, an optional warm-chain tag (a
      shorthand for [Options.with_warm_tag] — chunk tags nest under
      it), an optional pool override (default: the workspace's pool; a
      1-slot pool forces the sequential in-order path), and an optional
      per-window callback.  [on_window] fires after each window's solve
      with the step index, snapshot label and estimate; on a
      multi-domain pool it is called from worker domains (chunks run
      concurrently), so the callback must be thread-safe. *)
  type t = {
    source : source;
    opts : Tmest_core.Estimator.Options.t;
    tag : string option;
    pool : Tmest_parallel.Pool.t option;
    on_window : (step:int -> snapshot:int -> Tmest_linalg.Vec.t -> unit) option;
  }

  val make :
    ?opts:Tmest_core.Estimator.Options.t ->
    ?tag:string ->
    ?pool:Tmest_parallel.Pool.t ->
    ?on_window:(step:int -> snapshot:int -> Tmest_linalg.Vec.t -> unit) ->
    source ->
    t

  (** [samples net ~window] is {!Tmest_traffic.Dataset.busy_load_samples}
      of the network's dataset (the batch counterpart of a {!source}'s
      window assembly, for callers that feed [Estimator.solve]
      directly). *)
  val samples : network -> window:int -> Tmest_linalg.Mat.t

  (** [run net est t] executes the scan: snapshot methods see each
      window-end load vector, time-series methods the whole window.
      With [opts.warm] set, each solve starts from the previous
      position's solution through the workspace warm-start cache; with
      an enabled sink (either [opts.sink] or the workspace's), each
      window solve is wrapped in a [scan.window] ([replay.window] for
      {!Replay}) span.  Returns [(snapshot label, estimate)] in scan
      order.

      On a multi-domain pool the scan splits into one contiguous chunk
      of positions per pool slot; warm chains then run per chunk (the
      chunk index is appended to the warm tag), so results are a
      function of the job count and step count only — never of
      scheduling — and match the sequential scan within the solver
      tolerance.  Cold scans ([warm:false]) are bit-identical to the
      sequential scan at every pool size. *)
  val run :
    network ->
    Tmest_core.Estimator.t ->
    t ->
    (int * Tmest_linalg.Vec.t) list

  (** Incremental push-one-estimate-one engine for streaming consumers
      (the daemon): a ring buffer of the last [window] load rows,
      assembled oldest-first into a workspace scratch matrix on each
      {!estimate}.  At full fill the assembled samples matrix is
      bit-identical to what a batch {!run} over the same rows builds,
      so a sequential warm tick stream matches a sequential warm batch
      scan bit for bit. *)
  module Series : sig
    type t

    (** [create ?name ws ~window ~links] — [name] keys the scratch
        arena, so two series on one workspace should use distinct
        names. *)
    val create :
      ?name:string -> Tmest_core.Workspace.t -> window:int -> links:int -> t

    (** [push t v] appends a load row (copied), evicting the oldest
        once [window] rows are held. *)
    val push : t -> Tmest_linalg.Vec.t -> unit

    (** [fill t] is the number of rows currently held (≤ window). *)
    val fill : t -> int

    (** [total t] is the lifetime push count, across {!clear}s. *)
    val total : t -> int

    val window : t -> int

    (** [clear t] empties the window (a routing change invalidated the
        held rows); {!total} keeps counting. *)
    val clear : t -> unit

    (** [latest t] is a copy of the newest row.
        @raise Invalid_argument when empty. *)
    val latest : t -> Tmest_linalg.Vec.t

    (** [estimate ?opts t est] solves on the current window: loads =
        newest row, samples = held rows oldest-first (at fill 1 the
        single row is duplicated — time-series methods need two).
        @raise Invalid_argument when empty. *)
    val estimate :
      ?opts:Tmest_core.Estimator.Options.t ->
      t ->
      Tmest_core.Estimator.t ->
      Tmest_linalg.Vec.t
  end
end
