(** Fixed-size domain pool for fan-out parallelism.

    The evaluation pipeline is embarrassingly parallel — independent
    5-minute snapshots, independent estimation methods, independent
    networks, row-partitioned matrix products — and this module spreads
    that work across OCaml 5 domains using only the stdlib
    ([Domain]/[Atomic]/[Mutex]/[Condition]; no domainslib).

    Determinism contract:
    + {!parallel_for} and {!map} must only be used for tasks whose
      results are independent of execution order (each task writes its
      own slot); their results are then identical at every pool size.
    + {!reduce} always combines per-chunk partial results in chunk-index
      order, and the chunk layout depends only on the input length —
      never on the pool size or on scheduling — so for a deterministic
      [f] its result is bit-identical at every pool size, including the
      sequential one.
    + {!iter_chunks} exposes the chunk index so callers that thread
      state through a chunk (warm-start chains) can key that state by
      chunk, keeping results scheduling-independent at a fixed [jobs].

    A pool of size 1 spawns no domains and runs everything in the
    caller; the parallel paths are exact supersets of the sequential
    ones, not separate code. *)

type t

(** [create ~jobs] is a pool of [max 1 jobs] participants: the caller
    plus [jobs - 1] worker domains spawned immediately.  Every pool is
    registered for shutdown at exit, so forgetting {!shutdown} never
    blocks process termination. *)
val create : jobs:int -> t

(** Number of participants (caller + workers), [>= 1]. *)
val size : t -> int

(** [set_sink t s] routes the pool's trace events — queue-depth counter
    samples on submission, a [pool.parallel_for] span per fan-out, a
    [pool.slot] span per participating domain and a [pool.chunk] span
    per {!iter_chunks} chunk — to [s]. *)
val set_sink : t -> Tmest_obs.Obs.sink -> unit

(** [shutdown t] drains queued tasks, joins the worker domains and
    makes further submissions run sequentially in the caller.
    Idempotent. *)
val shutdown : t -> unit

(** [default_jobs ()] is the [TMEST_JOBS] environment variable if set
    to a positive integer, else [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** The process-wide shared pool, created on first use with
    {!default_jobs}. *)
val default : unit -> t

(** [set_default_jobs jobs] replaces the default pool with one of
    [jobs] participants (shutting the previous one down).  Drivers call
    this once after parsing [--jobs]. *)
val set_default_jobs : int -> unit

(** [parallel_for t ~n body] runs [body i] for [i = 0 .. n - 1], work
    distributed dynamically over the pool; the caller participates and
    the call returns only once every task has finished.  The first
    exception raised by any task is re-raised in the caller (remaining
    tasks still run to completion).  Safe to nest: an inner
    [parallel_for] issued from a task makes progress on the caller's
    own domain even when all workers are busy. *)
val parallel_for : t -> n:int -> (int -> unit) -> unit

(** [map t f a] is [Array.map f a], elements computed on the pool.
    Result slots are written independently, so the output is identical
    at every pool size. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [iter_chunks t ~n f] partitions [0 .. n - 1] into
    [min (size t) n] contiguous chunks and runs [f ~chunk ~lo ~hi]
    (half-open [\[lo, hi)]) for each, chunks distributed over the pool.
    The layout is a pure function of [(size t, n)]. *)
val iter_chunks : t -> n:int -> (chunk:int -> lo:int -> hi:int -> unit) -> unit

(** [chunks_for t ~n ~cost] is the tuned chunk count for a loop of [n]
    items whose total cost is [cost] units (one unit ≈ one
    multiply-add): enough chunks to feed every slot a few times over
    when the loop is heavy, one chunk when the loop is too cheap to be
    worth a dispatch.  Pure function of [(size t, n, cost)]; always in
    [\[1, n\]] (and [1] whenever [size t = 1]). *)
val chunks_for : t -> n:int -> cost:int -> int

(** [iter_grained t ~n ~cost f] partitions [0 .. n - 1] into
    {!chunks_for} contiguous chunks and runs [f ~lo ~hi] for each; a
    single-chunk layout runs inline in the caller with no dispatch.
    Unlike {!iter_chunks} the layout depends on [cost], so this is only
    for bodies that are bit-identical under {e any} partition —
    row-partitioned kernels where each index owns its output slot — not
    for chunk-keyed state threading (use {!iter_chunks}). *)
val iter_grained : t -> n:int -> cost:int -> (lo:int -> hi:int -> unit) -> unit

(** [reduce t ~f ~combine a] is
    [f a.(0) ⊕ f a.(1) ⊕ ... ⊕ f a.(n-1)] (with [⊕ = combine]),
    computed as per-chunk partials combined in chunk order; [None] on
    the empty array.  The chunk layout depends only on [Array.length a],
    so the grouping — hence the result, even for non-associative
    floating-point [combine] — is bit-identical at every pool size. *)
val reduce : t -> f:('a -> 'b) -> combine:('b -> 'b -> 'b) -> 'a array -> 'b option

(** Mutex-guarded one-shot memoization — a domain-safe replacement for
    [Lazy.t] in values shared across pool tasks ([Lazy.force] raises on
    concurrent forcing from several domains). *)
module Once : sig
  type 'a t

  val make : (unit -> 'a) -> 'a t

  (** First caller computes (others wait); later calls return the memo.
      If the computation raised, every force re-raises that exception. *)
  val force : 'a t -> 'a
end
