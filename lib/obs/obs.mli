(** Solver observability: monotone clock, pluggable event sinks, and
    the span / counter / per-iteration vocabulary emitted by the
    estimation stack.

    The library is zero-dependency.  Every emission point is guarded by
    {!field:sink.enabled}; with the {!null} sink the entire subsystem
    costs one branch per probe and allocates nothing, so estimates are
    bit-identical whether or not observability is linked in. *)

module Clock : sig
  (** [set_source f] installs [f] (seconds, any epoch) as the raw time
      source.  The default is [Sys.time] (CPU seconds) so the library
      stays dependency-free; drivers that link [unix] should install
      [Unix.gettimeofday] for wall-clock spans. *)
  val set_source : (unit -> float) -> unit

  (** [now_ns ()] is the current time in nanoseconds, clamped against
      the last issued stamp: the returned sequence is globally monotone
      non-decreasing even across domains or a stepping source. *)
  val now_ns : unit -> int64

  (** [seconds_since t0] is the time elapsed since the stamp [t0] (a
      {!now_ns} result), in seconds. *)
  val seconds_since : int64 -> float
end

type value =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type event =
  | Span_begin of { name : string; args : (string * value) list }
      (** Start of a named region; spans nest per emitting domain. *)
  | Span_end of { name : string }
      (** End of the innermost open span with this name. *)
  | Counter of { name : string; value : float }
      (** Point sample of a named metric (cache hit totals, arena
          sizes, pool queue depths). *)
  | Iter of {
      solver : string;
      iter : int;
      objective : float;  (** [nan] when the solver cannot evaluate it *)
      residual : float;  (** solver-specific progress norm; [nan] if none *)
      step : float;  (** step size / trust parameter; [nan] if none *)
      restart : bool;  (** momentum restart (FISTA-family) *)
    }  (** One record per solver iteration. *)

(** A sink receives timestamped events from the emitting domain ([tid]
    is the domain id).  Implementations must be domain-safe: solver
    iterations on pool workers emit concurrently. *)
type sink = {
  enabled : bool;
      (** [false] only for {!null}: hot paths check this single field
          and skip event construction entirely. *)
  emit : t_ns:int64 -> tid:int -> event -> unit;
}

(** The no-op sink: disabled, never called. *)
val null : sink

(** [is_null s] is [true] iff [s] drops everything ([not s.enabled]). *)
val is_null : sink -> bool

(** [make_sink emit] is an enabled sink delivering to [emit]. *)
val make_sink : (t_ns:int64 -> tid:int -> event -> unit) -> sink

(** [emit sink ev] stamps [ev] with {!Clock.now_ns} and the current
    domain id and delivers it (no-op on a disabled sink). *)
val emit : sink -> event -> unit

val span_begin : ?args:(string * value) list -> sink -> string -> unit
val span_end : sink -> string -> unit

(** [span sink name f] runs [f] inside a [name] span; the end event is
    emitted even if [f] raises.  With a disabled sink this is exactly
    [f ()]. *)
val span : ?args:(string * value) list -> sink -> string -> (unit -> 'a) -> 'a

val counter : sink -> string -> float -> unit

(** [iter sink ~solver ~iter ()] records one solver iteration.  Callers
    on allocation-free hot paths should guard the call with
    [sink.enabled] so disabled runs do not even box the floats. *)
val iter :
  sink ->
  solver:string ->
  iter:int ->
  ?objective:float ->
  ?residual:float ->
  ?step:float ->
  ?restart:bool ->
  unit ->
  unit
