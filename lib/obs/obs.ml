(* Core observability primitives: a monotone clock, a pluggable event
   sink, and the span/counter/iteration vocabulary the solver stack
   emits.  The module is dependency-free by design — anything from the
   linear-algebra kernels up to the CLI can emit events without
   dragging in new link requirements. *)

module Clock = struct
  (* The default source is [Sys.time] (process CPU seconds): always
     available, strictly non-decreasing, but not wall-clock.  Drivers
     that link [unix] install [Unix.gettimeofday] at startup for real
     wall-clock spans.  Whatever the source, [now_ns] clamps against
     the last issued stamp so the emitted sequence is monotone even if
     the source steps backwards (NTP) or two domains race. *)
  let source = Atomic.make Sys.time

  let set_source f = Atomic.set source f

  let last = Atomic.make 0L

  let rec clamp t =
    let cur = Atomic.get last in
    if Int64.compare t cur <= 0 then cur
    else if Atomic.compare_and_set last cur t then t
    else clamp t

  let now_ns () =
    let seconds = (Atomic.get source) () in
    clamp (Int64.of_float (seconds *. 1e9))

  let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9
end

type value =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type event =
  | Span_begin of { name : string; args : (string * value) list }
  | Span_end of { name : string }
  | Counter of { name : string; value : float }
  | Iter of {
      solver : string;
      iter : int;
      objective : float;
      residual : float;
      step : float;
      restart : bool;
    }

type sink = {
  enabled : bool;
  emit : t_ns:int64 -> tid:int -> event -> unit;
}

let null = { enabled = false; emit = (fun ~t_ns:_ ~tid:_ _ -> ()) }
let is_null s = not s.enabled

let make_sink emit = { enabled = true; emit }

let tid () = (Domain.self () :> int)

let emit sink ev =
  if sink.enabled then sink.emit ~t_ns:(Clock.now_ns ()) ~tid:(tid ()) ev

let span_begin ?(args = []) sink name =
  if sink.enabled then emit sink (Span_begin { name; args })

let span_end sink name = if sink.enabled then emit sink (Span_end { name })

let span ?args sink name f =
  if not sink.enabled then f ()
  else begin
    span_begin ?args sink name;
    Fun.protect ~finally:(fun () -> span_end sink name) f
  end

let counter sink name value =
  if sink.enabled then emit sink (Counter { name; value })

(* Callers are expected to guard the whole call with [sink.enabled] (or
   [is_null]) so disabled runs pay one branch and zero allocation; the
   guard here is a second line of defense, not the hot-path contract. *)
let iter sink ~solver ~iter ?(objective = nan) ?(residual = nan)
    ?(step = nan) ?(restart = false) () =
  if sink.enabled then
    emit sink (Iter { solver; iter; objective; residual; step; restart })
