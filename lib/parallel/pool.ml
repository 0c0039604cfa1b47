module Obs = Tmest_obs.Obs

type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work : Condition.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  mutable sink : Obs.sink;
      (* trace destination for queue-depth samples, per-slot utilization
         spans and chunk timing; [Obs.null] costs one branch per probe *)
}

(* Workers block on [work] until a task arrives or the pool closes;
   [shutdown] drains the queue before the workers exit so no submitted
   task is dropped. *)
let worker_loop t =
  let rec next () =
    if not (Queue.is_empty t.queue) then begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.lock;
      (* Tasks wrap their own exception handling ([parallel_for]
         funnels failures to the submitting caller); a stray exception
         must not kill the worker. *)
      (try task () with _ -> ());
      Mutex.lock t.lock;
      next ()
    end
    else if t.closed then ()
    else begin
      Condition.wait t.work t.lock;
      next ()
    end
  in
  Mutex.lock t.lock;
  next ();
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.work;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join domains

let create ~jobs =
  let size = Stdlib.max 1 jobs in
  let t =
    {
      size;
      queue = Queue.create ();
      lock = Mutex.create ();
      work = Condition.create ();
      closed = false;
      domains = [];
      sink = Obs.null;
    }
  in
  t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  (* A pool whose workers idle in [Condition.wait] would block process
     exit (the runtime joins live domains); joining here is cheap and
     makes leaked pools harmless. *)
  if size > 1 then Stdlib.at_exit (fun () -> shutdown t);
  t

let size t = t.size
let set_sink t s = t.sink <- s

let submit t task =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    task ()
  end
  else begin
    Queue.push task t.queue;
    if t.sink.Obs.enabled then
      Obs.counter t.sink "pool.queue_depth"
        (float_of_int (Queue.length t.queue));
    Condition.signal t.work;
    Mutex.unlock t.lock
  end

(* Batched dispatch: [copies] pushes of the same task under one lock
   acquisition with one wake-up, instead of [copies] lock/signal
   round-trips.  This is the fan-out fast path — [parallel_for] seeds
   every worker with the same participate closure, so the per-task
   closure allocation is hoisted out of the dispatch loop by
   construction. *)
let submit_batch t ~copies task =
  if copies = 1 then submit t task
  else if copies > 1 then begin
    Mutex.lock t.lock;
    if t.closed then begin
      Mutex.unlock t.lock;
      for _ = 1 to copies do
        task ()
      done
    end
    else begin
      for _ = 1 to copies do
        Queue.push task t.queue
      done;
      if t.sink.Obs.enabled then
        Obs.counter t.sink "pool.queue_depth"
          (float_of_int (Queue.length t.queue));
      Condition.broadcast t.work;
      Mutex.unlock t.lock
    end
  end

(* ------------------------------------------------------------------ *)
(* Default pool                                                        *)
(* ------------------------------------------------------------------ *)

let default_jobs () =
  match Sys.getenv_opt "TMEST_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let default_lock = Mutex.create ()
let default_pool = ref None

let default () =
  Mutex.lock default_lock;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ~jobs:(default_jobs ()) in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_lock;
  p

let set_default_jobs jobs =
  Mutex.lock default_lock;
  let old = !default_pool in
  default_pool := Some (create ~jobs);
  Mutex.unlock default_lock;
  Option.iter shutdown old

(* ------------------------------------------------------------------ *)
(* Fan-out primitives                                                  *)
(* ------------------------------------------------------------------ *)

exception Task_failure of exn * Printexc.raw_backtrace

let parallel_for t ~n body =
  if n <= 0 then ()
  else if t.size = 1 || n = 1 then
    for i = 0 to n - 1 do
      body i
    done
  else begin
    (* Dynamic scheduling over an atomic index: each participant
       (caller included) claims the next task until the range drains.
       The caller then waits for in-flight tasks, so no task outlives
       the call. *)
    let sink = t.sink in
    let traced = sink.Obs.enabled in
    if traced then
      Obs.span_begin sink "pool.parallel_for"
        ~args:[ ("n", Obs.Int n); ("jobs", Obs.Int t.size) ];
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let failure = Atomic.make None in
    let wait_lock = Mutex.create () in
    let all_done = Condition.create () in
    let rec run_tasks () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (try body i
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        if Atomic.fetch_and_add completed 1 = n - 1 then begin
          Mutex.lock wait_lock;
          Condition.broadcast all_done;
          Mutex.unlock wait_lock
        end;
        run_tasks ()
      end
    in
    (* Per-slot utilization: each participant (workers and the caller)
       wraps its claim loop in a span on its own domain, so a timeline
       groups busy time by thread id. *)
    let participate () =
      if traced then Obs.span sink "pool.slot" run_tasks else run_tasks ()
    in
    submit_batch t ~copies:(Stdlib.min (t.size - 1) (n - 1)) participate;
    participate ();
    Mutex.lock wait_lock;
    while Atomic.get completed < n do
      Condition.wait all_done wait_lock
    done;
    Mutex.unlock wait_lock;
    if traced then Obs.span_end sink "pool.parallel_for";
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace (Task_failure (e, bt)) bt
    | None -> ()
  end

(* Unwrap so callers observe the original exception. *)
let parallel_for t ~n body =
  try parallel_for t ~n body
  with Task_failure (e, bt) -> Printexc.raise_with_backtrace e bt

let map t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for t ~n (fun i -> out.(i) <- Some (f a.(i)));
    Array.map
      (function Some v -> v | None -> assert false (* every slot written *))
      out
  end

let chunk_bounds ~chunks ~n c = (c * n / chunks, (c + 1) * n / chunks)

let iter_chunks t ~n f =
  if n > 0 then begin
    let chunks = Stdlib.min t.size n in
    let sink = t.sink in
    parallel_for t ~n:chunks (fun c ->
        let lo, hi = chunk_bounds ~chunks ~n c in
        if sink.Obs.enabled then
          Obs.span sink "pool.chunk"
            ~args:
              [ ("chunk", Obs.Int c); ("lo", Obs.Int lo); ("hi", Obs.Int hi) ]
            (fun () -> f ~chunk:c ~lo ~hi)
        else f ~chunk:c ~lo ~hi)
  end

(* ------------------------------------------------------------------ *)
(* Cost-weighted grain model                                           *)
(* ------------------------------------------------------------------ *)

(* Target work per chunk, in caller-supplied cost units (one unit ≈ one
   multiply-add).  Dispatching a chunk costs on the order of a few
   microseconds (queue push + wake-up + atomic claims), so a chunk needs
   tens of thousands of flops before that overhead disappears into the
   work itself. *)
let grain_cost = 32_768

(* Upper bound on oversplitting: a few chunks per slot lets the dynamic
   scheduler absorb uneven chunk costs without drowning in dispatch. *)
let max_chunks_per_slot = 4

let chunks_for t ~n ~cost =
  if n <= 1 || t.size = 1 || cost <= 0 then 1
  else begin
    let by_cost = cost / grain_cost in
    let cap = t.size * max_chunks_per_slot in
    Stdlib.max 1 (Stdlib.min n (Stdlib.min cap by_cost))
  end

let iter_grained t ~n ~cost f =
  if n > 0 then begin
    let chunks = chunks_for t ~n ~cost in
    if chunks = 1 then f ~lo:0 ~hi:n
    else
      parallel_for t ~n:chunks (fun c ->
          let lo, hi = chunk_bounds ~chunks ~n c in
          f ~lo ~hi)
  end

(* Chunk layout for [reduce] depends on the input length only, so the
   combine tree — and therefore the floating-point result — is the same
   at every pool size. *)
let reduce_chunks n = Stdlib.min n 64

let reduce t ~f ~combine a =
  let n = Array.length a in
  if n = 0 then None
  else begin
    let chunks = reduce_chunks n in
    let partial = Array.make chunks None in
    parallel_for t ~n:chunks (fun c ->
        let lo, hi = chunk_bounds ~chunks ~n c in
        let acc = ref (f a.(lo)) in
        for i = lo + 1 to hi - 1 do
          acc := combine !acc (f a.(i))
        done;
        partial.(c) <- Some !acc);
    let acc = ref None in
    Array.iter
      (fun p ->
        match (!acc, p) with
        | None, p -> acc := p
        | Some x, Some y -> acc := Some (combine x y)
        | Some _, None -> assert false (* every chunk is non-empty *))
      partial;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* One-shot memoization                                                *)
(* ------------------------------------------------------------------ *)

module Once = struct
  type 'a state =
    | Pending of (unit -> 'a)
    | Done of 'a
    | Failed of exn

  type 'a t = { mutable state : 'a state; lock : Mutex.t }

  let make f = { state = Pending f; lock = Mutex.create () }

  let force t =
    (* Fast path without the lock is unsound for non-atomic record
       fields; the lock is uncontended after the first force and these
       values are forced far from any hot loop. *)
    Mutex.lock t.lock;
    let r =
      match t.state with
      | Done v -> Ok v
      | Failed e -> Error e
      | Pending f -> (
          match f () with
          | v ->
              t.state <- Done v;
              Ok v
          | exception e ->
              t.state <- Failed e;
              Error e)
    in
    Mutex.unlock t.lock;
    match r with Ok v -> v | Error e -> raise e
end
