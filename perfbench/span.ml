(* The benchmark's own spans: one around each call into a library layer,
   with an id, the id of the enclosing span and the id of the request
   (window, solve or tick) it belongs to.  Spans are kept in memory and
   mirrored into a [Tmest_obs.Recorder], written out once the traced
   pass ends.  A disabled tracer only runs the wrapped calls, so the
   untraced and traced passes share their code. *)

module Obs = Tmest_obs.Obs
module Recorder = Tmest_obs.Recorder

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id; -1 outside any request *)
  t0 : int64;
  t1 : int64;
}

type t = {
  recorder : Recorder.t option;
  mutable next : int;
  mutable stack : (int * string * int * int64) list;  (** id, name, req, t0 *)
  mutable spans : span list;
}

let disabled () = { recorder = None; next = 0; stack = []; spans = [] }

let create ~meta () =
  { recorder = Some (Recorder.create ~meta ()); next = 0; stack = []; spans = [] }

(* [enter t ?req name] opens a span under the innermost open one;
   [req] defaults to the enclosing span's request. *)
let enter ?req t name =
  match t.recorder with
  | None -> ()
  | Some r ->
      let id = t.next in
      t.next <- id + 1;
      let parent, inherited =
        match t.stack with (p, _, q, _) :: _ -> (p, q) | [] -> (-1, -1)
      in
      let req = Option.value req ~default:inherited in
      Obs.span_begin (Recorder.sink r) name
        ~args:
          [ ("id", Obs.Int id); ("parent", Obs.Int parent); ("req", Obs.Int req) ];
      t.stack <- (id, name, req, Obs.Clock.now_ns ()) :: t.stack

let leave t =
  match (t.recorder, t.stack) with
  | Some r, (id, name, req, t0) :: rest ->
      let t1 = Obs.Clock.now_ns () in
      Obs.span_end (Recorder.sink r) name;
      let parent = match rest with (p, _, _, _) :: _ -> p | [] -> -1 in
      t.spans <- { name; id; parent; req; t0; t1 } :: t.spans;
      t.stack <- rest
  | _ -> ()

let with_ ?req t name f =
  enter ?req t name;
  Fun.protect ~finally:(fun () -> leave t) f

let spans t = List.rev t.spans
let dur_ms s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e6

(* Self time: a span's duration minus the part of it its children
   cover.  The benchmark's spans are opened from one domain and nest
   strictly, so children never overlap and their durations add up. *)
let self_ms t =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    t.spans;
  List.map
    (fun s ->
      (s, dur_ms s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)))
    (spans t)

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (dur_ms s) else None) (spans t)

(* Write the trace as JSONL and check it against the trace schema;
   [Error] names what the validator rejected. *)
let write t path =
  match t.recorder with
  | None -> Ok ()
  | Some r -> (
      Recorder.write_file r path;
      match Tmest_obs.Validate.file path with
      | Ok _ -> Ok ()
      | Error e -> Error e)
