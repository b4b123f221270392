open Detmt_sim
open Detmt_runtime

type entry = {
  client : int;
  client_req : int;
  meth : string;
  args : Detmt_lang.Ast.value array;
}

type checkpoint = { position : int; state : (string * int) list }

type t = {
  cls : Detmt_lang.Class_def.t;
  scheduler : string;
  config : Config.t;
  system : Active.t; (* single-replica group: the primary *)
  mutable log : entry list; (* reversed *)
  mutable log_len : int;
}

let single_replica_params scheduler config =
  { Active.default_params with replicas = 1; scheduler; config }

let create ~engine ~cls ~scheduler ?(config = Config.default) () =
  let system =
    Active.create ~engine ~cls
      ~params:(single_replica_params scheduler config) ()
  in
  { cls; scheduler; config; system; log = []; log_len = 0 }

let submit t ~client ~client_req ~meth ~args ~on_reply =
  t.log <- { client; client_req; meth; args } :: t.log;
  t.log_len <- t.log_len + 1;
  Active.submit t.system ~client ~client_req ~meth ~args ~on_reply

let primary t =
  match Active.replicas t.system with
  | [ r ] -> r
  | _ -> assert false

let log_length t = t.log_len

let checkpoint t =
  let p = primary t in
  if Replica.active_threads p > 0 then
    invalid_arg "Passive.checkpoint: primary is not quiescent";
  { position = t.log_len; state = Replica.state_snapshot p }

let replay t ?from () =
  let start_pos, state =
    match from with
    | None -> (0, [])
    | Some cp -> (cp.position, cp.state)
  in
  let entries =
    List.filteri (fun i _ -> i >= start_pos) (List.rev t.log)
  in
  (* A fresh backup with its own virtual timeline re-executes the suffix in
     log order — one request completing before the next is submitted is the
     strongest form of "same total order". *)
  let engine = Engine.create () in
  let backup_sys =
    Active.create ~engine ~cls:t.cls
      ~params:(single_replica_params t.scheduler t.config) ()
  in
  let backup =
    match Active.replicas backup_sys with [ r ] -> r | _ -> assert false
  in
  List.iter
    (fun (f, v) -> Object_state.set_state (Replica.object_state backup) f v)
    state;
  List.iter
    (fun e ->
      Active.submit backup_sys ~client:e.client ~client_req:e.client_req
        ~meth:e.meth ~args:e.args ~on_reply:Active.ignore_reply;
      Engine.run engine)
    entries;
  Engine.run engine;
  backup
