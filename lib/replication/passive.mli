(** Passive replication: primary-backup with request-log re-execution.

    "State modifications not yet propagated to the backup replicas can be
    applied to them by re-executing method invocations from a request log.
    Such re-executions are consistent to the state of a failed primary only
    if a deterministic scheduling strategy is used."

    The primary executes requests under a deterministic scheduler and logs
    them; {!checkpoint} captures the object state at a quiescent point;
    {!replay} re-executes the log (optionally from a checkpoint) on a fresh
    backup and returns it, so callers can compare fingerprints. *)

type t

type checkpoint

val create :
  engine:Detmt_sim.Engine.t ->
  cls:Detmt_lang.Class_def.t ->
  scheduler:string ->
  ?config:Detmt_runtime.Config.t ->
  unit ->
  t

val submit :
  t ->
  client:int ->
  client_req:int ->
  meth:string ->
  args:Detmt_lang.Ast.value array ->
  on_reply:Active.on_reply ->
  unit

val primary : t -> Detmt_runtime.Replica.t

val log_length : t -> int

val checkpoint : t -> checkpoint
(** Capture the primary state.  Must be taken at a quiescent point (no
    active threads); raises otherwise. *)

val replay : t -> ?from:checkpoint -> unit -> Detmt_runtime.Replica.t
(** Re-execute the logged requests (all of them, or only those after [from])
    on a fresh backup replica with its own engine, run to completion, and
    return the backup. *)
