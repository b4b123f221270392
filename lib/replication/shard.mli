(** Static sharded layouts: the benchmark's entry points.

    A static layout is a {!Reconfig} system with [shards] initial groups
    and no reconfiguration command or autoscaling policy; {!Reconfig} holds
    the router, the routing plans and the two-phase cross-group protocol.
    The names below exist only so the benchmark ([perfbench/]) keeps its
    API; apart from the tests of that API, in-tree code calls {!Reconfig}
    directly. *)

type params = {
  shards : int;
      (** initial groups, at most [Reconfig.default_params.max_groups] *)
  base : Active.params;  (** per-group template, as in {!Reconfig.params} *)
}

type t = Reconfig.t

val create :
  ?obs:Detmt_obs.Recorder.t ->
  engine:Detmt_sim.Engine.t ->
  cls:Detmt_lang.Class_def.t ->
  params:params ->
  unit ->
  t
(** {!Reconfig.create} over {!Reconfig.default_params} with
    [initial_groups = shards].
    @raise Invalid_argument as {!Reconfig.create}. *)

val run_clients_stats :
  t ->
  clients:int ->
  requests_per_client:int ->
  gen:Client.request_gen ->
  ?think_time_ms:float ->
  ?seed:int64 ->
  ?until_ms:float ->
  ?timeout_ms:float ->
  ?max_retries:int ->
  unit ->
  Client.run_stats

val response_times : t -> Detmt_stats.Summary.t

val replies_received : t -> int

val consistent : t -> bool

val groups : t -> Active.t array
(** The live groups, indexed by shard id. *)

val fingerprint : t -> int64

val fast_path_requests : t -> int

val cross_shard_requests : t -> int
(** {!Reconfig.cross_group_requests}. *)

val shards : t -> int
