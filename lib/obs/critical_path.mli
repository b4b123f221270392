(** Critical-path analysis over the span tracer's typed wait reasons.

    Reduces each answered request's exact-sum latency breakdown to its
    dominant component, then aggregates overall, per shard (derived from
    the winning replica's id) and per reconfiguration epoch (from the
    ["reconfig.epoch"] series, so the attribution survives Reconfig
    barriers). *)

type item = {
  cp_uid : int;
  cp_client : int;
  cp_meth : string;
  cp_replica : int;
  cp_shard : int;
  cp_epoch : int;
  cp_dominant : string;
  cp_dominant_ms : float;
  cp_total_ms : float;
}

type slice = {
  s_count : int; (** requests this component dominated *)
  s_ms : float; (** their dominant-component milliseconds, summed *)
}

type report = {
  items : item list;
  by_component : (string * slice) list;
  by_shard : (int * (string * slice) list) list;
  by_epoch : (int * (string * slice) list) list;
}

val components : string list
(** All component names, in canonical (tie-break) order. *)

val analyse : ?replicas:int -> Recorder.t -> report
(** [replicas] is the per-group replica count used to derive shards from
    replica ids (default 3, the repo-wide default). *)

val table : ?title:string -> report -> Detmt_stats.Table.t
