(** Replayable perturbation schedules — the explorer's search points and
    counterexample format.

    A schedule names one run configuration (scheduler, workload, seed,
    client matrix, optional delivery batching) plus a list of perturbation
    {!entry} values, each one admissible deviation from the canonical
    execution.  Entries are keyed by stable identifiers — total-order
    sequence numbers, replica ids, tie-instant indices — not absolute
    times, so removing entries during shrinking never invalidates the
    survivors. *)

type entry =
  | Delay of { seq : int; dest : int; extra_ms : float }
      (** deliver total-order message [seq] to replica [dest] this much
          later than its planned arrival (the per-subscriber FIFO floor
          still applies, so this delays a suffix but never reorders it) *)
  | Reorder of { at_index : int; pick : int }
      (** at the [at_index]-th instant where several events are eligible
          simultaneously, run the [pick]-th (canonical order) instead of
          the first *)
  | Flush of { after_seq : int }
      (** force the open delivery batch onto the wire right after message
          [after_seq] joins it; no-op when batching is off *)
  | Crash of { replica : int; at_ms : float; recover_at_ms : float }
      (** kill [replica] at [at_ms] and recover it at [recover_at_ms]
          ([recover_at_ms <= at_ms]: no recovery) *)

type t = {
  scheduler : string;  (** a {!Detmt_sched.Registry} name *)
  workload : string;  (** a {!Detmt_workload.Catalog} name *)
  seed : int;
  clients : int;
  requests : int;  (** requests per client *)
  workers : int;
      (** simulated worker-pool width (parallel scheduler family only).
          Serialized as a [workers N] header line only when [<> 1], so
          pre-parallel witnesses round-trip unchanged. *)
  batching : Detmt_gcs.Totem.batching option;
  elastic : bool;
      (** run through {!Detmt_replication.Reconfig} with the canonical
          split/merge cycle instead of a static group; [Crash] entries then
          name offsets into group 0.  Serialized as an [elastic true] header
          line only when set, so pre-elastic witnesses parse unchanged. *)
  entries : entry list;
}

val make :
  ?seed:int ->
  ?clients:int ->
  ?requests:int ->
  ?workers:int ->
  ?batching:Detmt_gcs.Totem.batching ->
  ?elastic:bool ->
  scheduler:string ->
  workload:string ->
  entry list ->
  t
(** Defaults: seed 42, 4 clients x 5 requests, 1 worker, no batching, not
    elastic. *)

val size : t -> int
(** Number of perturbation entries. *)

val with_entries : t -> entry list -> t

val to_string : t -> string
(** Line-based text form (the on-disk witness format): a header of
    [key value] lines followed by one line per entry. *)

val of_string : string -> t
(** Inverse of {!to_string}; blank lines and [#] comments are ignored.
    @raise Failure on a malformed line (including a [clients], [requests]
    or [workers] value below 1) or a missing header field. *)

val save : t -> string -> unit

val load : string -> t
(** @raise Failure on parse errors, [Sys_error] on IO errors. *)
