(** Chaos harness: fault scenarios x deterministic schedulers.

    Each run wires a workload through {!Reconfig} (one {!Active} group per
    shard; the default single group is byte-for-byte the unsharded path) on
    a degraded transport ({!Detmt_gcs.Faults}), optionally kills and
    recovers a replica in every group, and checks the robustness
    invariants:

    - every submitted request is answered exactly once (retries included),
    - the runtime divergence detector never fires,
    - survivors (and a recovered replica) agree on the final state,
    - the simulation drains without deadlock,
    - scheduled recoveries complete,
    - scheduled reconfigurations apply, with every replica of every
      incarnation observing every epoch transition at the same total-order
      slot.

    Scenarios carrying reconfiguration commands add live shard split/merge
    and scheduler hot swap under the same fault injection; the rest run
    without commands.  Everything is seeded — the same seed replays the
    same run bit for bit, which {!outcome.o_fingerprint} witnesses. *)

type scenario = {
  name : string;
  descr : string;
  faults : seed:int64 -> Detmt_gcs.Faults.spec option;
  kill : (float * int) option;
      (** [(time_ms, replica)] — the replica is an offset into each group's
          id window, so every shard loses its [k]-th replica. *)
  recover_at : float option;
  reconfig :
    (initial:int -> scheduler:string -> (float * Reconfig.command) list)
    option;
      (** elastic scenarios: timed reconfiguration commands, given the
          initial group count and the scheduler under test (so a hot-swap
          target can be chosen to differ from it) *)
}

val scenarios : scenario list
(** The built-in scenarios: [baseline], [jitter], [lossy], [dup-storm],
    [partition-heal], [crash-recover], [lossy-crash-recover], plus the
    elastic pair [reshard-partition-heal] (a shard split ordered inside a
    healing partition, merged back after) and [hotswap-crash] (a scheduler
    hot swap racing a crashed replica's scheduled recovery). *)

val find_scenario : string -> scenario option

val default_schedulers : string list
(** The deterministic schedulers swept by default —
    {!Detmt_sched.Registry.deterministic_decisions}.  The freefall baseline
    is excluded: it diverges by design. *)

type outcome = {
  o_scenario : string;
  o_scheduler : string;
  o_shards : int;
  o_expected : int;
  o_replies : int;
  o_duplicate_replies : int;
  o_retries : int;
  o_checkpoints : int;
  o_divergence : Consistency.divergence option;
  o_recoveries : int;
  o_recoveries_wanted : int;
  o_states_agree : bool;
  o_acquisitions_agree : bool;
  o_suppressed_duplicates : int;
      (** true transport duplicates suppressed by the bus watermark *)
  o_watermark_suppressed : int;
      (** stale replay-covered copies suppressed after a recovery's state
          transfer (previously miscounted as transport duplicates) *)
  o_losses : int;
  o_duplicates_injected : int;
  o_partition_holds : int;
  o_transitions : int;  (** reconfiguration epochs applied *)
  o_transitions_wanted : int;
  o_epochs_agree : bool;
      (** {!Reconfig.epochs_agree}; vacuously true for static runs *)
  o_duration_ms : float;
  o_fingerprint : int64;
}

val ok : outcome -> bool
(** All invariants hold. *)

val run :
  ?seed:int64 ->
  ?shards:int ->
  ?workers:int ->
  ?clients:int ->
  ?requests_per_client:int ->
  ?timeout_ms:float ->
  ?obs:Detmt_obs.Recorder.t ->
  scenario:scenario ->
  scheduler:string ->
  cls:Detmt_lang.Class_def.t ->
  gen:Client.request_gen ->
  unit ->
  outcome
(** One (scenario, scheduler) combination.  [workers] (default 1) is the
    simulated worker-pool width, legal only for parallel schedulers
    ({!Detmt_sched.Registry.parallel_decisions}).  [shards] (default 1,
    at most [Reconfig.default_params.max_groups]) partitions the object
    space into that many independent Totem groups; each group gets its own
    fault stream (salted from [seed]), its own kill/recovery when the
    scenario schedules one, and its own consistency monitor.  The outcome
    aggregates across groups: counters sum, agreement flags AND,
    [o_recoveries_wanted] scales with the shard count, and
    {!outcome.o_fingerprint} folds every group's replica hashes in shard
    order — for [shards = 1] it is the same value the unsharded harness
    produced.  [timeout_ms] arms the clients' retry timers (default 60
    virtual ms).  [obs] (default disabled) records the run; the transport's fault counters are folded into its metrics,
    and its checkpoint times and audit log support the forensics mode
    ([detmt-cli chaos --forensics]): {!outcome.o_divergence} names the first
    divergent checkpoint sequence, whose recording time keys the audit
    window.
    @raise Failure on deadlock (with full diagnostics). *)

val sweep :
  ?seed:int64 ->
  ?shards:int ->
  ?workers:int ->
  ?schedulers:string list ->
  ?scenario_names:string list ->
  ?clients:int ->
  ?requests_per_client:int ->
  cls:Detmt_lang.Class_def.t ->
  gen:Client.request_gen ->
  unit ->
  outcome list
(** The full cross product, scenario-major.  A sweep-wide [workers] width is
    applied to the parallel schedulers only; serial schedulers keep width
    1. *)

val table : outcome list -> Detmt_stats.Table.t
