(** Chaos harness: fault scenarios x deterministic schedulers.

    Each run is one {!Checked_run.run} through {!Reconfig} (one {!Active}
    group per shard) on a degraded transport ({!Detmt_gcs.Faults}),
    optionally killing and recovering a replica in every group.  On top of
    the shared internal-consistency conditions ({!Checked_run.violation})
    it checks the robustness invariants:

    - every submitted request is answered (exactly once: duplicates are a
      shared condition),
    - the simulation drains without deadlock,
    - scheduled recoveries complete,
    - scheduled reconfigurations apply.

    Scenarios carrying reconfiguration commands add live shard split/merge
    and scheduler hot swap under the same fault injection; the rest run
    without commands.  Everything is seeded — the same seed replays the
    same run bit for bit, which {!outcome.o_fingerprint} witnesses. *)

type scenario = {
  name : string;
  descr : string;
  faults : seed:int64 -> Detmt_gcs.Faults.spec option;
  crash : Checked_run.crash option;
      (** the offset is into each group's id window, so every shard loses
          the replica at that offset *)
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
  o_run : Checked_run.outcome;
  o_recoveries_wanted : int;
  o_transitions_wanted : int;
  o_losses : int;  (** injected transport faults, summed over groups *)
  o_duplicates_injected : int;
  o_partition_holds : int;
  o_fingerprint : int64;
      (** every replica's state and trace hashes, the reply count and the
          end time: equal across two runs with the same seed *)
}

val ok : outcome -> bool
(** {!Checked_run.violation} finds nothing, every request was answered and
    every wanted recovery and reconfiguration applied. *)

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
    aggregates across groups: counters sum, [o_recoveries_wanted] scales
    with the shard count, and {!outcome.o_fingerprint} folds every group's
    replica hashes in shard order.  [timeout_ms] arms the clients' retry
    timers (default 60 virtual ms).  [obs] (default disabled) records the
    run; the transport's fault counters are folded into its metrics, and
    its checkpoint times and audit log support the forensics mode
    ([detmt-cli chaos --forensics]): {!Checked_run.outcome.o_divergence}
    names the first divergent checkpoint sequence, whose recording time
    keys the audit window.
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
