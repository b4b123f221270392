(** Name-based construction of decision modules.

    [needs_prediction] tells the replication layer which transformation the
    scheduler requires: predictive schedulers must run code produced by
    [Transform.predictive] (announcements, ignores, loop markers), the others
    run [Transform.basic] output. *)

type spec = {
  name : string;
  needs_prediction : bool;
  deterministic : bool;  (** [false] only for the freefall baseline *)
  parallel : bool;
      (** Whether the decision module drives a multi-worker pool
          ([Sched_config.workers]); {!instantiate} rejects [workers > 1]
          for serial specs. *)
  description : string;
}

val all : spec list
(** seq, sat, psat, lsa, pds, ppds, mat, mat-ll, pmat, cgs, pcgs, wss,
    cgs+ws, adaptive, freefall. *)

val paper_figure1 : string list
(** The five algorithms of Figure 1: seq, sat, lsa, pds, mat. *)

val deterministic_decisions : string list
(** Names of the deterministic decision modules — every registered
    deterministic scheduler except the adaptive meta-scheduler (which is a
    chooser over these, driven separately).  This is the set the fingerprint
    oracle and the cross-scheduler fuzz quantify over. *)

val parallel_decisions : string list
(** Names of the decision modules that accept [Sched_config.workers > 1]
    (the conflict-graph family). *)

val find : string -> spec option

val find_exn : string -> spec
(** @raise Invalid_argument on unknown names, listing the valid ones. *)

val instantiate :
  Sched_config.t ->
  Detmt_runtime.Sched_iface.actions ->
  Detmt_runtime.Sched_iface.sched
(** The one scheduler-construction entry point: look the named scheduler up
    and build it from the unified {!Sched_config.t} record.
    @raise Invalid_argument on an unknown scheduler name, when the named
    scheduler requires prediction and [cfg.summary] is [None], or when
    [cfg.workers > 1] and the scheduler is serial. *)
