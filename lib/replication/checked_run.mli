(** One checked run: the determinism check every harness shares.

    Builds a {!Reconfig} system (a static layout is the elastic one with no
    command), attaches a {!Consistency} monitor to every incarnation it ever
    creates, applies timed reconfiguration commands and crash points,
    drives closed-loop clients and folds what the replicas did into one
    {!outcome}.  {!Chaos} adds network faults on top, the explorer
    ([Detmt_explore.Explore]) delivery, tie-break and flush perturbations. *)

type crash = {
  offset : int;  (** every initial group loses its [offset]-th replica *)
  kill_ms : float;
  recover_ms : float option;  (** rejoin time, if the replica recovers *)
}

type outcome = {
  o_expected : int;  (** requests submitted *)
  o_replies : int;
  o_outstanding : int;  (** clients still waiting when the run stopped *)
  o_retries : int;  (** client timeout resubmissions *)
  o_duplicate_replies : int;
  o_checkpoints : int;  (** cross-replica checkpoint comparisons *)
  o_divergence : Consistency.divergence option;
      (** first checkpoint disagreement caught during the run *)
  o_reports : Consistency.report list;
      (** every incarnation's live replicas compared after the run, in
          {!Reconfig.groups_ever} order *)
  o_recoveries : int;
  o_transitions : int;  (** reconfiguration epochs applied *)
  o_epochs_agree : bool;  (** {!Reconfig.epochs_agree} *)
  o_order_fp : int64;  (** {!Reconfig.order_fingerprint} *)
  o_events : int;  (** simulation events executed *)
  o_duration_ms : float;  (** virtual time at the end of the run *)
}

val run :
  ?obs:Detmt_obs.Recorder.t ->
  ?on_group:(Active.t -> unit) ->
  ?commands:(float * Reconfig.command) list ->
  ?crashes:crash list ->
  ?timeout_ms:float ->
  ?until_ms:float ->
  engine:Detmt_sim.Engine.t ->
  params:Reconfig.params ->
  cls:Detmt_lang.Class_def.t ->
  gen:Client.request_gen ->
  clients:int ->
  requests_per_client:int ->
  seed:int64 ->
  unit ->
  Reconfig.t * outcome
(** One run on [engine].  [on_group] fires for every incarnation after its
    monitor is attached and before it carries traffic.  [commands] go to
    {!Reconfig.request_at}.  [timeout_ms] and [until_ms] go to
    {!Reconfig.run_clients_stats}: without [until_ms] a stall raises
    [Failure] with diagnostics, with [until_ms = infinity] it is counted in
    [o_outstanding].  The system is returned for counters the outcome does
    not fold.
    @raise Invalid_argument before anything runs when a crash offset lies
    outside [0 .. params.base.replicas - 1]. *)

val violation : outcome -> string option
(** The first internal-consistency condition the run broke, [None] when it
    is internally consistent: no checkpoint divergence, agreeing final
    states, agreeing per-mutex acquisition orders (unless a recovery ran: a
    recovered replica's acquisition fingerprint covers only its second
    incarnation), agreeing epoch transitions and no duplicate client
    reply.  These hold on every admissible run of a deterministic
    scheduler, whatever the faults or perturbations. *)
