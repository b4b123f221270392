(** Bounded schedule-space exploration: a model checker over the
    nondeterminism the simulator admits.

    The envelope is the set of admissible executions reachable from the
    canonical one by: delaying individual point-to-point deliveries (the
    Totem delivery oracle; the per-subscriber FIFO floor keeps the GCS
    contract), picking a different event at a multi-way simultaneity (the
    engine's tie-break oracle), forcing early batch flushes, and
    crash/recovery points.  A deterministic scheduler must stay internally
    consistent — checkpoint streams, final states, acquisition orders,
    exactly-once replies, no introduced stall — at {e every} point of the
    envelope, and must reproduce the canonical replies and states at every
    point that leaves the broadcast total order unchanged.

    Search is budget-bounded DFS with per-node candidate regeneration and
    sleep-set-style pruning of perturbations whose window no other event
    shares (they commute with the whole run).  Divergences shrink to
    1-minimal replayable witnesses via ddmin.

    A schedule marked [elastic] runs through
    {!Detmt_replication.Reconfig} with a canonical split/merge cycle
    (split at 6 ms, merge back at 20 ms of virtual time); the oracle set
    then additionally demands that every epoch transition applies and is
    observed bit-identically by every replica of every incarnation, and
    candidate generation enumerates crash/recovery points {e inside} the
    reconfiguration window. *)

val resolve_workload :
  string ->
  Detmt_lang.Class_def.t
  * (client:int ->
    seq:int ->
    Detmt_sim.Rng.t ->
    string * Detmt_lang.Ast.value array)
(** Workload class and request generator by name.
    @raise Invalid_argument on an unknown name. *)

type outcome = {
  o_replies : int;
  o_expected : int;
  o_outstanding : int;  (** clients still waiting when the queue drained *)
  o_duplicate_replies : int;
  o_divergence : Detmt_replication.Consistency.divergence option;
      (** first checkpoint disagreement caught during the run *)
  o_states_agree : bool;
  o_acquisitions_agree : bool;
  o_state_fps : (int * int64) list;
  o_recoveries : int;
  o_transitions : int;
      (** reconfiguration epochs applied; 0 on static schedules *)
  o_epochs_agree : bool;
      (** every replica of every incarnation saw each epoch transition at
          the same total-order slot; vacuously true on static schedules *)
  o_order_fp : int64;
      (** broadcast total-order fingerprint (on elastic schedules:
          {!Detmt_replication.Reconfig.fingerprint}, which also folds the
          transition log) *)
  o_events : int;
  o_duration_ms : float;
}

type observation = {
  obs_deliveries : (int * int * float) list;
      (** every point-to-point delivery: (seq, dest, planned arrival) *)
  obs_ties : int list;  (** width of each multi-way simultaneity, in order *)
  obs_journal : float array;  (** executed-event times *)
  obs_broadcasts : int;
}

val run_one :
  ?replicas:int ->
  ?observe:bool ->
  cls:Detmt_lang.Class_def.t ->
  gen:Detmt_replication.Client.request_gen ->
  Schedule.t ->
  outcome * observation
(** Execute one schedule (default 3 replicas).  With [observe] (default
    false) the run also journals events and records every delivery and tie
    instant — the raw material for candidate generation.  A schedule with no
    entries is the canonical run. *)

type verdict =
  | Equivalent
      (** same total order, same replies and states as canonical *)
  | Order_shifted
      (** the perturbation moved the broadcast total order itself (timing
          feeds back through closed-loop clients and control traffic);
          internally consistent, hence admissible *)
  | Divergent of string  (** a real scheduler-determinism violation *)

val classify : canonical:outcome -> outcome -> verdict

val verdict_to_string : verdict -> string

val default_skews : float list
(** Delivery-delay magnitudes (ms) tried per delivery during enumeration:
    jitter-scale, below the failure-detection timeout.  Witness replay is
    not limited to these — a checked-in schedule may carry any [extra_ms]. *)

type search_stats = {
  explored : int;  (** schedules run, canonical included *)
  pruned : int;  (** candidates dropped by the empty-window rule *)
  order_shifted : int;
  max_frontier_depth : int;
}

type result = {
  stats : search_stats;
  divergent : (Schedule.t * string) list;  (** unshrunk counterexamples *)
}

val explore :
  ?skews:float list ->
  ?max_depth:int ->
  ?max_width:int ->
  budget:int ->
  Schedule.t ->
  result
(** Bounded-DFS over the envelope rooted at [base] with its entries cleared;
    at most [budget] runs, schedules of at most [max_depth] entries
    (default 2), at most [max_width] children pushed per node (default 32,
    best-ranked first).  Stops at the first divergence, so [divergent] holds
    at most one schedule. *)

val shrink : ?replicas:int -> Schedule.t -> Schedule.t * int * bool
(** [shrink s] delta-debugs [s]'s entries to a 1-minimal list that still
    yields a [Divergent] verdict.  Returns [(minimal, probes, diverged)];
    when [diverged] is false the input did not reproduce and is returned
    unchanged. *)

val replay :
  ?replicas:int -> Schedule.t -> verdict * outcome * outcome
(** Run the canonical schedule and then [s]; returns
    [(verdict, canonical, perturbed)]. *)
