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

    Every schedule is one {!Detmt_replication.Checked_run.run} through
    {!Detmt_replication.Reconfig}, the run {!Detmt_replication.Chaos}
    makes too.  A static schedule issues no command; one marked [elastic]
    issues a canonical split/merge cycle (split at 6 ms, merge back at
    20 ms of virtual time), so the oracle set additionally demands that
    every epoch transition applies and is observed bit-identically by every
    replica of every incarnation, and candidate generation enumerates
    crash/recovery points {e inside} the reconfiguration window. *)

type observation = {
  obs_deliveries : (int * int * float) list;
      (** every point-to-point delivery: (seq, dest, planned arrival) *)
  obs_ties : int list;  (** width of each multi-way simultaneity, in order *)
  obs_journal : float array;  (** executed-event times *)
  obs_broadcasts : int;
}

val run_one :
  ?observe:bool ->
  cls:Detmt_lang.Class_def.t ->
  gen:Detmt_replication.Client.request_gen ->
  Schedule.t ->
  Detmt_replication.Checked_run.outcome * observation
(** Execute one schedule on three replicas.  With [observe] (default
    false) the run also journals events and records every delivery and tie
    instant — the raw material for candidate generation.  A schedule with no
    entries is the canonical run.  The outcome's [o_order_fp] is
    {!Detmt_replication.Reconfig.order_fingerprint}: every incarnation's
    broadcast total order plus each transition's epoch and barrier slot.
    @raise Invalid_argument when a crash entry names a replica outside
    [0 .. 2]. *)

type verdict =
  | Equivalent
      (** same total order, same replies and states as canonical *)
  | Order_shifted
      (** the perturbation moved the broadcast total order itself (timing
          feeds back through closed-loop clients and control traffic);
          internally consistent, hence admissible *)
  | Divergent of string  (** a real scheduler-determinism violation *)

val classify :
  canonical:Detmt_replication.Checked_run.outcome ->
  Detmt_replication.Checked_run.outcome ->
  verdict
(** {!Detmt_replication.Checked_run.violation}, a missing reconfiguration
    or an introduced stall is [Divergent]; otherwise the run is compared
    with [canonical] when the total order is unchanged. *)

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

val shrink : Schedule.t -> Schedule.t * int * bool
(** [shrink s] delta-debugs [s]'s entries to a 1-minimal list that still
    yields a [Divergent] verdict.  Returns [(minimal, probes, diverged)];
    when [diverged] is false the input did not reproduce and is returned
    unchanged. *)

val replay :
  Schedule.t ->
  verdict
  * Detmt_replication.Checked_run.outcome
  * Detmt_replication.Checked_run.outcome
(** Run the canonical schedule and then [s]; returns
    [(verdict, canonical, perturbed)].
    @raise Invalid_argument as {!run_one}. *)
