(** Active replication of one object group.

    Wires the whole system together: a total-order bus carrying client
    requests, nested-invocation replies and scheduler control messages; [n]
    replicas each running the same instrumented class under the same
    deterministic scheduler; simulated external services for nested
    invocations; and duplicate suppression.

    Nested invocations follow section 2: only one replica (the current
    leader) performs the external call, and the reply is spread to all
    replicas through the bus, so every replica resumes the thread at the same
    total-order position.

    The bus can run over a degraded transport ({!Detmt_gcs.Faults}), and a
    killed replica can rejoin through {!recover_replica}: a group view
    change plus a state transfer from a live donor sampled at quiescence,
    followed by an in-order replay of the missed message suffix. *)

type t

type params = {
  replicas : int;
  scheduler : string;  (** a {!Detmt_sched.Registry} name *)
  workers : int;
      (** simulated worker-pool width, threaded into
          [Sched_config.workers]; must be [1] unless the scheduler is in
          {!Detmt_sched.Registry.parallel_decisions} *)
  config : Detmt_runtime.Config.t;
  net_latency_ms : float;  (** replica <-> replica one-way latency *)
  client_latency_ms : float;  (** client <-> replica one-way latency *)
  detection_timeout_ms : float;  (** failure-detection delay *)
  faults : Detmt_gcs.Faults.spec option;
      (** degrade the transport under the bus; [None] = perfect network *)
  replica_base : int;
      (** first replica id of this group; ids are [base, base + replicas).
          {!Reconfig} gives each group a disjoint id window so flight-recorder
          spans and checkpoints never collide across groups. *)
  batching : Detmt_gcs.Totem.batching option;
      (** batched total-order delivery on the bus; [None] (the default)
          puts every broadcast on the wire immediately *)
}

val default_params : params

type checkpoint_sink =
  replica:int -> seq:int -> hash:int64 -> state:(string * int) list -> unit
(** A divergence-detector observer: replica [replica] reached checkpoint
    [seq] (monotone per replica, comparable across replicas) with state
    fingerprint [hash] and field values [state]. *)

val create :
  ?obs:Detmt_obs.Recorder.t ->
  engine:Detmt_sim.Engine.t ->
  cls:Detmt_lang.Class_def.t ->
  params:params ->
  unit ->
  t
(** [cls] is the {e source} class: the constructor applies the transformation
    the chosen scheduler needs (basic or predictive).  [obs] (default
    {!Detmt_obs.Recorder.disabled}) is threaded through the bus, every
    replica and every scheduler; recording is strictly read-only. *)

val submit :
  ?on_ordered:(seq:int -> unit) ->
  t ->
  client:int ->
  client_req:int ->
  meth:string ->
  args:Detmt_lang.Ast.value array ->
  on_reply:(response_ms:float -> unit) ->
  unit
(** Broadcast one request; [on_reply] fires at the client when the first
    replica reply arrives, with the end-to-end response time.  Resubmitting
    an already-answered [(client, client_req)] is a no-op, so client-side
    retries keep exactly-once semantics.  [on_ordered] fires the moment the
    request is stamped into this group's total order (at broadcast, after
    the client->sequencer latency), with its sequence number — the anchor
    for the cross-group two-phase protocol ({!Reconfig}); a retry that
    re-broadcasts fires it again. *)

val engine : t -> Detmt_sim.Engine.t

val replicas : t -> Detmt_runtime.Replica.t list

val live_replicas : t -> Detmt_runtime.Replica.t list

val group : t -> Detmt_gcs.Group.t

val kill_replica : t -> int -> unit
(** Fail a replica now: it stops executing and receiving. *)

val recover_replica : t -> ?at:float -> int -> unit
(** Bring a killed replica back (at [at], default now).  The recovery waits
    for a live donor to reach quiescence (re-checking every 1 ms of virtual
    time), transfers its snapshot (object state, mutex fields, scheduler
    bookkeeping, duplicate-suppression table) stamped with the donor's
    total-order watermark, rejoins the group (a
    [Join] view; seniority ordering means the rejoiner never becomes
    leader), and replays the missed message suffix in sequence order.
    No-op if the replica is already live.
    @raise Failure when no live donor exists. *)

val set_checkpoint_sink : t -> checkpoint_sink -> unit
(** Install the divergence-detector observer; each replica reports at every
    local quiescence point. *)

(** {2 Elastic reconfiguration support}

    The {!Reconfig} layer anchors every epoch transition on a totally-ordered
    barrier and moves state between groups with the same quiescent-donor
    invariant {!recover_replica} relies on: a group's state is a pure
    function of its delivered prefix only while no thread is running. *)

val order_barrier :
  t -> epoch:int -> label:string -> on_ordered:(seq:int -> unit) -> unit
(** Broadcast a reconfiguration barrier: a no-op for the interpreter, but it
    occupies a slot in this group's total order — the agreed point of an
    epoch transition.  [on_ordered] fires with the slot's sequence number.
    Every replica folds the delivered barrier into a per-replica fingerprint
    ({!barrier_fingerprints}). *)

val barrier_fingerprints : t -> (int * int64 * int) list
(** Per live replica: [(id, fold of every delivered (seq, epoch, label),
    barriers seen)].  Equal folds across replicas mean every epoch
    transition was observed at the same total-order slot — the
    bit-identical-transition oracle.  A recovered replica inherits its
    donor's fold with the snapshot. *)

val quiescent : t -> bool
(** No live replica is executing a thread (and at least one is live) — the
    drained-barrier condition under which snapshots and transplants are pure
    functions of the delivered prefix. *)

val donor_state : t -> (string * int) list
(** The state-field snapshot of the lowest-id live replica — the merge
    delta a retiring group hands to its survivor.  Only meaningful at
    {!quiescent}.
    @raise Failure when no replica is live. *)

val absorb_state : t -> delta:(string * int) list -> unit
(** Add [delta] to every live replica's state fields — the merge fold.
    Deterministic when run at a drained barrier (between any two delivered
    requests, identically on all replicas). *)

val merge_dedups : t -> from:t -> unit
(** Union [from]'s duplicate-suppression ledger into every replica of [t]:
    after a merge re-routes the retired group's objects, a retry of a
    request the retired group executed must stay suppressed. *)

val bootstrap : t -> from:t -> carry_state:bool -> unit
(** Bootstrap a freshly created, traffic-free group from a quiescent donor
    group — the split / hot-swap state transfer.  Always carried: the dedup
    ledger, the mutex-reference fields, and per-offset replica aliveness (a
    swap cannot resurrect a crashed replica).  [carry_state] additionally
    clones the object state fields and completed counts (hot swap: the same
    logical group continues under a new scheduler; split: the new group
    starts its own per-group counters at zero).
    @raise Invalid_argument if [t] already carried traffic.
    @raise Failure when [from] has no live replica. *)

val recoveries : t -> int
(** Completed recoveries. *)

val logged_messages : t -> int
(** Broadcasts kept for recovery replay: those some live replica has not
    delivered yet.  The log is trimmed after every delivery, so its length
    follows the messages in flight, not the length of the run. *)

val faults : t -> Detmt_gcs.Faults.t option
(** The fault plan attached to the bus, for its counters. *)

val set_delivery_oracle :
  t ->
  (seq:int -> sender:int -> dest:int -> planned_ms:float -> float) option ->
  unit
(** Forwarded to {!Detmt_gcs.Totem.set_delivery_oracle} on the group's bus:
    the schedule-space explorer's per-delivery latency perturbation hook. *)

val set_flush_oracle : t -> (seq:int -> pending:int -> bool) option -> unit
(** Forwarded to {!Detmt_gcs.Totem.set_flush_oracle}: the explorer's forced
    early batch-flush hook (no-op without batching). *)

val order_fingerprint : t -> int64
(** Order-sensitive hash of every broadcast (seq, sender, payload identity
    in total order), folded as each message is broadcast.  Equal
    fingerprints mean two runs saw the same total order, so reply/state
    differences between them indict the scheduler;
    unequal fingerprints mean the perturbation shifted the total order
    itself, and per-run internal replica agreement is the only meaningful
    check. *)

val response_times : t -> Detmt_stats.Summary.t

val replies_received : t -> int

val outstanding_requests : t -> (int * int) list
(** Requests submitted but not yet answered, as sorted
    [(client, client_req)] pairs — deadlock diagnostics. *)

val duplicate_client_replies : t -> int
(** Replies that would have fired a client callback twice, suppressed by the
    exactly-once guard.  Zero in a correct run. *)

val reply_times : t -> float list
(** Client-side reply arrival times, in order — input to the take-over-time
    analysis. *)

val message_stats : t -> (string * int) list
(** Broadcast counts by category (requests, nested replies, control,
    dummies). *)

val broadcasts : t -> int

val wire_batches : t -> int
(** Batches the bus flushed onto the wire; [0] when batching is disabled. *)

val params : t -> params

val summary : t -> Detmt_analysis.Predict.class_summary option
(** The prediction summary, when the scheduler required the predictive
    transformation. *)

val scheduler_name : t -> string
