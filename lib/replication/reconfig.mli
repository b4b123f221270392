(** The multi-group runtime: sharded replication with deterministic live
    shard split / merge and scheduler hot swap.

    A {!t} is a dynamic set of {!Active} groups — one Totem bus, one replica
    set, one scheduler substrate instance each — behind an epoch-versioned
    routing table.  Object (mutex) ids hash onto a {e fixed} slot space
    ({!route} over [params.slots]); an epoch assigns each slot to a live
    group, so elasticity moves slots between groups without ever moving an
    object's hash placement.  A system with no command and no policy is
    the static sharded layout.

    Every client request is routed by its {e predicted lock closure}: the
    §4.3 summary when the scheduler uses one, otherwise a conservative
    syntactic scan of the source body (through same-class calls).  Requests
    whose closure lives on one group take the {e fast path} and are ordered
    by that group only; requests that lock nothing run on the coordinator
    (the lowest live group); requests spanning several groups — opaque
    closures span all of them — take a deterministic {e two-phase ordered
    delivery}: phase 1 orders the request on the smallest involved group,
    and the moment it holds a slot in that group's total order, phase 2
    submits it to the remaining groups in ascending order.  The client reply
    fires when every involved group has answered.

    Every elastic operation — {!command} — runs the same totally-ordered
    transition protocol:

    + a barrier is stamped into the coordinator group's total order
      ({!Active.order_barrier}) and spread to every live group, so each
      replica observes the epoch change at a slot of its own order;
    + admission freezes: new submissions and client retries queue;
    + the in-flight window drains deterministically — every pending request
      (cross-group two-phase deliveries included) is answered and every live
      group reaches quiescence, the invariant {!Active.recover_replica}'s
      donor sampling relies on (a drain that exceeds
      [params.drain_timeout_ms] of virtual time aborts the command instead
      of wedging the run);
    + the command applies: split bootstraps a fresh group from the donor's
      quiescent snapshot ({!Active.bootstrap}) and hands it half the donor's
      slots; merge folds the retiring group's state counters and dedup
      ledger into the survivor ({!Active.absorb_state},
      {!Active.merge_dedups}) and reassigns its slots; hot swap reincarnates
      a group under a new scheduler with the full substrate state carried
      over.  The epoch increments and every live group's membership view is
      re-tagged ({!Detmt_gcs.Group.set_epoch});
    + admission thaws and the held queue flushes in FIFO order, with every
      entry re-resolving its route under the new epoch.

    All of it is driven by seeded simulation events, so equal-seed runs
    transition at identical virtual times with identical barrier sequence
    numbers — {!fingerprint} and {!epochs_agree} are the oracles.  A 1-group
    epoch-0 system is byte-for-byte the unsharded {!Active} path. *)

type t

type command =
  | Split of int
      (** [Split g]: a fresh group takes every second slot [g] owns. *)
  | Merge of { from_g : int; into : int }
      (** [from_g] retires; [into] absorbs its slots, state and ledger. *)
  | Hot_swap of { group : int; scheduler : string }
      (** Rebuild [group]'s decision module under [scheduler] (a
          {!Detmt_sched.Registry} name) at a drained barrier. *)

val command_to_string : command -> string

type transition = {
  tr_epoch : int;  (** the epoch this transition established *)
  tr_at_ms : float;  (** virtual time the command applied *)
  tr_barrier_seq : int;  (** the barrier's coordinator total-order slot *)
  tr_command : command;
  tr_groups : int;  (** live groups after the transition *)
}

type params = {
  initial_groups : int;
  slots : int;
      (** size of the fixed routing-slot space; slot [s] starts on group
          [s mod initial_groups] *)
  max_groups : int;  (** hard cap on concurrently live groups *)
  base : Active.params;
      (** per-group template: [scheduler] / [workers] / [replica_base] /
          [faults] are derived per incarnation (a hot swap names the
          scheduler and the pool width follows it; incarnation [i] gets
          replica ids from [i * replicas] and a fault seed salted by [i];
          incarnation 0 keeps the base seed), [base.replica_base] must be
          0 *)
  drain_timeout_ms : float;
      (** virtual-time budget for a drain (re-checked every 0.5 ms);
          exceeding it aborts the command *)
}

val default_params : params
(** 1 initial group, 64 slots, cap 16, over {!Active.default_params}. *)

val route : shards:int -> int -> int
(** [route ~shards m] places object (mutex) id [m] on one of [shards]
    buckets: a stable SplitMix64 hash of [m] alone — no state, no seed — so
    every participant agrees on the placement without communicating.  Slot
    [s] of a static layout starts on group [s mod initial_groups], so for a
    group count dividing [slots] an object lands on group
    [route ~shards:groups m]. *)

(** {2 Autoscaling}

    A deterministic controller over the per-group queue depths the router
    maintains (exported as [reconfig.<g>.queue_depth] detmt.obs gauges):
    split the hottest group above the high watermark and merge cold groups
    below the low one; it never merges the last group and never issues a
    [Hot_swap] (that stays an explicit {!request}).  At most one command per
    tick; ticks re-arm only while work is in flight, so the controller
    never keeps the simulation alive. *)

type policy = {
  interval_ms : float;  (** tick period (virtual time) *)
  split_above : int;  (** split the hottest group at this queue depth *)
  merge_below : int;  (** groups at or below this depth are mergeable *)
  max_live : int;  (** controller's own live-group ceiling *)
}

val create :
  ?obs:Detmt_obs.Recorder.t ->
  ?on_group:(index:int -> Active.t -> unit) ->
  engine:Detmt_sim.Engine.t ->
  cls:Detmt_lang.Class_def.t ->
  params:params ->
  unit ->
  t
(** [on_group] fires for every group the system ever creates — the initial
    ones and every split / hot-swap incarnation — before it carries any
    traffic; chaos monitors and explorer oracles hook in here.
    @raise Invalid_argument on inconsistent [params]. *)

val request : t -> command -> unit
(** Start (or, while a transition is in progress, queue) an elastic command.
    Queued commands are validated only when they reach the front; one the
    world has outrun (e.g. a merge of a since-retired group) aborts instead
    of applying.
    @raise Invalid_argument when no transition is in progress and the
    command is invalid right now. *)

val request_at : t -> at:float -> command -> unit
(** Schedule [request] at virtual time [at].  A command the world has
    outrun by then (its group missing or retired) is dropped and counted in
    {!aborted_transitions} instead of raising — it races every transition
    scheduled before it. *)

val set_autoscale : t -> policy -> unit
(** Install the autoscaling controller (arm it before the clients run). *)

val submit :
  t ->
  client:int ->
  client_req:int ->
  meth:string ->
  args:Detmt_lang.Ast.value array ->
  on_reply:Active.on_reply ->
  unit
(** Route and submit one request ({!Client.submit_fn} shape).  Exactly-once
    end to end across epochs: a submission or retry arriving while a
    transition is draining is held and re-routed under the new epoch, a
    retry of an already-answered request is dropped, and a retry landing on
    a freshly split group is suppressed by the dedup ledger the group
    inherited from its donor.  Response times are measured from first
    admission, so reconfiguration stalls are paid honestly. *)

val kill_replica : t -> group:int -> offset:int -> unit
(** Fail replica [offset] (0-based within the group) of group [group] now. *)

val recover_replica : t -> group:int -> offset:int -> at:float -> unit
(** Schedule the recovery of [offset] in group [group] at time [at].  The
    group's {e current} incarnation is resolved at fire time, so a recovery
    racing a hot swap lands on whichever incarnation serves the group when
    it fires. *)

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
(** Closed-loop clients against the elastic system — the same client code as
    the unsharded path, with an epoch-aware deadlock report. *)

(** {2 Introspection} *)

val epoch : t -> int
(** Transitions applied so far. *)

val transitions : t -> transition list
(** In application order. *)

val group_count : t -> int
(** Live groups right now. *)

val live_systems : t -> Active.t list
(** The live groups' current incarnations, by ascending group index. *)

val groups_ever : t -> Active.t list
(** Every incarnation the system ever ran — live ones first, then retired
    (merged-away groups and pre-swap incarnations) — for whole-history
    consistency checks and counter totals. *)

val group_set :
  t -> meth:string -> args:Detmt_lang.Ast.value array -> int list
(** The live group indices a request involves under the current epoch,
    ascending — exposed for tests. *)

val route_of : t -> int -> int
(** Current owning group of object (mutex) id — exposed for tests. *)

val replies_received : t -> int

val reply_times : t -> float list
(** Client-side reply arrival times, in order. *)

val response_times : t -> Detmt_stats.Summary.t

val fast_path_requests : t -> int

val cross_group_requests : t -> int

val held_requests : t -> int
(** Submissions that queued behind a reconfiguration barrier. *)

val aborted_transitions : t -> int

val splits : t -> int

val merges : t -> int

val swaps : t -> int

val recoveries : t -> int
(** Completed recoveries across every incarnation. *)

val broadcasts : t -> int
(** Total broadcasts across every incarnation. *)

val duplicate_client_replies : t -> int
(** Across every incarnation; zero in a correct run. *)

val aggregate_state : t -> (string * int) list
(** State-field totals summed across live groups, sorted by field.  With
    commutative per-group counters this is the split/merge-invariant
    aggregate: a split-then-merge cycle leaves it exactly where the static
    run put it. *)

val reports : t -> Consistency.report list
(** Every incarnation's live replicas compared ({!Consistency.check}), one
    report per incarnation in {!groups_ever} order — retired incarnations
    frozen at their last barrier. *)

val consistent : t -> bool
(** Every report of {!reports} agrees on state, acquisition order and
    trace. *)

val states_agree : t -> bool
(** Every report of {!reports} agrees on observable state — the
    recovery-tolerant oracle ({!consistent} minus trace/acquisition
    comparison, which a recovered replica's suffix-only history cannot
    satisfy); the contract {!Chaos} checks after crash-recovery runs. *)

val epochs_agree : t -> bool
(** Within every incarnation, all live replicas hold identical barrier
    fingerprints ({!Active.barrier_fingerprints}): every epoch transition
    was observed bit-identically at the same total-order slot. *)

val fingerprint : t -> int64
(** FNV-1a fold of every incarnation's live-replica ids, trace and state
    fingerprints (in {!groups_ever} order) and the reply count, with the
    transition log (epoch, barrier slot, virtual time, command) folded on
    after it — the seed-reproducibility oracle for multi-group runs. *)

val order_fingerprint : t -> int64
(** FNV-1a fold of every incarnation's {!Active.order_fingerprint}, in
    {!groups_ever} order, then each transition's epoch and barrier slot.
    Equal values mean two runs saw the same total orders and applied every
    transition at the same slot — the elastic counterpart of
    {!Active.order_fingerprint}. *)
