(** Decision policies: the policy half of the two-module architecture.

    A scheduler file exports plain policy functions; {!Registry} is the one
    place that binds a name to a policy, a prediction flag and a
    description.  {!instantiate} prepares the {!Substrate} (with a
    {!Bookkeeping} when the entry needs prediction) and applies the policy.

    A {!Serial} policy issues one grant at a time at pool width 1 — the nine
    paper schedulers.  A {!Parallel} policy additionally receives a {!Pool}
    — a deterministic allocator over [Substrate.workers] simulated workers —
    and may hold several threads in flight at once (the conflict-graph
    family). *)

open Detmt_runtime

(** Deterministic worker allocator for parallel policies: a dispatch always
    takes the lowest free worker index, so the assignment is a pure function
    of the grant order.  [capacity] is the nominal width a policy consults
    before dispatching fresh work; [dispatch] itself never fails, so a
    policy may deliberately oversubscribe (the conflict-graph family
    resumes condvar waiters on a transient extra worker to keep wakeup
    ordering independent of pool occupancy). *)
module Pool : sig
  type t

  val busy : t -> int

  val saturated : t -> bool
  (** [busy >= capacity], the capacity being [Substrate.workers]: no fresh
      dispatches until occupancy drops. *)

  val dispatch : t -> tid:int -> int
  (** Claim the lowest free worker for [tid] (allocating a transient extra
      one beyond capacity when all are busy), fire [actions.pool_dispatch],
      return the worker index.  The pool keeps no tid -> worker map: the
      policy keeps the index with the thread and must not dispatch a thread
      that already holds a worker. *)

  val complete : t -> worker:int -> tid:int -> unit
  (** Release [worker], the index {!dispatch} returned for [tid], and fire
      [actions.pool_complete]; a no-op for a negative [worker] (the thread
      holds none).  Allocates nothing. *)
end

type policy =
  | Serial of (Substrate.t -> Sched_iface.sched)
  | Parallel of (Substrate.t -> Pool.t -> Sched_iface.sched)
      (** The pool is created over [Substrate.workers] workers; the policy
          owns its occupancy (every dispatched thread must eventually be
          completed back). *)

val instantiate :
  policy ->
  needs_prediction:bool ->
  Sched_config.t ->
  Sched_iface.actions ->
  Sched_iface.sched
(** Build the substrate named [cfg.scheduler] over [cfg.runtime],
    [cfg.summary] and [cfg.workers], attach a {!Bookkeeping} when
    [needs_prediction], and apply the policy (with a fresh {!Pool} for a
    {!Parallel} one).  Checks nothing: {!Registry.instantiate} validates
    the configuration against the entry before calling it. *)
