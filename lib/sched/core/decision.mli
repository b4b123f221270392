(** Decision modules: the policy half of the two-module architecture.  One
    first-class module per scheduler variant; {!instantiate} (serial) or
    {!instantiate_parallel} prepares the {!Substrate} (with a {!Bookkeeping}
    when the variant needs prediction) and applies the policy.

    {!Serial} is the single-grant signature the nine paper schedulers
    implement.  {!Parallel} policies additionally receive a {!Pool} — a
    deterministic allocator over [Substrate.workers] simulated workers — and
    may hold several threads in flight at once.  {!Of_serial} lifts a
    serial module into the parallel signature at pool width 1. *)

open Detmt_runtime

module type Serial = sig
  val name : string

  val needs_prediction : bool

  val policy : Substrate.t -> Sched_iface.sched
end

(** Deterministic worker allocator for parallel decision modules: a
    dispatch always takes the lowest free worker index, so the assignment is
    a pure function of the grant order.  [capacity] is the nominal width a
    policy consults before dispatching fresh work; [dispatch] itself never
    fails, so a policy may deliberately oversubscribe (the conflict-graph
    family resumes condvar waiters on a transient extra worker to keep
    wakeup ordering independent of pool occupancy). *)
module Pool : sig
  type t

  val busy : t -> int

  val saturated : t -> bool
  (** [busy >= capacity], the capacity being [Substrate.workers]: no fresh
      dispatches until occupancy drops. *)

  val dispatch : t -> tid:int -> int
  (** Claim the lowest free worker for [tid] (allocating a transient extra
      one beyond capacity when all are busy), fire [actions.pool_dispatch],
      return the worker index.
      @raise Invalid_argument when the thread is already placed. *)

  val complete : t -> tid:int -> unit
  (** Release the thread's worker (no-op when it holds none) and fire
      [actions.pool_complete]. *)
end

module type Parallel = sig
  val name : string

  val needs_prediction : bool

  val policy : Substrate.t -> Pool.t -> Sched_iface.sched
end

module Of_serial (_ : Serial) : Parallel
(** Pool width must be 1; the lifted policy raises otherwise. *)

val instantiate :
  (module Serial) ->
  config:Config.t ->
  summary:Detmt_analysis.Predict.class_summary option ->
  Sched_iface.actions ->
  Sched_iface.sched
(** @raise Invalid_argument when the variant needs prediction and no summary
    is given. *)

val instantiate_parallel :
  (module Parallel) ->
  config:Config.t ->
  summary:Detmt_analysis.Predict.class_summary option ->
  workers:int ->
  Sched_iface.actions ->
  Sched_iface.sched
(** As {!instantiate}, with the substrate prepared for [workers] simulated
    pool workers.
    @raise Invalid_argument when [workers < 1], or when the variant needs
    prediction and no summary is given. *)
