(** The per-replica execution engine.

    Owns the object state, the mutex table, the condition variables, the
    simulated CPU cores and one interpreter thread per delivered request.
    Every synchronisation-relevant operation is routed through the attached
    scheduler exactly as the FTflex source transformation routes every
    [synchronized] statement through the scheduling module. *)

type thread_status =
  | Created  (** delivered, not yet started by the scheduler *)
  | Running  (** executing (or computing on a CPU) *)
  | Lock_blocked of { syncid : int; mutex : int }
  | Wait_parked of { mutex : int; count : int }
  | Reacquire_blocked of { mutex : int; count : int }
  | Nested_blocked of { call_index : int }
  | Nested_ready of { call_index : int }
  | Commit_pending
      (** speculation finished, its workspace held until the scheduler
          grants the slot-order commit barrier ([ws_commit]); still counts
          as an active thread *)
  | Terminated

type callbacks = {
  send_reply : Request.t -> unit;
  do_nested :
    tid:int -> call_index:int -> service:int -> duration:float -> unit;
      (** perform the nested invocation; the replication layer answers every
          replica through {!nested_reply} *)
  broadcast_control : Sched_iface.control -> unit;
  inject_dummy : unit -> unit;
  is_leader : unit -> bool;
}

type t

val create :
  engine:Detmt_sim.Engine.t ->
  id:int ->
  cls:Detmt_lang.Class_def.t ->
  config:Config.t ->
  ?obs:Detmt_obs.Recorder.t ->
  callbacks:callbacks ->
  make_sched:(Sched_iface.actions -> Sched_iface.sched) ->
  unit ->
  t
(** [cls] must be an instrumented class ({!Detmt_transform.Transform}).
    [obs] is the flight recorder (default {!Detmt_obs.Recorder.disabled});
    it is strictly read-only with respect to the execution. *)

val id : t -> int

val deliver_request : t -> Request.t -> unit
(** Called by the replication layer in total order: the request's uid is
    its total-order seq, so uids increase from one delivery to the next.
    @raise Invalid_argument on a uid at or below one already delivered
    (a duplicate delivery). *)

val nested_reply : t -> tid:int -> call_index:int -> unit
(** Deliver a nested-invocation reply.  Replies arriving before the thread
    reaches the call are buffered; a reply for a finished thread is
    ignored. *)

val deliver_control : t -> sender:int -> Sched_iface.control -> unit

val set_alive : t -> bool -> unit
(** Failure injection: a dead replica silently drops everything. *)

val alive : t -> bool

val state_fingerprint : t -> int64

val state_snapshot : t -> (string * int) list

val trace : t -> Detmt_sim.Trace.t

val object_state : t -> Object_state.t

val completed_requests : t -> int

val active_threads : t -> int
(** Threads delivered but not yet terminated.  O(1): a live-thread counter
    kept by {!deliver_request} and thread termination, not a scan of every
    thread the replica has admitted. *)

val thread_status : t -> int -> thread_status option
(** [None] for a tid above every delivered uid.  A finished thread is
    evicted from the replica, so it reads [Some Terminated], as does any tid
    at or below the highest delivered uid that is not live. *)

val threads_overview : t -> (int * thread_status) list
(** All non-terminated threads with their status, sorted by tid — deadlock
    diagnostics. *)

val lock_holders : t -> (int * int) list
(** Currently held mutexes as [(mutex, owner)] pairs, sorted. *)

val set_quiescent_hook : t -> (completed:int -> unit) -> unit
(** Install a hook fired each time the last active thread terminates (local
    quiescence).  The replication layer uses it to emit divergence-detector
    checkpoints; [completed] is the number of completed requests. *)

val sched_snapshot : t -> (string * int) list
(** Scheduler bookkeeping that must survive a state transfer
    ({!Sched_iface.sched.snapshot}). *)

val sched_restore : t -> (string * int) list -> unit

val cpu_busy_ms : t -> float

val ws_commits : t -> int
(** Speculative workspaces merged at their slot-order barrier. *)

val ws_aborts : t -> int
(** Discarded speculations — stale reads at the commit barrier or an
    unvirtualisable operation (wait/notify/nested).  Abort counts are a
    performance metric, not an observable: they may legitimately differ
    across replicas and perturbations while replies, states and acquisition
    fingerprints agree. *)

val mutex_acquisition_fingerprint : t -> int64
(** Hash of the per-mutex acquisition order (the sequence of owners of every
    mutex, combined across mutexes) — replicas running the same deterministic
    scheduler must agree.  Deliberately insensitive to the global interleaving
    of acquisitions of different mutexes, which LSA's leader/follower pair is
    allowed to differ on. *)

module Testing : sig
  val workspace : t -> int -> Workspace.t
  (** The live thread's workspace ([Workspace.none] when it executes
      directly), for the pool-ownership tests.
      @raise Invalid_argument for an unknown thread. *)
end
