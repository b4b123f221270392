(** The shared scheduler substrate — the policy-independent half of the
    paper's two-module architecture.  Owns thread lifecycle (arrival-ordered
    {!Seq_index}, thread records recycled at termination, no allocation per
    update once warmed), the gate each thread is
    stopped at, per-mutex FIFO wait queues, the prediction plumbing around
    {!Bookkeeping}, the flight-recorder helpers, and the one release path:
    {!perform} is the only caller of [actions.proceed].  Decision policies
    ({!Decision.policy}) keep only policy state. *)

open Detmt_runtime

(** What a thread is stopped at: nothing ([Open]), a lock acquisition, a
    monitor re-acquisition after notify, or a nested reply awaiting policy
    admission. *)
type gate = Open | Lock | Reacquire | Resume

type thread = {
  mutable tid : int;
  mutable seq : int;  (** admission order; re-admission gets a fresh one *)
  mutable is_primary : bool;
  mutable ex_primary : bool;
  mutable suspended : bool;
  mutable gate : gate;  (** set by {!hold}, reopened by {!perform} *)
  mutable gate_mutex : int;
      (** the mutex of a [Lock] or [Reacquire] gate; stale otherwise *)
}

type t

val create :
  ?bookkeeping:Bookkeeping.t ->
  ?summary:Detmt_analysis.Predict.class_summary ->
  ?workers:int ->
  name:string ->
  config:Config.t ->
  Sched_iface.actions ->
  t

val actions : t -> Sched_iface.actions

val name : t -> string

val config : t -> Config.t

val bookkeeping : t -> Bookkeeping.t option

val summary : t -> Detmt_analysis.Predict.class_summary option
(** The raw §4.3 prediction tables, when the construction path supplied
    them — delivery-time conflict-class resolution reads sync parameters
    straight from the method summaries. *)

val workers : t -> int
(** The simulated worker-pool width ([1] for serial decision modules). *)

val waitq : t -> Waitq.t

(** {1 Thread lifecycle} *)

val admit : t -> tid:int -> thread
(** Fresh request: register with bookkeeping and enter the admission order. *)

val enqueue : t -> tid:int -> thread
(** (Re-)enter the admission order at the tail with a fresh sequence number,
    without touching bookkeeping (pMAT wakeup re-admission). *)

val remove : t -> tid:int -> unit
(** Leave the order, keep the bookkeeping table (waiting threads). *)

val retire : t -> tid:int -> unit
(** Termination: leave the order, release the bookkeeping table and recycle
    the thread record: a policy may read it until the next {!admit} or
    {!enqueue}, which may reuse it, and never after. *)

val lookup : t -> int -> thread
(** The live thread with this tid, without an option to allocate.
    @raise Not_found when the thread is not live. *)

val thread : t -> int -> thread
(** @raise Invalid_argument when the thread is not live. *)

val by_seq : t -> int -> thread
(** The live thread admitted with this seq; decision modules keep seq-keyed
    {!Seq_index} sets and resolve their members here.  Unspecified when no
    live thread has the seq. *)

val iter : t -> f:(thread -> unit) -> unit
(** Ascending admission order. *)

val fold : t -> init:'a -> f:('a -> thread -> 'a) -> 'a

val threads : t -> thread list
(** Ascending admission order. *)

(** {1 Prediction queries} — pessimistic without a bookkeeping module *)

val predicted : t -> tid:int -> bool

val future_may_lock : t -> tid:int -> mutex:int -> bool

val no_future_locks : t -> tid:int -> bool

val future_mutexes : t -> tid:int -> int list option

val uses_condvars : t -> tid:int -> bool

(** {1 Bookkeeping event forwarders} — no-ops without a bookkeeping module *)

val bk_lockinfo : t -> tid:int -> syncid:int -> mutex:int -> unit

val bk_ignore : t -> tid:int -> syncid:int -> unit

val bk_acquired : t -> tid:int -> syncid:int -> mutex:int -> unit

val bk_loop_enter : t -> tid:int -> loopid:int -> unit

val bk_loop_exit : t -> tid:int -> loopid:int -> unit

(** {1 Observability} *)

val observing : t -> bool

val incr : ?by:int -> t -> string -> unit

val observe : t -> string -> float -> unit

val audit :
  t ->
  tid:int ->
  action:Detmt_obs.Audit.action ->
  ?mutex:int ->
  rule:Detmt_obs.Audit.rule ->
  ?candidates:int list ->
  unit ->
  unit

(** {1 Grants} *)

val hold : thread -> gate -> mutex:int -> unit
(** Record the gate the thread is stopped at (the [mutex] of a [Resume]
    gate is not read).  Allocates nothing. *)

val grant_action : thread -> Detmt_obs.Audit.action
(** The audit action releasing the thread's gate performs ([Grant_lock]
    for an [Open] one). *)

val perform : t -> thread -> unit
(** The only release path: reopen the thread's gate and call
    [actions.proceed], timed as the profiler's [Grant] phase.  Audit
    emission stays with the calling policy.  The replica raises
    [Invalid_argument] when the thread is stopped at no gate. *)
