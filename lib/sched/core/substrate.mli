(** The shared scheduler substrate — the policy-independent half of the
    paper's two-module architecture.  Owns thread lifecycle (arrival-ordered
    candidate index, O(log n) per update), per-mutex FIFO wait queues, the
    prediction plumbing around {!Bookkeeping}, and the flight-recorder
    helpers.  Decision modules ({!Decision.Serial}) keep only policy state. *)

open Detmt_runtime

type pending = Lock of int | Reacquire of int | Resume

type thread = {
  tid : int;
  seq : int;  (** admission order; re-admission gets a fresh one *)
  mutable is_primary : bool;
  mutable ex_primary : bool;
  mutable suspended : bool;
  mutable pending : pending option;
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
(** Termination: leave the order and release the bookkeeping table. *)

val find_thread : t -> int -> thread option

val thread : t -> int -> thread
(** @raise Invalid_argument when the thread is not live. *)

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

val future_set : t -> tid:int -> Bookkeeping.Iset.t option
(** As {!future_mutexes}, as the bookkeeping table's own set (no list
    built); [None] when not predicted. *)

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

val perform : t -> thread -> unit
(** Execute and clear the thread's pending operation; audit emission stays
    with the calling policy.
    @raise Invalid_argument when nothing is pending. *)
