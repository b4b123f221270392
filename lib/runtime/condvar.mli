(** Condition-variable wait sets.

    In Java (and in the system model of section 2) there is a 1:1
    relationship between mutexes and condition variables, so wait sets are
    keyed by the mutex's slot, in the replica's mutex slots (see
    {!Mutex_table}).  Wait sets are FIFO — the notification order is a
    deterministic function of the (deterministic) wait order, which is what
    lets the schedulers keep replicas consistent. *)

type t

val create : Detmt_sim.Slot_map.t -> t

val park : t -> slot:int -> tid:int -> unit
(** Append the thread to the mutex's wait set.  Allocates nothing once the
    set has held as many waiters before.
    @raise Invalid_argument when the thread is already parked there. *)

val notify_one : t -> slot:int -> int
(** Remove and return the longest-waiting thread; [-1] when none waits.
    Allocates nothing. *)

val notify_all : t -> slot:int -> int list
(** Remove and return all waiters in FIFO order. *)

val waiting : t -> slot:int -> int list

val remove : t -> slot:int -> tid:int -> bool
(** Remove a specific waiter (e.g. on failover); [true] if present. *)
