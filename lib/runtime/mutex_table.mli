(** Binary, reentrant mutexes (the Java monitor model of section 2).

    The table only tracks ownership; admission policy and queueing live in the
    scheduler.  Misuse (acquiring a held mutex, releasing a foreign one)
    raises — a scheduler granting an illegal acquisition is a bug and must
    fail loudly.

    Mutexes are named by their slot in a {!Detmt_sim.Slot_map} shared with
    the replica's other per-mutex tables, so an operation interns its mutex
    once; a slot that was never held, or [-1], reads as a free mutex. *)

type t

val create : Detmt_sim.Slot_map.t -> t

val owner : t -> slot:int -> int option
(** Owning thread, if any. *)

val hold_count : t -> slot:int -> int
(** Reentrancy depth; 0 when free. *)

val owns : t -> slot:int -> tid:int -> bool
(** [owner t ~slot = Some tid], without building the option. *)

val is_free_for : t -> slot:int -> tid:int -> bool
(** Free, or already owned by [tid] (reentrant entry). *)

val acquire : t -> slot:int -> tid:int -> unit
(** @raise Invalid_argument when the mutex is held by another thread. *)

val release : t -> slot:int -> tid:int -> bool
(** Decrement the reentrancy count; returns [true] when the mutex became
    free.  @raise Invalid_argument when [tid] does not own the mutex. *)

val release_all : t -> slot:int -> tid:int -> int
(** Full release for [wait]: drops the whole reentrancy count and returns it
    so it can be restored on re-acquisition.
    @raise Invalid_argument when [tid] does not own the mutex. *)

val restore : t -> slot:int -> tid:int -> count:int -> unit
(** Re-acquisition after [wait]: restore the saved count.
    @raise Invalid_argument when the mutex is not free. *)

val holders : t -> (int * int) list
(** All currently held mutexes as [(mutex, owner)] pairs, sorted — deadlock
    diagnostics. *)

val held_by : t -> tid:int -> int list
(** Mutexes currently owned by the thread, sorted.  A fold over the whole
    table — diagnostics and tests only. *)

val holds_any : t -> tid:int -> bool
(** [held_by t ~tid <> []], in O(1): a per-thread count of owned mutexes is
    kept up to date whenever a mutex becomes held or free. *)

val forget : t -> tid:int -> unit
(** Drop a terminated thread's count.  A thread's count is allocated at its
    first acquisition and then updated in place, so acquiring and releasing
    a mutex the table covers allocates nothing; [forget] keeps the table
    as large as the live threads, not the run's history. *)
