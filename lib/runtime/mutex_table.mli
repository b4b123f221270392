(** Binary, reentrant mutexes (the Java monitor model of section 2).

    The table only tracks ownership; admission policy and queueing live in the
    scheduler.  Misuse (acquiring a held mutex, releasing a foreign one)
    raises — a scheduler granting an illegal acquisition is a bug and must
    fail loudly. *)

type t

val create : unit -> t

val owner : t -> mutex:int -> int option
(** Owning thread, if any. *)

val hold_count : t -> mutex:int -> int
(** Reentrancy depth; 0 when free. *)

val is_free_for : t -> mutex:int -> tid:int -> bool
(** Free, or already owned by [tid] (reentrant entry). *)

val acquire : t -> mutex:int -> tid:int -> unit
(** @raise Invalid_argument when the mutex is held by another thread. *)

val release : t -> mutex:int -> tid:int -> bool
(** Decrement the reentrancy count; returns [true] when the mutex became
    free.  @raise Invalid_argument when [tid] does not own the mutex. *)

val release_all : t -> mutex:int -> tid:int -> int
(** Full release for [wait]: drops the whole reentrancy count and returns it
    so it can be restored on re-acquisition.
    @raise Invalid_argument when [tid] does not own the mutex. *)

val restore : t -> mutex:int -> tid:int -> count:int -> unit
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
