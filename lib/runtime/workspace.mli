(** Copy-on-write object workspace for speculative request execution.

    A speculative thread reads and writes this view instead of the committed
    {!Object_state}: reads page fields in lazily (recording the observed
    value), writes go to a private overlay, and lock operations are
    virtualised.  At the deterministic slot-order commit barrier the replica
    validates the read set value-by-value against the committed state
    ({!conflicts}) and either merges the overlay ({!commit}) or discards the
    workspace so the thread re-executes directly — lowest-slot-wins.  See
    DESIGN.md "Deterministic workspaces". *)

type t

type conflict = {
  field : string;
  read_value : int;  (** the value this speculation observed *)
  committed_value : int;  (** the value at the commit barrier *)
}
(** One stale read detected at validation. *)

val create : base:Object_state.t -> record_acquisitions:bool -> t
(** [record_acquisitions] asks the replica to replay the virtual acquisition
    log into its per-mutex acquisition-order hashes at commit time (wss —
    fingerprints match SEQ); [false] keeps speculative executions out of the
    lock-machinery world entirely (cgs+ws). *)

val record_acquisitions : t -> bool

(** {2 Interpreter-facing state access} *)

val state_field : t -> string -> int

val update_state : t -> string -> int -> unit

val mutex_field : t -> string -> int

val set_mutex_field : t -> string -> int -> unit

(** {2 Virtual locking} *)

val vlock : t -> mutex:int -> unit
(** Re-entrant; with [record_acquisitions], every call (re-entrant ones
    included) is appended to the acquisition log, matching what direct
    execution records.  A hit on a mutex already in the table allocates
    nothing without [record_acquisitions]. *)

val vunlock : t -> mutex:int -> unit
(** @raise Invalid_argument when the mutex is not virtually held. *)

val holds_any : t -> bool
(** Some mutex is virtually held.  O(1): a count of held mutexes is kept by
    {!vlock} and {!vunlock}. *)

val acquisition_log : t -> int list
(** Virtually acquired mutexes in acquisition order; [[]] without
    [record_acquisitions]. *)

(** {2 Validation and merge} *)

val conflicts : t -> conflict list
(** Value-based read validation against the committed state, sorted by
    field.  Empty means the speculation is consistent with the slot-serial
    prefix and may merge. *)

val commit : t -> unit
(** Apply the write overlay to the committed state.  Only call after
    {!conflicts} returned []. *)

val read_set_size : t -> int

val write_set_size : t -> int
