(** Copy-on-write object workspace for speculative request execution.

    A speculative thread reads and writes this view instead of the committed
    {!Object_state}: reads page fields in lazily (recording the observed
    value), writes go to a private overlay, and lock operations are
    virtualised.  At the deterministic slot-order commit barrier the replica
    validates the read set value-by-value against the committed state
    ({!conflicts}) and either merges the overlay ({!commit}) or discards the
    workspace so the thread re-executes directly — lowest-slot-wins.  See
    DESIGN.md "Deterministic workspaces".

    Fields are addressed by their {!Object_state} offsets.  The workspace is
    flat per-offset arrays plus a stack of the touched offsets, which
    validation, commit and {!reset} walk; once warmed it allocates nothing,
    and a replica recycles its workspaces through a {!Pool}. *)

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

val none : t
(** The workspace of no speculation, held by a directly executing thread:
    compare with [==].  Never read or written through. *)

(** {2 Interpreter-facing state access} — by {!Object_state} offset *)

val state_field : t -> int -> int

val update_state : t -> int -> int -> unit

val mutex_field : t -> int -> int

val set_mutex_field : t -> int -> int -> unit

(** {2 Virtual locking} *)

val vlock : t -> mutex:int -> unit
(** Re-entrant; with [record_acquisitions], every call (re-entrant ones
    included) is appended to the acquisition log, matching what direct
    execution records.  A mutex already in the assoc allocates nothing. *)

val vunlock : t -> mutex:int -> unit
(** @raise Invalid_argument when the mutex is not virtually held. *)

val holds_any : t -> bool
(** Some mutex is virtually held.  O(1): a count of held mutexes is kept by
    {!vlock} and {!vunlock}. *)

val acquisitions : t -> int
(** The length of the acquisition log; [0] without [record_acquisitions]. *)

val acquisition : t -> int -> int
(** [acquisition t i] is the [i]-th virtually acquired mutex, oldest first. *)

val acquisition_log : t -> int list
(** The whole log, as a fresh list. *)

(** {2 Validation and merge} *)

val conflicts : t -> conflict list
(** Value-based read validation against the committed state, sorted by
    field.  Empty means the speculation is consistent with the slot-serial
    prefix and may merge; an empty answer allocates nothing. *)

val commit : t -> unit
(** Apply the write overlay to the committed state.  Only call after
    {!conflicts} returned []. *)

val read_set_size : t -> int

val write_set_size : t -> int

val reset : t -> unit
(** Forget every read, write, delta, virtual lock and logged acquisition. *)

(** A replica's free workspaces over one committed object state. *)
module Pool : sig
  type ws := t

  type t

  val create : base:Object_state.t -> t

  val take : t -> record_acquisitions:bool -> ws
  (** A released workspace (as good as fresh), else a new one. *)

  val release : t -> ws -> unit
  (** {!reset} the workspace and return it to the free list.
      @raise Invalid_argument when it is already free, or belongs to
      another object state. *)

  val free : t -> int
  (** Workspaces on the free list. *)
end
