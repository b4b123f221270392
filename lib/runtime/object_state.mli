(** The state of one replica's copy of the replicated object: mutex-reference
    fields, integer state fields and globals.

    {!fingerprint} folds the state into a hash compared across replicas by
    the consistency checker; it must be identical on every replica after the
    same request sequence under a deterministic scheduler. *)

type t

val create : Detmt_lang.Class_def.t -> t

val self_mutex : t -> int
(** The mutex id of the object's own monitor ([this]). *)

val mutex_field : t -> string -> int
(** @raise Invalid_argument for undeclared fields. *)

val set_mutex_field : t -> string -> int -> unit

val global : t -> string -> int

val state_field : t -> string -> int

val update_state : t -> string -> int -> unit
(** [update_state t f d] performs [f += d]. *)

val set_state : t -> string -> int -> unit
(** Install a checkpointed value (passive replication). *)

val fingerprint : t -> int64

val state_snapshot : t -> (string * int) list
(** Sorted state-field values. *)

val mutex_field_snapshot : t -> (string * int) list
(** Sorted mutex-reference-field values — part of a state-transfer snapshot
    alongside {!state_snapshot}. *)
