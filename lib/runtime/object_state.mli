(** The state of one replica's copy of the replicated object: mutex-reference
    fields, integer state fields and globals.

    Each kind of field is an int array indexed by a per-class {e offset},
    the position of the field's first declaration in the class.  The
    interpreter resolves names to offsets once, when it compiles a method
    ({!layout}), so the hot path indexes arrays; the by-name accessors look
    the offset up first and serve state transfer, tools and tests.

    {!fingerprint} folds the state into a hash compared across replicas by
    the consistency checker; it must be identical on every replica after the
    same request sequence under a deterministic scheduler. *)

type t

type layout
(** A class's field names and their offsets. *)

val layout : Detmt_lang.Class_def.t -> layout
(** A function of the class's declared field lists: the layout of an
    object built by {!create} from the same class. *)

val create : Detmt_lang.Class_def.t -> t

val self_mutex : t -> int
(** The mutex id of the object's own monitor ([this]). *)

(** {2 Offsets} *)

val state_offset : layout -> string -> int
(** [-1] for an undeclared field; likewise the two below. *)

val mutex_offset : layout -> string -> int

val global_offset : layout -> string -> int

val no_such : string -> string -> 'a
(** [no_such what f] raises the error a by-name access to an undeclared
    field raises: [Invalid_argument "Object_state: no <what> \"<f>\""]. *)

val state_count : t -> int

val mutex_count : t -> int

val state_name : t -> int -> string

val mutex_name : t -> int -> string

(** {2 By offset} — unchecked beyond the array bounds *)

val state_at : t -> int -> int

val set_state_at : t -> int -> int -> unit

val update_state_at : t -> int -> int -> unit
(** [update_state_at t o d] performs [field(o) += d]. *)

val mutex_at : t -> int -> int

val set_mutex_at : t -> int -> int -> unit

val global_at : t -> int -> int

(** {2 By name}
    @raise Invalid_argument for undeclared fields (see {!no_such}). *)

val mutex_field : t -> string -> int

val set_mutex_field : t -> string -> int -> unit

val global : t -> string -> int

val state_field : t -> string -> int

val update_state : t -> string -> int -> unit
(** [update_state t f d] performs [f += d]. *)

val set_state : t -> string -> int -> unit
(** Install a checkpointed value (passive replication). *)

(** {2 Snapshots} — in field-name order *)

val fingerprint : t -> int64

val state_snapshot : t -> (string * int) list
(** Sorted state-field values. *)

val mutex_field_snapshot : t -> (string * int) list
(** Sorted mutex-reference-field values — part of a state-transfer snapshot
    alongside {!state_snapshot}. *)
