(** An open-addressed table from int keys (any int but [min_int]) to int
    values, with linear probing.  A lookup, an insertion into a table with room and a
    removal allocate nothing; {!create} allocates only the record, the
    first insertion the arrays, and the table doubles when it is half full
    and never shrinks.  A key set keeps no value array.

    The pooled request tables are built on it: a key (a packed client
    request, or a nested call) maps to a {!Freelist} slot whose payload
    lives in the owner's arrays, so a lookup builds no option and an
    insertion no bucket. *)

type t

val create : unit -> t
(** An int-to-int table. *)

val create_set : unit -> t
(** A key set: {!find} reads [0] for a present key. *)

val length : t -> int

val mem : t -> int -> bool

val find : t -> int -> int
(** The key's value, or [-1] when the key is absent; callers that need to
    tell the two apart store non-negative values. *)

val add : t -> int -> int -> bool
(** [add t k v] binds [k] to [v] unless [k] is already bound, and tells
    whether it did; a bound key keeps its value.
    @raise Invalid_argument on [min_int]. *)

val replace : t -> int -> int -> unit
(** [replace t k v] binds [k] to [v], bound or not.
    @raise Invalid_argument on a key set or [min_int]. *)

val remove : t -> int -> unit
(** No-op when absent.  The probe run behind the key is shifted back, so
    no tombstone is left. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Over every binding (a set passes [0] as the value), in slot order: a
    function of the operation history, but not sorted. *)

val copy : t -> t
