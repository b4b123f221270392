(** A mutable index over integer keys (admission seqs or tids) that lie in a
    window moving forward with the oldest live thread: a ring of bit words
    over the live span, with an optional payload per key.  Iteration is
    ascending by key and every operation is a deterministic function of the
    operation history.

    [create] allocates only the record; the ring is allocated by the first
    [add] and grows only when the span of present keys outgrows it.  No
    operation allocates otherwise.  Keys must be non-negative. *)

type 'a t

val create : unit -> 'a t
(** An index carrying a payload per key. *)

val create_set : unit -> unit t
(** A key set: no value array is kept and {!get} must not be used. *)

val cardinal : 'a t -> int

val mem : 'a t -> int -> bool

val add : 'a t -> int -> 'a -> unit
(** Insert or replace.  A key below the current least one may be added. *)

val remove : 'a t -> int -> unit
(** No-op when absent. *)

val get : 'a t -> int -> 'a
(** The payload of a present key; unspecified for an absent one. *)

val min_key : 'a t -> int
(** The least key, or [-1] when empty. *)

val next_above : 'a t -> int -> int
(** The least key greater than the given one, or [-1].  The given key need
    not be present, so a loop may remove the key it stands on:
    [let k = ref (min_key t) in while !k >= 0 do ...;
    k := next_above t !k done]. *)
