(** Slot indices for pooled struct-of-arrays records.

    A producer that posts typed engine events keeps each event's payload in
    parallel arrays indexed by a slot: {!alloc} hands out a free slot,
    {!release} returns it, and the capacity only grows (doubling), so the
    steady-state alloc/release cycle allocates nothing.  The payload arrays
    are the producer's; it re-sizes them with {!fit} after an {!alloc}. *)

type t

val create : unit -> t

val alloc : t -> int
(** A free slot; the most recently released first.  Slots are dense: the
    capacity doubles only when every slot is taken. *)

val release : t -> int -> unit
(** Return a slot.  The caller clears the slot's payload fields first, so
    what they reference is collectable. *)

val fit : 'a array -> t -> 'a -> 'a array
(** [fit a t fill] is [a] when it covers every slot [t] can hand out, else
    a copy grown to [t]'s capacity whose new cells hold [fill]. *)
