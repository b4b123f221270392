(** Dense slots for int keys: an {!Int_table} from any int but [min_int] to
    a slot, handed out from 0 in order of first sight and never freed.
    Owners, possibly several, keep per-key payloads in arrays indexed by
    slot and grown with {!fit}, so a key is interned once for all of them.
    A warmed {!intern} or {!find} allocates nothing. *)

type t

val create : unit -> t

val find : t -> int -> int
(** The key's slot, or [-1]. *)

val intern : t -> int -> int
(** The key's slot, the next unused one at its first sight. *)

val fit : 'a array -> t -> 'a -> 'a array
(** [a] when it covers every slot handed out, else a copy grown to a power
    of two (at least 16) above them, whose new cells hold the filler. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Over every [(key, slot)] binding, in no useful order. *)

val key : t -> int -> int
(** A slot's key, by a {!fold}: for error messages. *)
