(** Functional FIFO queue with O(1) push and amortised O(1) pop.  Element
    order is the append order, so it is a drop-in replacement for the
    [xs @ [x]] list idiom in decision modules. *)

type 'a t

val empty : 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> 'a t

val pop : 'a t -> ('a * 'a t) option

val to_list : 'a t -> 'a list
(** Oldest first — the order [pop] would return them. *)

val for_all : ('a -> bool) -> 'a t -> bool
(** Builds no list; visits elements out of FIFO order, so [p] must be
    pure. *)

val exists : ('a -> bool) -> 'a t -> bool
(** As {!for_all}. *)

val filter : ('a -> bool) -> 'a t -> 'a t
