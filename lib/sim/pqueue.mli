(** The engine's event queue: a binary min-heap on [(time, seq)] keys.

    Keys are compared lexicographically; the event engine allocates
    monotonically increasing sequence numbers, so two events scheduled for
    the same virtual time are delivered in scheduling order.  That
    stability is what makes the whole simulation deterministic.

    A heap is enough: the engine's keys are unique, so the pop stream is a
    function of the keys alone, and on every benchmark workload its
    [O(log n)] sifts over three flat arrays cost no more wall time than
    the hierarchical timing wheel it replaced (EXPERIMENTS.md E23).

    Payloads are non-negative [int]s — the engine's pooled event-slot ids —
    and the arrays only grow.  The hot path passes no float across the
    module boundary (under dune's [-opaque] dev profile every such float
    is boxed): {!push_from} reads its time from a caller's flat float
    array and {!pop_raw} writes the popped time into the one-cell
    {!popped} array, so neither allocates.

    Contract (both guaranteed by the engine, both checked): times are
    non-negative, and a push never predates the time of the last pop. *)

type t

val create : unit -> t

val length : t -> int

val push : t -> time:float -> seq:int -> int -> unit
(** [push q ~time ~seq v] inserts payload [v >= 0] with key [(time, seq)].
    Raises [Invalid_argument] on a negative payload, a negative time, or a
    time before the last popped entry's.  It wraps [time] in a fresh cell
    for {!push_from}; hot paths call that directly. *)

val pop : t -> (float * int * int) option
(** Remove and return the minimum element, or [None] when empty.  Allocates
    the result; the engine's hot path uses {!pop_raw} instead. *)

val peek : t -> (float * int * int) option
(** Return the minimum element without removing it. *)

(** {1 Allocation-free hot path} *)

val push_from : t -> float array -> int -> seq:int -> int -> unit
(** [push_from q a i ~seq v] is [push q ~time:a.(i) ~seq v], reading the
    time from a flat float array so that no float is boxed. *)

val pop_raw : t -> int
(** Remove the minimum element and return its payload, or [-1] when empty.
    The popped key is readable through {!popped} / {!popped_seq} until the
    next pop. *)

val popped : t -> float array
(** The one-cell array that holds the time of the last pop ([neg_infinity]
    before the first).  It is the heap's own cell, the same for the heap's
    whole life, so a caller may keep it and read cell 0 after each
    {!pop_raw}. *)

val popped_seq : t -> int

val peek_time : t -> float
(** Time of the minimum element, or [infinity] when empty. *)

val due_by : t -> float -> bool
(** [due_by q limit] is [peek_time q <= limit] without boxing the time:
    [true] when the heap is non-empty and its minimum time is at most
    [limit]. *)
