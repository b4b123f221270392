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
    and the arrays only grow, so a push allocates nothing.  {!pop_raw}
    does allocate: it stores the popped time in a float field of a mixed
    record, which boxes it (2 words per pop).

    Contract (both guaranteed by the engine, both checked): times are
    non-negative, and a push never predates the time of the last pop. *)

type t

val create : unit -> t

val length : t -> int

val push : t -> time:float -> seq:int -> int -> unit
(** [push q ~time ~seq v] inserts payload [v >= 0] with key [(time, seq)].
    Raises [Invalid_argument] on a negative payload, a negative time, or a
    time before the last popped entry's. *)

val pop : t -> (float * int * int) option
(** Remove and return the minimum element, or [None] when empty.  Allocates
    the result; the engine's hot path uses {!pop_raw} instead. *)

val peek : t -> (float * int * int) option
(** Return the minimum element without removing it. *)

(** {1 Allocation-free hot path} *)

val pop_raw : t -> int
(** Remove the minimum element and return its payload, or [-1] when empty.
    The popped key is readable through {!popped_time} / {!popped_seq} until
    the next pop. *)

val popped_time : t -> float

val popped_seq : t -> int

val peek_time : t -> float
(** Time of the minimum element, or [infinity] when empty. *)
