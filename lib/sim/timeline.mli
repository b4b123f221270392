(** ASCII schedule timelines — the visual form of the paper's Figures 2
    and 3.

    One row per thread, sampled over virtual time:

    {v
    t0  ====####----nnnn====.
    t1     ....####====.
    v}

    [=] running, [#] holding at least one lock, [.] blocked on a lock
    grant, [w] waiting on a condition variable, [n] inside a nested
    invocation, space: not alive.  The states are reconstructed from a
    replica's timed trace. *)

type t

val of_trace : (float * Trace.event) list -> t
(** Build per-thread state intervals from {!Trace.timed_events}. *)

val threads : t -> int list

val span : t -> float * float
(** First and last event time. *)

val state_at : t -> tid:int -> time:float -> char
(** The rendered character for the thread's state at a virtual time. *)

val render : ?width:int -> Format.formatter -> t -> unit
(** Draw the timelines ([width] columns, default 72), one row per thread,
    plus a legend and the time scale. *)
