(** A pool of simulated CPU cores belonging to one replica.

    A compute segment occupies one core for its whole virtual duration; when
    all cores are busy the segment waits in a FIFO queue.  SEQ and SAT never
    have more than one runnable thread, so they can at most keep one core busy
    — exactly the inefficiency the paper criticises — whereas MAT-style
    schedulers exploit all cores. *)

type t

val create : Engine.t -> cores:int -> t
(** [create engine ~cores] makes a pool of [cores] >= 1 cores. *)

val exec : t -> duration:float -> (unit -> unit) -> unit
(** [exec t ~duration k] occupies a core for [duration] virtual ms (queueing
    FIFO if none is free) and then calls [k]. *)

val exec_h : t -> duration:float -> Engine.handler_id -> int -> unit
(** [exec_h t ~duration h x] is {!exec} with a typed continuation: when the
    segment completes, [h] is invoked with [x] (via {!Engine.invoke}).
    Segments are pooled and the duration reaches the engine unboxed, so
    the segment and its completion allocate nothing; only the engine's
    clock is re-boxed when the completion fires at a new instant. *)

val busy_time : t -> float
(** Cumulative core-busy virtual time — used to report CPU utilisation. *)
