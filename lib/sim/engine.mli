(** Discrete-event simulation engine with a virtual clock.

    Time is a [float] in virtual milliseconds.  Simultaneous events run in
    scheduling order (stable tie-break on a global sequence number), which
    together with the seeded {!Rng} makes every run bit-reproducible.

    Events are typed: a producer {!register_handler}s an [int -> unit]
    dispatch function once and then {!post}s [(handler, arg)] pairs, which
    land in a pooled event arena, so an event allocates no closure and no
    record, and it boxes no time either: a post hands its time to the heap
    in a flat float cell, and firing re-boxes the clock (2 words) only when
    the popped time differs from it.  Events at an unchanged instant cost
    nothing.  The one float a caller still boxes is a computed [~delay] or
    [~time] argument: under dune's [-opaque] dev profile every float that
    crosses a module boundary is boxed, so a producer with a computed time
    keeps it in a float array and posts with {!post_from} /
    {!post_at_from}.
    {!schedule} / {!schedule_at} remain as the thunk constructor for cold
    paths (test setup, one-shot fault injections); a thunk event is simply
    handler 0 with the closure in its slot, and {!thunks_executed} counts
    them. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in milliseconds.  The clock is kept boxed, so
    this is a pointer read that allocates nothing. *)

(** {1 Typed events} *)

type handler_id = int
(** Index into the engine's dispatch table.  Obtain one only from
    {!register_handler}; ids are positive (0 is the internal thunk
    handler) and never recycled. *)

val register_handler : t -> (int -> unit) -> handler_id
(** Register a dispatch function and return its id.  Producers register
    once (capturing their own state) and pass the id to {!post}; the
    argument is the event's immediate [int] payload. *)

val post : t -> delay:float -> handler_id -> int -> unit
(** [post t ~delay h x] runs [invoke t h x] at [now t +. delay] without
    allocating: the event is a pooled arena slot.  [delay] must be
    non-negative; a zero delay runs after all callbacks already queued for
    the current instant. *)

val post_at : t -> time:float -> handler_id -> int -> unit
(** [post_at t ~time h x] is {!post} at absolute virtual time [time],
    which must not lie in the past. *)

val post_from : t -> float array -> int -> handler_id -> int -> unit
(** [post_from t delays i h x] is [post t ~delay:delays.(i) h x], reading
    the delay from a flat float array so that no float is boxed. *)

val post_at_from : t -> float array -> int -> handler_id -> int -> unit
(** [post_at_from t times i h x] is [post_at t ~time:times.(i) h x],
    reading the time from a flat float array so that no float is boxed. *)

val invoke : t -> handler_id -> int -> unit
(** Call a registered handler synchronously (no event, no clock movement).
    Lets a producer that stored a [(handler, arg)] continuation run it
    inline on a zero-cost path. *)

(** {1 Thunk events (cold path)} *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].  [delay] must be
    non-negative; a zero delay runs [f] after all callbacks already queued for
    the current instant. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at absolute virtual time [time], which
    must not lie in the past. *)

(** {1 Execution} *)

val run : ?until:float -> t -> unit
(** Execute events until the queue drains, or — when [until] is given — until
    the next queued event lies strictly after [until].  The boundary is
    inclusive: an event scheduled exactly at [until] runs, and so does
    anything it schedules at a time [<= until] (including same-instant
    cascades at the boundary itself).  Events strictly after [until] remain
    queued, and the clock is left at the last executed event's time — it is
    {e not} advanced to [until], so a later [run] continues seamlessly. *)

val set_order_oracle : t -> (count:int -> int) option -> unit
(** Schedule-injection hook for the schedule-space explorer: when several
    events are eligible at the same instant, the oracle is consulted with
    their [count] and returns the index (in canonical scheduling order) of
    the one to run next; the others are re-queued unchanged.  Returning [0]
    — or any out-of-range index — reproduces the canonical lowest-seq order,
    so an installed oracle that always answers [0] is behaviourally
    invisible.  Every pick is still an {e admissible} execution: only the
    tie-break among simultaneous events changes, never event times.
    [None] (the default) removes the hook and its overhead. *)

val set_journaling : t -> bool -> unit
(** Record the virtual time of every executed event (off by default;
    switching off clears the journal).  The explorer's pruning rule reads
    the journal to find perturbation windows no event could observe. *)

val journal : t -> float array
(** Times of the events executed while journaling, in execution order. *)

(** {1 Observation probes} *)

type probe = {
  pop_begin : unit -> unit;
  pop_end : unit -> unit;
  fire_begin : unit -> unit;
  fire_end : unit -> unit;
}
(** Observation-only hooks around event selection ([pop_*], the priority
    queue operation) and event execution ([fire_*], the callback itself).
    Probes must not interact with the engine; they let a profiler attribute
    wall-clock time to phases without perturbing virtual time.  [None]
    (the default) costs one option match per event. *)

val set_probe : t -> probe option -> unit

val pending : t -> int
(** Number of events currently queued. *)

val events_executed : t -> int
(** Total number of events executed since creation (a determinism probe:
    identical runs execute identical event counts). *)

val thunks_executed : t -> int
(** How many of those were thunk events ({!schedule} / {!schedule_at}):
    a hot path that posts typed events keeps this at its cold-path
    count. *)
