(** The bookkeeping module of the two-module scheduler architecture
    (section 4.3).

    "The bookkeeping module contains all static and thread-wise information,
    reflecting the knowledge about the threads' current and future lock
    acquisitions. ... The bookkeeping module also offers an interface to the
    decision module the scheduler implementation may use to find out about
    conflicting locks."

    Each start method's summary is compiled once, at its first
    registration, into a dense plan: every syncid maps to a slot, every
    slot records its enclosing loops, and every loop its slots and whether
    it is changing.  A thread's table is an [int] per slot (pending,
    passed, ignored, or the announced mutex itself), the stack of loops it
    is in, the loops it has left, and its future lock multiset as a small
    sorted counted array.  [lockInfo] announces an entry, [ignore]
    discards it, an acquisition outside any active loop passes it, and
    loop markers move the scope stack.  A thread is {e predicted} when
    every entry is resolved and no changing scope is active or still ahead
    — then its exact future lock set is known.

    Tables are pooled per plan: [release] returns one to its plan's free
    list, and [register] reuses it.  After warm-up, registering, every
    event, the boolean queries and releasing allocate nothing; only
    {!future_mutexes} builds its list. *)

type t

val create : summary:Detmt_analysis.Predict.class_summary option -> unit -> t
(** Without a summary every query degrades to the pessimistic answer, so
    prediction-aware schedulers behave like their pessimistic bases. *)

val register : t -> tid:int -> meth:string -> unit
(** Attach a fresh table of the start method's plan to the thread (the plan
    is compiled on the method's first registration).  Methods without a
    (non-fallback) summary get pessimistic defaults.  Sids and lids are
    small non-negative counters, as {!Detmt_analysis.Syncid} hands out. *)

val release : t -> tid:int -> unit
(** Forget a terminated thread; its table returns to its plan's pool. *)

(* Runtime notifications, wired from the scheduler callbacks. *)

val on_lockinfo : t -> tid:int -> syncid:int -> mutex:int -> unit

val on_ignore : t -> tid:int -> syncid:int -> unit

val on_acquired : t -> tid:int -> syncid:int -> mutex:int -> unit

val on_loop_enter : t -> tid:int -> loopid:int -> unit

val on_loop_exit : t -> tid:int -> loopid:int -> unit

(* Queries for the decision module. *)

val predicted : t -> tid:int -> bool
(** All entries of the thread's table are marked (announced, passed or
    ignored) and no changing scope is active or ahead. *)

val future_may_lock : t -> tid:int -> mutex:int -> bool
(** Whether the thread may still request the mutex.  [true] whenever the
    thread is not predicted (unknown future conflicts with everything). *)

val no_future_locks : t -> tid:int -> bool
(** The thread is predicted and its future lock set is empty — it "has
    requested and released all of its locks and will never request one
    again" (the MAT weakness fixed in Figure 2). *)

val future_mutexes : t -> tid:int -> int list option
(** The exact future lock set (ascending, duplicate-free), or [None] when
    not predicted.  Builds the list; the incremental consumer (pMAT's claim
    sets) reads the {!table} instead. *)

val uses_condvars : t -> tid:int -> bool
(** Whether the thread's start method may execute a condition-variable
    [wait]/[notify] (from the static summary).  [true] when unknown.
    Decision modules that let predicted threads run outside their normal
    serialisation discipline (pPDS independence) must exclude such threads:
    a wait re-enters the grant machinery at a timing-dependent point, and a
    notify wakes third parties at one. *)

(** {1 Tables}

    Allocation-free reads of one thread's table, for decision modules that
    mirror its future set incrementally. *)

type table

val table : t -> tid:int -> table
(** The thread's table, or a shared pessimistic one (never predicted) when
    the thread has none.  Valid until the thread is released. *)

val is_predicted : table -> bool
(** {!predicted} of the table's thread. *)

val stamp : table -> int
(** Changes whenever the table's future set changes and when the table is
    (re-)registered; the stamps of one bookkeeping module never repeat, so
    an equal stamp means the same future set. *)

val future_length : table -> int
(** The size of the future set (whether or not the thread is predicted). *)

val future_mutex : table -> int -> int
(** [future_mutex tab i], for [0 <= i < future_length tab]: the future set
    in ascending order. *)
