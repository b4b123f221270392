(** Append-only trace of scheduling-relevant events.

    Each replica records the sequence of lock grants, releases, waits and
    notifications it performed.  Two replicas executed deterministically must
    produce byte-identical traces; {!fingerprint} folds a trace into a single
    64-bit hash used by the consistency checker.

    The hash and the count are always kept, so a trace's memory does not
    grow with the run.  The event list itself is retained only for a trace
    created with [~keep_events:true] (timelines and forensics); retaining
    it never changes {!fingerprint} or {!length}.

    The replica's hot kinds (lock requested, granted and released, wait
    begin/end, nested begin/end, thread start/end, control delivered and
    workspace commit) have field-level
    recorders: they mix the fields straight into the unboxed running hash,
    so without [keep_events] recording one allocates nothing, and the
    {!event} block is built only when it is kept.  {!record_at} folds any
    event with the same encoding — the kind's tag, then its fields in
    declaration order — so both routes give the same fingerprint. *)

type event =
  | Lock_requested of { tid : int; syncid : int; mutex : int }
  | Lock_granted of { tid : int; syncid : int; mutex : int }
  | Unlocked of { tid : int; syncid : int; mutex : int }
  | Wait_begin of { tid : int; mutex : int }
  | Wait_end of { tid : int; mutex : int }
  | Notify of { tid : int; mutex : int; all : bool }
  | Nested_begin of { tid : int; service : int }
  | Nested_end of { tid : int; service : int }
  | Thread_start of { tid : int; method_name : string }
  | Thread_end of { tid : int }
  | Control_delivered of { sender : int; grant_seq : int; mutex : int; tid : int }
      (** A scheduler control message (an LSA grant) arrived in total order.
          Typed, not a formatted string, so the fingerprint depends only on
          the decision itself. *)
  | View_change of { sender : int }
  | Ws_commit of { tid : int; writes : int }
      (** A speculative workspace merged into the committed object state at
          its slot-order barrier ([writes] = write-set size). *)
  | Ws_abort of { tid : int; conflicts : int }
      (** A speculation was discarded: [conflicts = 0] for an abort on an
          unsafe operation (wait/notify/nested), [> 0] for a validation
          failure at the commit barrier.  The thread re-executes directly. *)

type t

val create : ?keep_events:bool -> unit -> t
(** [keep_events] (default [false]) retains every recorded event for
    {!events} and {!timed_events}. *)

val record_at : t -> time:float -> event -> unit
(** Record with the current virtual time; the timestamp feeds the timeline
    renderer and is excluded from {!fingerprint}. *)

(** {1 Field-level recorders}

    Each is [record_at t ~time (K { ... })] for its kind [K], without the
    event block unless the trace keeps events. *)

val lock_requested :
  t -> time:float -> tid:int -> syncid:int -> mutex:int -> unit

val lock_granted :
  t -> time:float -> tid:int -> syncid:int -> mutex:int -> unit

val unlocked :
  t -> time:float -> tid:int -> syncid:int -> mutex:int -> unit

val wait_begin : t -> time:float -> tid:int -> mutex:int -> unit

val wait_end : t -> time:float -> tid:int -> mutex:int -> unit

val nested_begin : t -> time:float -> tid:int -> service:int -> unit

val nested_end : t -> time:float -> tid:int -> service:int -> unit

val notified : t -> time:float -> tid:int -> mutex:int -> all:bool -> unit

val thread_start : t -> time:float -> tid:int -> method_name:string -> unit

val thread_end : t -> time:float -> tid:int -> unit

val control_delivered :
  t -> time:float -> sender:int -> grant_seq:int -> mutex:int -> tid:int ->
  unit

val ws_commit : t -> time:float -> tid:int -> writes:int -> unit

val length : t -> int

val events : t -> event list
(** Events in recording order; [[]] unless created with [~keep_events:true]. *)

val timed_events : t -> (float * event) list
(** Events with their virtual timestamps, in recording order; [[]] unless
    created with [~keep_events:true]. *)

val fingerprint : t -> int64
(** Order-sensitive hash of all recorded events. *)
