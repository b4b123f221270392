(** Compiled method bodies and the per-thread cursor that runs them.

    Each method of a class is lowered once, on its first call, to an
    instruction array with resolved jump targets, int-slot locals and
    preallocated static ops; every field name is resolved to its
    {!Object_state} offset.  A request runs on a {!cursor}: the code, a
    program counter, the frame's slots and the saved caller frames.  {!next}
    advances it to the next synchronisation-relevant op, which the cursor
    holds in place: the replica engine dispatches on its {!kind}, reads its
    operands through the accessors below, completes the operation and calls
    {!next} again.  No op is built per step; {!Testing.op} builds the
    {!Op.t} value on query.  The interpreter itself is pure control flow —
    all policy (granting locks, charging time) lives in the replica and the
    scheduler.

    Programs must be instrumented ({!Detmt_transform.Transform}); a raw
    [Sync] statement is a hard error. *)

exception Runtime_error of string

type program
(** A class's methods, each compiled on its first call. *)

type cursor
(** One request's position in its compiled method bodies. *)

val program : Detmt_lang.Class_def.t -> program
(** No method is compiled, or even indexed, until the first {!start}. *)

val start :
  program -> obj:Object_state.t -> ws:Workspace.t -> Request.t -> cursor
(** [start prog ~obj ~ws req] positions a cursor at the top of the request's
    start method.  Dummy requests finish at once.  [obj] must be built from
    the program's class, whose layout the compiled offsets follow.  With a
    [ws] other than [Workspace.none], object-state reads and writes are
    routed through the copy-on-write workspace (speculative execution);
    [obj] is then only the page-in source behind it.  Opaque calls
    ([Sp_call], [Mcall]) resolve to a hash of the call
    name and the request's [(client, client_req)] identity into a small
    mutex-id range — deterministic across replicas but unpredictable to the
    analysis, exactly like a real opaque call.  The total-order [uid] is
    deliberately not an input: nested-invocation messages consume slots, so
    a request's uid shifts with scheduler timing.
    @raise Runtime_error for an undefined or non-exported start method. *)

val idle : cursor
(** A cursor with no request: {!next} on it is [false].  Callers keep it as
    the "no cursor" sentinel (compare with [==]), so holding a cursor needs
    no option. *)

val next : cursor -> bool
(** Run to the next op: [true] when the request yielded one (its {!kind}
    and operands), [false] when its method has finished (and on every later
    call).  Allocates nothing.
    @raise Runtime_error on ill-typed programs (bad argument index, raw
    [Sync], undefined method, local read before assignment, ...), at the
    step the statement is reached. *)

(** {2 The op the last {!next} yielded}

    Each accessor reads one operand of the current op, as the field of the
    same name in {!Op.t}.
    @raise Invalid_argument when the current op has no such operand. *)

val kind : cursor -> Op.kind

val syncid : cursor -> int
(** Of a lock, unlock, lockinfo or ignore op. *)

val loopid : cursor -> int
(** Of a loop-enter or loop-exit op. *)

val mutex : cursor -> int
(** Of a lock, unlock, lockinfo, wait or notify op. *)

val all : cursor -> bool
(** Of a notify op. *)

val service : cursor -> int
(** Of a nested op. *)

val duration : cursor -> float
(** Of a compute or nested op.  A static duration is the float its compiled
    instruction holds; an argument-timed one is boxed afresh by each call. *)

val field : cursor -> int
(** Of a state-update op: the field's {!Object_state} offset, [-1] when the
    class does not declare it. *)

val field_name : cursor -> string
(** Of a state-update op. *)

val delta : cursor -> int
(** Of a state-update op. *)

module Testing : sig
  val op : cursor -> Op.t
  (** The op the last {!next} yielded, as a fresh value.
      @raise Invalid_argument before the first op. *)
end
