(** Compiled method bodies and the per-thread cursor that runs them.

    Each method of a class is lowered once, on its first call, to an
    instruction array with resolved jump targets, int-slot locals and
    preallocated static ops.  A request runs on a {!cursor}: the code, a
    program counter, the frame's slots and the saved caller frames.  {!next}
    advances it to the next synchronisation-relevant {!Op.t}; the replica
    engine completes that operation and calls {!next} again.  The
    interpreter itself is pure control flow — all policy (granting locks,
    charging time) lives in the replica and the scheduler.

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
  program -> obj:Object_state.t -> ?ws:Workspace.t -> Request.t -> cursor
(** [start prog ~obj req] positions a cursor at the top of the request's
    start method.  Dummy requests finish at once.  With [?ws], object-state
    reads and writes are routed through the copy-on-write workspace
    (speculative execution); [obj] is then only the page-in source behind
    it.  Opaque calls ([Sp_call], [Mcall]) resolve to a hash of the call
    name and the request's [(client, client_req)] identity into a small
    mutex-id range — deterministic across replicas but unpredictable to the
    analysis, exactly like a real opaque call.  The total-order [uid] is
    deliberately not an input: nested-invocation messages consume slots, so
    a request's uid shifts with scheduler timing.
    @raise Runtime_error for an undefined or non-exported start method. *)

val next : cursor -> bool
(** Run to the next op: [true] when the request yielded one ({!op}),
    [false] when its method has finished (and on every later call).
    @raise Runtime_error on ill-typed programs (bad argument index, raw
    [Sync], undefined method, local read before assignment, ...), at the
    step the statement is reached. *)

val op : cursor -> Op.t
(** The op the last {!next} yielded. *)
