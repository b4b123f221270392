(** Small-step interpreter for transformed method bodies.

    A thread is a continuation producing an {!outcome}: either the method has
    finished, or it yields a synchronisation-relevant {!Op.t} together with
    the continuation to run once the replica engine has completed that
    operation.  The interpreter itself is pure control flow — all policy
    (granting locks, charging time) lives in the replica and the scheduler.

    Programs must be instrumented ({!Detmt_transform.Transform}); a raw
    [Sync] statement is a hard error. *)

type outcome = Done | Yield of Op.t * (unit -> outcome)

exception Runtime_error of string

val start :
  cls:Detmt_lang.Class_def.t ->
  obj:Object_state.t ->
  ?ws:Workspace.t ->
  req:Request.t ->
  unit ->
  outcome
(** [start ~cls ~obj ~req ()] begins interpreting the request's start method.
    Dummy requests complete immediately.  With [?ws], object-state reads and
    writes are routed through the copy-on-write workspace (speculative
    execution); [obj] is then only the page-in source behind it.
    Opaque calls ([Sp_call], [Mcall]) resolve to a hash of the call name and
    the request's [(client, client_req)] identity into a small mutex-id
    range — deterministic across replicas but unpredictable to the
    analysis, exactly like a real opaque call.  The total-order [uid] is
    deliberately not an input: nested-invocation messages consume slots, so
    a request's uid shifts with scheduler timing.
    @raise Runtime_error on ill-typed programs (bad argument index, raw
    [Sync], undefined method, ...). *)
