(** CGS — conflict-graph scheduling ("early scheduling" for parallel
    state-machine replication).  Requests are assigned conflict classes at
    delivery time, resolved from the §4.3 prediction summary against their
    own arguments; class-disjoint requests run concurrently on the simulated
    worker pool while conflicting requests commit in total-order slot order,
    so replies, states and per-mutex acquisition fingerprints are
    independent of the worker count.  Construct via
    {!Registry.instantiate} with [Sched_config.workers]. *)

val cgs : Substrate.t -> Decision.Pool.t -> Detmt_runtime.Sched_iface.sched
(** ["cgs"]: static classes — a running request blocks its whole class until
    it terminates. *)

val pcgs : Substrate.t -> Decision.Pool.t -> Detmt_runtime.Sched_iface.sched
(** ["pcgs"]: prediction-shrunk blocksets — once bookkeeping proves the
    prediction exact, a running request blocks only [held ∪ future] mutexes
    (early release), letting class successors start before it terminates.
    Condvar-using methods keep the static class. *)

val wss : Substrate.t -> Decision.Pool.t -> Detmt_runtime.Sched_iface.sched
(** ["wss"]: workspace speculation — every condvar-free request executes
    immediately against a copy-on-write workspace
    ({!Detmt_runtime.Workspace}) and merges at its slot-order commit
    barrier, where stale reads abort and re-execute directly.  Virtual
    acquisitions are replayed into the acquisition fingerprints at commit,
    so observables (replies, states, per-mutex order) match SEQ exactly at
    any worker count. *)

val safety_net : Substrate.t -> Decision.Pool.t -> Detmt_runtime.Sched_iface.sched
(** ["cgs+ws"]: CGS dispatch for requests whose conflict class resolves,
    workspace speculation for the opaque ([Top]-class) ones plain CGS would
    serialise behind everything — the safety net that keeps mispredicted
    requests off the critical path.  Observables match ["cgs"] whenever
    predictions resolve every class. *)
