(** SEQ — strictly sequential request execution in total order: one request
    runs from start to finish before the next starts.  Trivially
    deterministic, single-CPU, wastes nested-invocation idle time
    (section 3.1). *)

val policy : Substrate.t -> Detmt_runtime.Sched_iface.sched
(** The ["seq"] registry entry. *)
