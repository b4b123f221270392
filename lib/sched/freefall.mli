(** Freefall — the deliberately non-deterministic baseline (native JVM
    behaviour): first-come first-served grants with random tie-breaks from a
    per-replica generator.  Replicas diverge; the consistency checker must
    catch it (motivation experiment E10). *)

val policy : Substrate.t -> Detmt_runtime.Sched_iface.sched
(** The ["freefall"] registry entry (not deterministic). *)
