(** The one scheduler-construction record.

    Every scheduler in the registry is instantiated from this single record
    via {!Registry.instantiate}; direct [Decision.instantiate] calls remain
    only as low-level plumbing underneath it — see DESIGN.md, "Sharding and
    batching / configuration API".

    The record carries everything a decision module may need at birth:

    - [scheduler]: registry name ("mat", "psat", ...) to instantiate;
    - [runtime]: the simulated runtime cost model ({!Detmt_runtime.Config});
    - [summary]: the §4.3 prediction tables, required when the named
      scheduler has [needs_prediction] set;
    - [workers]: the simulated worker-pool width for the parallel
      conflict-graph family ([1] everywhere else — serial schedulers reject
      anything larger at {!Registry.instantiate}).

    The flight recorder is not part of it: decision modules receive it
    through {!Detmt_runtime.Sched_iface.actions}. *)

type t = {
  scheduler : string;
  runtime : Detmt_runtime.Config.t;
  summary : Detmt_analysis.Predict.class_summary option;
  workers : int;
}

val make :
  ?runtime:Detmt_runtime.Config.t ->
  ?summary:Detmt_analysis.Predict.class_summary ->
  ?workers:int ->
  string ->
  t
(** [make name] builds a config for scheduler [name] with the default
    runtime cost model, no prediction summary and a single worker.
    @raise Invalid_argument when [workers < 1]. *)
