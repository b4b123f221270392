(** The one scheduler-construction record.

    Every scheduler in the registry is instantiated from this single record
    via {!Registry.instantiate}, which looks the name up and hands the
    record to {!Decision.instantiate} (or, for the adaptive entry, to
    {!Adaptive.of_config}) — see DESIGN.md, "Configuration API".

    The record carries everything a decision policy may need at birth:

    - [scheduler]: registry name ("mat", "psat", ...) to instantiate;
    - [runtime]: the simulated runtime cost model ({!Detmt_runtime.Config});
    - [summary]: the §4.3 prediction tables, required when the named
      scheduler has [needs_prediction] set;
    - [workers]: the simulated worker-pool width for the parallel
      conflict-graph family ([1] everywhere else — serial schedulers reject
      anything larger at {!Registry.instantiate}).

    The record is private, so {!make} is its only constructor and [workers]
    is checked once, there.  The flight recorder is not part of it:
    policies receive it through {!Detmt_runtime.Sched_iface.actions}. *)

type t = private {
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
