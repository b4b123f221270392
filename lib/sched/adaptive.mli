(** Adaptive scheduler selection (section 5 future work: "a request analyser
    that chooses the appropriate scheduler at runtime depending on the client
    interaction patterns and the methods lock pattern").

    A meta-scheduler that delegates to a child scheduler and, at
    quiescent points (no thread alive) after every 20 delivered
    requests, re-evaluates which child fits the observed interaction
    pattern:

    - effectively sequential clients (observed concurrency ≈ 1): SEQ — no
      parallelism to exploit, and the simplest discipline has the lowest
      overhead;
    - a fully predictable lock pattern (every start method analysable, no
      fallback): predicted SAT when the overlap is marginal (the token
      rarely blocks and prediction releases it early), predicted MAT in the
      common concurrent range, and predicted PDS under heavy fan-in where
      batched rounds amortise the per-event decision cost;
    - otherwise: MAT, the most flexible pessimistic algorithm.

    - with a worker pool ([Sched_config.workers > 1]) and a window in which
      lock requests almost never found the mutex held, the conflict-graph
      scheduler (CGS): class-disjoint requests run concurrently, the one
      regime where any serial token costs real throughput.

    Children are registry entries built through the [instantiate] the
    registry hands in, so they get the meta-scheduler's runtime model and
    summary, and the worker pool goes to the conflict-graph child only.  A
    prediction-based child is recommended only when the summary makes the
    class fully predictable, so a child never lacks its summary.

    Every input to the decision (delivery and termination order, the static
    summary, the contention counts — deterministic because the child's
    execution is) is identical on all replicas, and switches happen only
    when no thread exists, so the hand-over is trivially deterministic. *)

val recommend :
  workers:int ->
  conflict_rate:float ->
  summary:Detmt_analysis.Predict.class_summary option ->
  avg_concurrency:float ->
  string
(** The pure decision function, exposed for tests.  [workers] is the
    configured pool width; [conflict_rate] is the fraction of lock requests
    that found the mutex held in the observed window ([1.0] when nothing has
    been measured) — CGS is recommended only when both a pool is available
    and contention is near zero. *)

val of_config :
  instantiate:
    (Sched_config.t ->
    Detmt_runtime.Sched_iface.actions ->
    Detmt_runtime.Sched_iface.sched) ->
  Sched_config.t ->
  Detmt_runtime.Sched_iface.actions ->
  Detmt_runtime.Sched_iface.sched
(** Build the meta-scheduler from the unified {!Sched_config.t} record
    (the [scheduler] field is ignored — this {e is} the adaptive scheduler).
    [instantiate] builds a child from its configuration; its one value is
    {!Registry.instantiate}, passed in because the registry depends on this
    module.  The child is re-chosen at the first quiescent point after
    every 20 requests; it books its recorder counters under its own name
    ([sched.<child>.*]). *)
