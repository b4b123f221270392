(** First-order analytic performance model (section 5 future work:
    "providing a mathematical model for locks, methods and client
    interaction").

    A closed system of [clients] identical request loops is summarised by
    four workload quantities and reduced to its bottleneck:

    - [solo_ms] — a request's response time alone in the system,
    - each scheduler's {e serialised demand} per request: the portion that
      must execute under the scheduler's exclusivity discipline —
      everything for SEQ, the CPU demand for SAT/PDS (one active thread),
      the CPU demand past the pre-lock prefix for MAT (secondaries may
      compute until their first lock), and [cpu / cores] for LSA and
      predicted MAT on mostly-disjoint locks (only true conflicts
      serialise).

    The interactive response-time law for zero think time then gives
    [R(N) = max(solo, N * serialised_demand)].

    The model is deliberately first-order: it ignores queueing inside
    rounds (PDS), per-mutex collisions (PMAT) and network latencies.  The
    [model] experiment tabulates its predictions against the simulator; the
    headline behaviours (SEQ's slope, LSA's core-bound plateau, the
    SAT-vs-MAT gap growing with pre-lock computation) come out within a few
    percent — see EXPERIMENTS.md. *)

type workload = {
  clients : int;
  cores : int;
  solo_ms : float;  (** response time of a lone request *)
  cpu_ms : float;  (** CPU demand per request *)
  prelock_cpu_ms : float;  (** CPU demand before the first lock *)
  idle_ms : float;  (** nested-invocation idle time per request *)
}

val of_figure1 :
  ?config:Detmt_runtime.Config.t ->
  clients:int ->
  Detmt_workload.Figure1.params ->
  workload
(** Expected-value workload summary of the paper's benchmark, including the
    scheduler-call overheads from the runtime configuration. *)

val predict_response_ms : workload -> scheduler:string -> float
(** [max(solo, clients * serialised demand)]. *)

val covered_schedulers : string list
(** seq, sat, pds, mat, lsa, pmat. *)
