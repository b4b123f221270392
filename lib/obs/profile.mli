(** Hot-path profiler: per-engine-phase wall-clock timers, per-decision-
    module cost counters, and allocation accounting via [Gc.quick_stat] /
    [Gc.minor_words] deltas.

    Strictly read-only with respect to the simulation: only wall time and
    GC counters are read, never the virtual clock, so profiled runs stay
    bit-identical to unprofiled ones.  Phases nest; each phase times its
    outermost activation only.  [dispatch] includes the [grant] and
    [flush] time spent inside event callbacks.

    Calls are counted exactly; wall time is {e sampled} — one outermost
    activation in 1024 is timestamped and the reported seconds scale the
    sample back up — which keeps the profiler's own overhead to a few
    percent of the run instead of the ~25% exhaustive timestamping costs.
    The sampling stride is deterministic. *)

type t

type phase =
  | Pop (** priority-queue selection of the next event *)
  | Dispatch (** event callback execution *)
  | Grant (** a scheduler decision performed against the replica *)
  | Flush (** Totem batch transmission *)

val create : unit -> t

val reset : t -> unit
(** Zero all counters and re-baseline the GC and wall-clock deltas. *)

val phase_begin : t -> phase -> unit

val phase_end : t -> phase -> unit

type handle
(** A pre-resolved decision cell; hot-path wrappers look the name up once
    at construction instead of hashing it on every callback. *)

val decision_handle : t -> string -> handle

val handle_begin : handle -> unit

val handle_end : handle -> unit

val attach_engine : t -> Detmt_sim.Engine.t -> unit
(** Install engine probes timing [Pop] and [Dispatch]. *)

(** {1 Reports} *)

type phase_row = {
  p_phase : string;
  p_calls : int;
  p_seconds : float;
}

val phase_rows : t -> phase_row list
(** In canonical phase order: pop, dispatch, grant, flush. *)

type decision_row = {
  d_module : string;
  d_calls : int;
  d_seconds : float;
}

val decision_rows : t -> decision_row list
(** Sorted by module name. *)

type alloc = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

val alloc : t -> alloc
(** Allocation since [create]/[reset]. *)

val wall_seconds : t -> float
(** Wall-clock seconds since [create]/[reset]. *)

val to_table : ?title:string -> t -> Detmt_stats.Table.t

val to_json : t -> Json.t

(** {1 The profiler's overhead}

    Measured from interleaved pairs: an observability-off baseline run, then
    the same run profiled.  What the profiler adds deterministically — the
    share of activations it timestamps and the minor words it allocates —
    is what a check can gate on; the wall-clock overhead (in percent) is
    reported as a median and interquartile range over the pairs, because
    one 0.1 s run on a shared host varies by tens of percent. *)

type run = { wall_s : float; minor_words : float }

type overhead = {
  pairs : int;
  wall_q1_pct : float;
  wall_median_pct : float;
  wall_q3_pct : float;  (** wall overhead over the pairs; never gated *)
  words_baseline : float;
  words_profiled : float;
  words_pct : float;  (** minor words of the last pair's two runs *)
  outermost : int;
  timed : int;
  timed_pct : float;
      (** outermost activations of every phase and decision module, and how
          many were timestamped: a timed activation is the only one that
          reads the wall clock *)
}

val overhead : t -> (run * run) list -> overhead
(** [overhead t pairs] summarises [(baseline, profiled)] pairs; [t] holds
    the last profiled run.  @raise Invalid_argument on no pairs. *)

val violations : overhead -> bound_pct:float -> (string * float) list
(** The deterministic measures above [bound_pct] percent: the share of
    timed activations and the minor-words overhead. *)

val report :
  scheduler:string ->
  workload:string ->
  workers:int ->
  clients:int ->
  requests:int ->
  shards:int ->
  overhead ->
  t ->
  Json.t
(** The [detmt-cli profile --json] document: the run's configuration, the
    profile ({!to_json}) and the {!overhead}. *)
