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

val phase_name : phase -> string

val create : unit -> t

val reset : t -> unit
(** Zero all counters and re-baseline the GC and wall-clock deltas. *)

val phase_begin : t -> phase -> unit

val phase_end : t -> phase -> unit

val decision_begin : t -> string -> unit
(** Count + time a scheduler callback, keyed by decision-module name. *)

val decision_end : t -> string -> unit

type handle
(** A pre-resolved decision cell; hot-path wrappers look the name up once
    at construction instead of hashing it on every callback. *)

val decision_handle : t -> string -> handle

val handle_begin : handle -> unit

val handle_end : handle -> unit

val attach_engine : t -> Detmt_sim.Engine.t -> unit
(** Install engine probes timing [Pop] and [Dispatch]. *)

val detach_engine : Detmt_sim.Engine.t -> unit

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

val overhead_pct : baseline:float -> profiled:float -> float
(** The profiled run's wall-clock overhead against the observability-off
    baseline, in percent ([0] for a non-positive baseline). *)

val report :
  scheduler:string ->
  workload:string ->
  workers:int ->
  clients:int ->
  requests:int ->
  shards:int ->
  repeats:int ->
  wall_baseline:float ->
  wall_profiled:float ->
  t ->
  Json.t
(** The [detmt-cli profile --json] document: the run's configuration, the
    profile ({!to_json}), both best-of-[repeats] walls and the overhead. *)
