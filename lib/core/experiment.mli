(** The experiment registry.

    Every paper artefact (figures 1–4, the section 3.5 comparisons, the
    section 5 questions) and every derived grid (E5–E20) is one {!spec}: a
    default grid of run configurations, a run function returning uniform
    {!row}s plus free text (charts, listings), and the claims its rows must
    satisfy.  One runner ({!run}) builds the system a {!config} names; one
    emitter renders rows as a table, CSV or a [BENCH_<name>.json] document.
    [detmt-cli bench] and the tests are thin wrappers over {!specs}. *)

(** {2 Configurations} *)

type workload = {
  wname : string;  (** the name rows and BENCH files report *)
  cls : Detmt_lang.Class_def.t;
  gen : Detmt_replication.Client.request_gen;
}

val workload : string -> workload
(** A built-in workload: figure1, compute-heavy, disjoint, tail, prodcons,
    sharded, sharded-opaque, hotspot.  @raise Failure on another name. *)

type system =
  | Active  (** one replica group *)
  | Static of int
      (** {!Detmt_replication.Reconfig} fixed at N groups: the static
          sharded layout *)
  | Autoscale of Detmt_replication.Reconfig.policy
      (** {!Detmt_replication.Reconfig} from one group, under the
          controller *)

(** How an [Active] system is driven; the multi-group systems always run a
    closed loop. *)
type drive =
  | Closed  (** [clients] closed-loop clients, [requests] each *)
  | Open_loop of float
      (** Poisson arrivals at this rate (req/s), [requests] in total, until
          ten times the time the load needs at capacity *)
  | Kill_leader of float  (** closed loop; replica 0 dies at this time *)

type config = {
  workload : workload;
  system : system;
  scheduler : string;
  workers : int;
  clients : int;
  requests : int;  (** per client; in total under [Open_loop] *)
  replicas : int;
  seed : int64;
  latency_ms : float;  (** replica <-> replica one-way latency *)
  pds_batch : int;
  bookkeeping_ms : float;  (** cost of each injected announcement *)
  batching : Detmt_gcs.Totem.batching option;
  drive : drive;
}

val base : config
(** figure1 on one group under mat: 1 worker, 8 clients x 10 requests, 3
    replicas, seed 42, {!Detmt_replication.Active.default_params}
    otherwise. *)

(** {2 Rows} *)

type outcome = {
  expected : int;  (** requests the configuration issues *)
  replies : int;
  mean_ms : float;
  p95_ms : float;
  throughput_per_s : float;
  duration_ms : float;  (** virtual makespan *)
  consistent : bool;
      (** replicas agree on state and per-mutex acquisition order (and on
          epoch transitions, for elastic systems) *)
  fingerprint : int64;
      (** FNV-1a fold of every live replica's trace and state fingerprints
          and the reply count (and the transition log, for elastic
          systems) *)
  metrics : (string * float) list;
      (** named counters: events, broadcasts, routing, reconfiguration,
          agreement flags (1/0), grants... *)
}

type cost = {
  wall_ms : float;
  minor_words : float;
  major_words : float;
  series_points : int;  (** windowed-series samples recorded *)
  peak_pending : float;  (** peak engine queue depth *)
}
(** Host-side measurements; never a virtual-time input. *)

type row = { config : config; outcome : outcome; cost : cost }

val metric : row -> string -> float
(** A named counter; [nan] when the row does not carry it. *)

val run : ?obs:Detmt_obs.Recorder.t -> config -> row
(** Build the system, drive it to completion and summarise it.  [obs]
    defaults to a fresh enabled recorder (the series columns of {!cost});
    recorders are read-only, so the outcome never depends on it.
    @raise Failure if a closed loop deadlocks. *)

(** {2 The registry} *)

type spec = {
  name : string;
  title : string;
  grid : config list;  (** the default grid *)
  run : config list -> row list * string;
      (** the rows of a grid, plus the text printed after the tables *)
  columns : string list;  (** metrics shown in the text table *)
  claims : row list -> (string * bool) list;
      (** the paper-level claims; one whose rows are absent is not
          reported *)
}

val specs : unit -> spec list
(** fig1 fig1b fig2 fig3 fig4 wan failover pds overhead prodcons
    determinism saturation model interference shard elastic engine. *)

val find : string -> spec option

val restrict :
  ?clients:int -> ?shards:int -> ?scheduler:string -> ?workers:int ->
  ?seed:int64 -> config list -> config list
(** Override a grid's axes: [clients], [scheduler], [workers] and [seed]
    replace the configured values, [shards] drops points with more groups.
    Duplicates an override leaves are dropped, the first kept. *)

(** {2 The emitter} *)

val tables : spec -> row list -> Detmt_stats.Table.t list
(** One table per run of same-workload rows: the configuration columns
    that vary, the outcome, and the spec's {!spec.columns}. *)

val json : spec -> row list -> Detmt_obs.Json.t
(** The [BENCH_<name>.json] document: [schema_version] 4, the claims, and
    every row's configuration, outcome, metrics and host cost. *)

val pp_row : Format.formatter -> row -> unit
(** One row as [key: value] lines. *)

(** {2 Shared settings} *)

val timeline :
  ?scheduler:string -> ?workload:[ `Tail | `Disjoint ] -> ?clients:int ->
  ?requests:int -> unit -> Detmt_sim.Timeline.t
(** Per-thread schedule of a small run — the visual form of Figures 2/3. *)

val elastic_bench_policy : Detmt_replication.Reconfig.policy
(** The E16 controller: 0.5 ms ticks, split above queue depth 4, never
    merge, up to 16 live groups — twice the static grid's ceiling. *)

val elastic_bench_workload : Detmt_workload.Hotspot.params
(** {!Detmt_workload.Hotspot.default} with the hotspot drifting every 8
    requests, so a 16-request run sees the zone move twice. *)
