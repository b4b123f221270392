(** The flight recorder: metrics registry + span tracer + decision audit.

    One recorder is threaded through the sim engine, the schedulers (via
    [Sched_iface.actions]), Totem and the replication layer.  It is strictly
    read-only: it never schedules simulation events, and all recording
    functions are no-ops on a disabled recorder.  Hot call sites must guard
    with {!enabled} before constructing arguments, so that recording off
    costs neither time nor allocation — the determinism contract (reply
    tables and trace fingerprints bit-identical with recording on or off)
    is enforced by [test/test_obs.ml]. *)

type t

val create : ?width_ms:float -> ?retain:int -> ?profile:Profile.t -> unit -> t
(** [width_ms]/[retain] size the {!Timeseries} windows (defaults 10 ms /
    256 windows per track); [profile] attaches a hot-path profiler. *)

val disabled : t
(** The no-op recorder; every layer defaults to it. *)

val profile_only : Profile.t -> t
(** A recorder whose metric/span/audit sites are no-ops ({!enabled} is
    [false]) but whose profiler taps are live — the low-overhead mode
    behind [detmt-cli profile] and the CI overhead bound. *)

val enabled : t -> bool

val profiler : t -> Profile.t option

(** {1 Metrics} *)

val metrics : t -> Metrics.t

val timeseries : t -> Timeseries.t
(** The virtual-time-windowed series every metric update folds into. *)

val set_clock : t -> (unit -> float) -> unit
(** Install the virtual-clock source used to window metrics (installed by
    the replication layer at system construction; read-only). *)

val set_depth_probe : t -> (unit -> int) option -> unit
(** Install a passive engine-queue-depth probe, sampled once per window
    roll into the ["engine.pending"] track — no events are scheduled. *)

val incr : ?by:int -> t -> string -> unit

val observe : t -> string -> float -> unit

val set_gauge : t -> string -> float -> unit

val series : t -> name:string -> at:float -> value:float -> unit
(** Time-stamped counter sample, exported as a Chrome counter track. *)

(** {1 Request spans}

    Spans are keyed by [(replica, uid)]; the uid is the request's total-order
    position and doubles as its thread id. *)

type wait_kind =
  | Lock_contention (** mutex actually held by another thread *)
  | Lock_policy (** mutex free, but the scheduler's policy defers the grant *)
  | Reacquire (** notified, waiting to reacquire the monitor *)
  | Condvar (** parked on a condition variable *)
  | Nested (** awaiting a nested invocation's reply *)
  | Resume_hold (** reply arrived, waiting to be resumed *)
  | Commit_hold
      (** speculation finished, holding its workspace until the slot-order
          commit barrier *)

val wait_kind_name : wait_kind -> string

val request_broadcast : t -> client:int -> client_req:int -> at:float -> unit
(** First broadcast of a client request into the total order (retries keep
    the original timestamp). *)

val request_delivered :
  t ->
  replica:int ->
  uid:int ->
  meth:string ->
  client:int ->
  client_req:int ->
  sent_at:float ->
  at:float ->
  unit

val request_started : t -> replica:int -> uid:int -> at:float -> unit

val request_ended : t -> replica:int -> uid:int -> at:float -> unit

val wait_begin :
  t -> replica:int -> uid:int -> kind:wait_kind -> at:float -> unit
(** Opens a wait interval; an interval already open is closed first. *)

val wait_end : t -> replica:int -> uid:int -> at:float -> unit
(** Closes the open wait interval, if any. *)

val reply_observed :
  t ->
  replica:int ->
  uid:int ->
  client:int ->
  client_req:int ->
  response_ms:float ->
  unit
(** The reply that actually reached the client first (one per request). *)

(** {1 Scheduler decision audit} *)

val decision :
  t ->
  at:float ->
  replica:int ->
  scheduler:string ->
  tid:int ->
  action:Audit.action ->
  ?mutex:int ->
  rule:Audit.rule ->
  ?candidates:int list ->
  unit ->
  unit

val audit_entries : t -> Audit.entry list
(** In recording order. *)

val audit_count : t -> int

val audit_window : t -> around:float -> margin:float -> Audit.entry list
(** Entries with [|at - around| <= margin], in recording order. *)

(** {1 Divergence checkpoints} *)

val checkpoint : t -> replica:int -> seq:int -> at:float -> unit

val checkpoint_time : t -> replica:int -> seq:int -> float option

(** {1 Per-request latency breakdowns} *)

type breakdown = {
  uid : int;
  client : int;
  client_req : int;
  meth : string;
  replica : int; (** the replica whose reply won *)
  client_queue : float;
  broadcast : float;
  sched_start : float;
  lock_wait : float;
  policy_wait : float;
  reacquire_wait : float;
  condvar_wait : float;
  nested_idle : float;
  resume_hold : float;
  commit_hold : float;
  exec : float;
  reply_net : float;
  total : float; (** client-measured response time; the other columns sum
                     to it exactly *)
}

val breakdowns : t -> breakdown list
(** One row per answered request, sorted by uid. *)

val breakdown_table : ?title:string -> t -> Detmt_stats.Table.t

(** {1 Export accessors (used by the Chrome exporter)} *)

type span_view = {
  v_replica : int;
  v_uid : int;
  v_meth : string;
  v_client : int;
  v_delivered_at : float;
  v_started_at : float option;
  v_ended_at : float option;
  v_waits : (wait_kind * float * float) list;
}

val spans : t -> span_view list
(** Sorted by (replica, uid). *)

val series_samples : t -> (string * float * float) list
(** In recording order. *)
