(* The flight recorder: one mutable sink threaded through every layer.

   The recorder is strictly read-only with respect to the simulation — it
   never schedules events, never perturbs the virtual clock, and callers
   guard all calls behind [enabled] so a disabled recorder costs neither
   time nor allocation.  With recording on or off, reply tables and trace
   fingerprints are bit-identical (enforced by test_obs).

   Spans are keyed by [(replica, uid)]: the request uid is its position in
   the total order and doubles as the executing thread id, so the same key
   identifies the same logical work on every replica. *)

type wait_kind =
  | Lock_contention (* mutex actually held by another thread *)
  | Lock_policy (* mutex free, but the scheduler's policy defers the grant *)
  | Reacquire (* notified, waiting to reacquire the monitor *)
  | Condvar (* parked on a condition variable *)
  | Nested (* awaiting a nested invocation's reply *)
  | Resume_hold (* reply arrived, waiting for the scheduler to resume us *)
  | Commit_hold (* speculation finished, waiting for its slot-order commit *)

let wait_kind_name = function
  | Lock_contention -> "lock-contention"
  | Lock_policy -> "lock-policy"
  | Reacquire -> "reacquire"
  | Condvar -> "condvar"
  | Nested -> "nested-idle"
  | Resume_hold -> "resume-hold"
  | Commit_hold -> "commit-hold"

type span = {
  meth : string;
  client : int;
  client_req : int;
  sent_at : float;
  delivered_at : float;
  mutable started_at : float option;
  mutable ended_at : float option;
  mutable cur : (wait_kind * float) option;
  mutable waits : (wait_kind * float * float) list; (* newest first *)
}

type reply = {
  r_replica : int; (* replica whose reply reached the client first *)
  r_uid : int;
  r_client : int;
  r_client_req : int;
  r_response_ms : float;
}

type t = {
  on : bool;
  metrics : Metrics.t;
  timeseries : Timeseries.t; (* virtual-time windows over every metric *)
  mutable clock : (unit -> float) option; (* virtual now, for windowing *)
  mutable depth_probe : (unit -> int) option; (* engine queue depth *)
  profile : Profile.t option; (* hot-path profiler, independent of [on] *)
  spans : (int * int, span) Hashtbl.t; (* (replica, uid) *)
  bcast_times : (int * int, float) Hashtbl.t; (* (client, client_req) *)
  mutable audit : Audit.entry list; (* newest first *)
  mutable audit_count : int;
  mutable replies : reply list; (* newest first *)
  checkpoints : (int * int, float) Hashtbl.t; (* (replica, seq) -> time *)
  mutable series : (string * float * float) list; (* name, time, value *)
}

let create ?width_ms ?retain ?profile () =
  { on = true; metrics = Metrics.create ();
    timeseries = Timeseries.create ?width_ms ?retain (); clock = None;
    depth_probe = None; profile; spans = Hashtbl.create 256;
    bcast_times = Hashtbl.create 256; audit = []; audit_count = 0;
    replies = []; checkpoints = Hashtbl.create 64; series = [] }

let make_off profile =
  { on = false; metrics = Metrics.create ();
    timeseries = Timeseries.create ~retain:1 (); clock = None;
    depth_probe = None; profile; spans = Hashtbl.create 1;
    bcast_times = Hashtbl.create 1; audit = []; audit_count = 0; replies = [];
    checkpoints = Hashtbl.create 1; series = [] }

let disabled = make_off None

(* Profiling without recording: metric/span/audit sites stay no-ops (so the
   run costs almost nothing beyond the timers themselves), while the
   profiler taps — engine probes, grant/flush timing, decision wrappers —
   see the attached profiler.  This is what `detmt-cli profile` runs, and
   what the < 5% overhead bound in CI is measured against. *)
let profile_only p = make_off (Some p)

let enabled t = t.on

let metrics t = t.metrics

let timeseries t = t.timeseries

let profiler t = t.profile

(* The virtual-clock source used to window metrics; installed by the
   replication layer at system construction.  Purely observational — the
   recorder only ever *reads* the clock. *)
let set_clock t f = if t.on then t.clock <- Some f

let rewire_roll t =
  match t.depth_probe with
  | None -> Timeseries.set_on_roll t.timeseries None
  | Some probe ->
    Timeseries.set_on_roll t.timeseries
      (Some
         (fun ~at ->
           Timeseries.sample t.timeseries ~name:"engine.pending" ~at
             ~value:(float_of_int (probe ()))))

let set_depth_probe t f =
  if t.on then begin
    t.depth_probe <- f;
    rewire_roll t
  end

(* ----------------------------- metrics ----------------------------- *)

(* Each metric update is additionally folded into the fixed-width
   virtual-time window containing "now" (when a clock is installed), so
   every counter and gauge doubles as a bounded-memory time series. *)
let window_bump t name by =
  match t.clock with
  | None -> ()
  | Some now ->
    Timeseries.bump t.timeseries ~name ~at:(now ()) ~by:(float_of_int by)

let window_sample t name v =
  match t.clock with
  | None -> ()
  | Some now -> Timeseries.sample t.timeseries ~name ~at:(now ()) ~value:v

let incr ?(by = 1) t name =
  if t.on then begin
    Metrics.incr ~by t.metrics name;
    window_bump t name by
  end

let observe t name v =
  if t.on then begin
    Metrics.observe t.metrics name v;
    window_sample t name v
  end

let set_gauge t name v =
  if t.on then begin
    Metrics.set_gauge t.metrics name v;
    window_sample t name v
  end

let series t ~name ~at ~value =
  if t.on then begin
    t.series <- (name, at, value) :: t.series;
    Timeseries.sample t.timeseries ~name ~at ~value
  end

(* ------------------------------ spans ------------------------------ *)

let request_broadcast t ~client ~client_req ~at =
  if t.on && not (Hashtbl.mem t.bcast_times (client, client_req)) then
    (* first broadcast wins; retries re-send the same request *)
    Hashtbl.add t.bcast_times (client, client_req) at

let request_delivered t ~replica ~uid ~meth ~client ~client_req ~sent_at ~at =
  if t.on && not (Hashtbl.mem t.spans (replica, uid)) then
    Hashtbl.add t.spans (replica, uid)
      { meth; client; client_req; sent_at; delivered_at = at;
        started_at = None; ended_at = None; cur = None; waits = [] }

let span t ~replica ~uid = Hashtbl.find_opt t.spans (replica, uid)

let request_started t ~replica ~uid ~at =
  if t.on then
    Option.iter (fun s -> s.started_at <- Some at) (span t ~replica ~uid)

let close_wait s ~at =
  match s.cur with
  | None -> ()
  | Some (kind, from) ->
    s.cur <- None;
    if at > from then s.waits <- (kind, from, at) :: s.waits

let request_ended t ~replica ~uid ~at =
  if t.on then
    Option.iter
      (fun s ->
        close_wait s ~at;
        s.ended_at <- Some at)
      (span t ~replica ~uid)

let wait_begin t ~replica ~uid ~kind ~at =
  if t.on then
    Option.iter
      (fun s ->
        close_wait s ~at;
        s.cur <- Some (kind, at))
      (span t ~replica ~uid)

let wait_end t ~replica ~uid ~at =
  if t.on then Option.iter (close_wait ~at) (span t ~replica ~uid)

let reply_observed t ~replica ~uid ~client ~client_req ~response_ms =
  if t.on then
    t.replies <-
      { r_replica = replica; r_uid = uid; r_client = client;
        r_client_req = client_req; r_response_ms = response_ms }
      :: t.replies

(* ------------------------------ audit ------------------------------ *)

let decision t ~at ~replica ~scheduler ~tid ~action ?mutex ~rule
    ?(candidates = []) () =
  if t.on then begin
    t.audit <-
      { Audit.at; replica; scheduler; tid; action; mutex; rule; candidates }
      :: t.audit;
    t.audit_count <- t.audit_count + 1
  end

let audit_entries t = List.rev t.audit

let audit_count t = t.audit_count

let audit_window t ~around ~margin =
  List.rev
    (List.filter
       (fun (e : Audit.entry) ->
         e.at >= around -. margin && e.at <= around +. margin)
       t.audit)

(* ---------------------------- checkpoints --------------------------- *)

let checkpoint t ~replica ~seq ~at =
  if t.on && not (Hashtbl.mem t.checkpoints (replica, seq)) then
    Hashtbl.add t.checkpoints (replica, seq) at

let checkpoint_time t ~replica ~seq =
  Hashtbl.find_opt t.checkpoints (replica, seq)

(* ---------------------------- breakdowns ---------------------------- *)

(* Decomposition of one answered request's response time, all in virtual
   ms.  [exec] and [reply_net] are derived as remainders, so the columns
   sum to [total] exactly:

     total = client_queue + broadcast + sched_start
           + (sum of the wait columns) + exec + reply_net

   where [total] is the client-measured response time of the replica whose
   reply arrived first. *)
type breakdown = {
  uid : int;
  client : int;
  client_req : int;
  meth : string;
  replica : int;
  client_queue : float; (* client send -> broadcast into the total order *)
  broadcast : float; (* broadcast -> delivery at the winning replica *)
  sched_start : float; (* delivery -> thread start *)
  lock_wait : float; (* blocked on a held mutex *)
  policy_wait : float; (* mutex free but grant deferred by policy *)
  reacquire_wait : float; (* notified, waiting to retake the monitor *)
  condvar_wait : float; (* parked on a condition variable *)
  nested_idle : float; (* awaiting a nested invocation reply *)
  resume_hold : float; (* reply arrived, resume deferred by policy *)
  commit_hold : float; (* speculation finished, waiting for its commit slot *)
  exec : float; (* remainder of the span: CPU + fixed overheads *)
  reply_net : float; (* reply propagation back to the client *)
  total : float;
}

let breakdown_of_reply t (r : reply) =
  match span t ~replica:r.r_replica ~uid:r.r_uid with
  | None -> None
  | Some s -> (
    match (s.started_at, s.ended_at) with
    | Some started, Some ended ->
      let broadcast_at =
        (* A request injected without a client (dummies never reply, so
           this is always found in practice). *)
        Option.value
          ~default:s.sent_at
          (Hashtbl.find_opt t.bcast_times (s.client, s.client_req))
      in
      let waited kind =
        List.fold_left
          (fun acc (k, from, upto) ->
            if k = kind then acc +. (upto -. from) else acc)
          0.0 s.waits
      in
      let lock_wait = waited Lock_contention in
      let policy_wait = waited Lock_policy in
      let reacquire_wait = waited Reacquire in
      let condvar_wait = waited Condvar in
      let nested_idle = waited Nested in
      let resume_hold = waited Resume_hold in
      let commit_hold = waited Commit_hold in
      let all_waits =
        lock_wait +. policy_wait +. reacquire_wait +. condvar_wait
        +. nested_idle +. resume_hold +. commit_hold
      in
      let client_queue = broadcast_at -. s.sent_at in
      let broadcast = s.delivered_at -. broadcast_at in
      let sched_start = started -. s.delivered_at in
      let exec = ended -. started -. all_waits in
      let total = r.r_response_ms in
      let reply_net = total -. (ended -. s.sent_at) in
      Some
        { uid = r.r_uid; client = s.client; client_req = s.client_req;
          meth = s.meth; replica = r.r_replica; client_queue; broadcast;
          sched_start; lock_wait; policy_wait; reacquire_wait; condvar_wait;
          nested_idle; resume_hold; commit_hold; exec; reply_net; total }
    | _ -> None)

let breakdowns t =
  List.rev t.replies
  |> List.filter_map (breakdown_of_reply t)
  |> List.sort (fun a b -> compare a.uid b.uid)

let breakdown_columns =
  [ "req"; "method"; "client"; "replica"; "client_q"; "bcast"; "sched_start";
    "lock"; "policy"; "reacq"; "condvar"; "nested"; "resume"; "commit";
    "exec"; "reply_net"; "total" ]

let breakdown_table ?(title = "per-request latency breakdown (virtual ms)") t =
  let table = Detmt_stats.Table.create ~title ~columns:breakdown_columns in
  let f = Printf.sprintf "%.2f" in
  List.iter
    (fun b ->
      Detmt_stats.Table.add_row table
        [ string_of_int b.uid; b.meth; string_of_int b.client;
          string_of_int b.replica; f b.client_queue; f b.broadcast;
          f b.sched_start; f b.lock_wait; f b.policy_wait; f b.reacquire_wait;
          f b.condvar_wait; f b.nested_idle; f b.resume_hold; f b.commit_hold;
          f b.exec; f b.reply_net; f b.total ])
    (breakdowns t);
  table

(* ------------------------- export accessors ------------------------- *)

type span_view = {
  v_replica : int;
  v_uid : int;
  v_meth : string;
  v_client : int;
  v_delivered_at : float;
  v_started_at : float option;
  v_ended_at : float option;
  v_waits : (wait_kind * float * float) list; (* oldest first *)
}

let spans t =
  Hashtbl.fold
    (fun (replica, uid) (s : span) acc ->
      { v_replica = replica; v_uid = uid; v_meth = s.meth;
        v_client = s.client; v_delivered_at = s.delivered_at;
        v_started_at = s.started_at; v_ended_at = s.ended_at;
        v_waits = List.rev s.waits }
      :: acc)
    t.spans []
  |> List.sort (fun a b ->
         compare (a.v_replica, a.v_uid) (b.v_replica, b.v_uid))

let series_samples t = List.rev t.series
