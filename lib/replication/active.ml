open Detmt_sim
open Detmt_gcs
open Detmt_runtime
module Recorder = Detmt_obs.Recorder

type payload =
  | P_request of {
      client : int;
      client_req : int;
      meth : string;
      args : Detmt_lang.Ast.value array;
      sent_at : float;
      dummy : bool;
      mutable req : Request.t;
          (* the request every replica runs, built at its first delivery
             (uid = the message's seq) and shared by the other replicas and
             by recovery replay; [blank_request] until then *)
    }
  | P_nested_reply of { tid : int; call_index : int }
  | P_control of Sched_iface.control
  | P_barrier of { epoch : int; label : string }
      (* an elastic reconfiguration barrier: totally ordered like any
         request, a no-op for the interpreter — its slot is the agreed point
         every replica transitions the routing epoch at *)

type params = {
  replicas : int;
  scheduler : string;
  workers : int; (* simulated worker-pool width for parallel schedulers *)
  config : Config.t;
  net_latency_ms : float;
  client_latency_ms : float;
  detection_timeout_ms : float;
  faults : Faults.spec option;
  replica_base : int; (* replica ids are [base, base + replicas) *)
  batching : Totem.batching option;
}

let default_params =
  { replicas = 3; scheduler = "mat"; workers = 1; config = Config.default;
    net_latency_ms = 0.5; client_latency_ms = 0.5;
    detection_timeout_ms = 50.0; faults = None; replica_base = 0;
    batching = None }

type checkpoint_sink =
  replica:int -> seq:int -> hash:int64 -> state:(string * int) list -> unit

type on_reply = client:int -> client_req:int -> response_ms:float -> unit

type t = {
  engine : Engine.t;
  params : params;
  obs : Recorder.t;
  bus : payload Totem.t;
  grp : Group.t;
  cls_instr : Detmt_lang.Class_def.t; (* instrumented class, for recovery *)
  mutable members : Replica.t list;
  mutable dedups : Dedup.t array;
  summary : Detmt_analysis.Predict.class_summary option;
  scheduler : Detmt_sched.Registry.spec;
  (* client-side bookkeeping, keyed by [Dedup.key] of (client,
     client_req) *)
  reply_waiters : Int_table.t; (* key -> waiter slot *)
  wt : Freelist.t;
  mutable wt_sent : float array; (* per waiter: submission time *)
  mutable wt_cb : on_reply array; (* per waiter: the client callback *)
  answered : Dedup.t;
      (* requests already answered at the client: with retries in play a
         late replica reply must never fire the callback a second time *)
  response_times : Detmt_stats.Summary.t;
  mutable replies : int;
  mutable duplicate_client_replies : int;
  mutable reply_times : float array; (* arrival times at clients, in order *)
  mutable n_reply_times : int;
  (* nested invocations outstanding: [nested_key] -> a slot of [on], which
     holds the call's duration *)
  outstanding_nested : Int_table.t;
  on : Freelist.t;
  mutable on_dur : float array;
  mutable dummy_seq : int;
  (* recovery bookkeeping *)
  mutable log : payload Message.t array;
      (* a ring of the broadcasts some live replica has not delivered yet,
         oldest first from [log_head]; [trim_log] drops the prefix every
         live replica has delivered.  The capacity is a power of two that
         doubles when full, so logging allocates nothing once warmed. *)
  mutable log_head : int;
  mutable log_len : int;
  mutable last_seq : int; (* newest broadcast seq; -1 before any traffic *)
  mutable order_fp : int64; (* [order_fingerprint], folded per broadcast *)
  last_delivered : int array; (* per-replica total-order watermark *)
  completed_base : int array;
      (* completed requests folded into each replica's checkpoint sequence
         before its current incarnation started (a recovered replica's own
         counter restarts at zero) *)
  mutable checkpoint_sink : checkpoint_sink option;
  mutable recoveries : int;
  (* elastic reconfiguration: per-replica fold of every delivered barrier
     (seq, epoch, label) — bit-identical across replicas iff every replica
     saw every epoch transition at the same total-order slot *)
  barrier_fp : int64 array;
  barrier_seen : int array;
  (* Pooled typed events: each hop posts one event whose argument is a
     slot of its pool, so no hop allocates a closure.  The reply hop
     (replica -> client) holds (from_replica, request); the submit hop
     (client -> sequencer) the request payload and its [on_ordered]; the
     nested hop (the external service call) its performer and
     [nested_key]. *)
  rp : Freelist.t;
  mutable rp_from : int array;
  mutable rp_req : Request.t array;
  mutable reply_h : Engine.handler_id;
  sb : Freelist.t;
  mutable sb_payload : payload array;
  mutable sb_ordered : (seq:int -> unit) option array;
  mutable submit_h : Engine.handler_id;
  nx : Freelist.t;
  mutable nx_by : int array;
  mutable nx_key : int array;
  mutable nested_h : Engine.handler_id;
}

let blank_request = Request.dummy ~uid:(-1) ~sent_at:0.0

let blank_payload = P_control Sched_iface.View_change

let blank_message =
  { Message.seq = -1; sender = -1; sent_at = 0.0; payload = blank_payload }

let ignore_reply ~client:_ ~client_req:_ ~response_ms:_ = ()

(* (tid, call_index) packed into one int; sorts like the pair. *)
let nested_key ~tid ~call_index =
  if tid < 0 || call_index < 0 || call_index >= 1 lsl 31 then
    invalid_arg "Active: nested call key out of range";
  (tid lsl 31) lor call_index

let leader_id t = Group.leader t.grp

let is_leader t id = leader_id t = id

(* Replica ids live in [base, base + replicas); per-replica arrays are
   indexed by the id's offset into that window. *)
let slot t id = id - t.params.replica_base

let order_mix h v = Int64.add (Int64.mul h 1000003L) (Int64.of_int v)

(* The hot kinds hash without building their tuple ([Payload_hash] folds
   the same ints [Hashtbl.hash] gives); the cold ones hash a tuple. *)
let payload_id = function
  | P_request r ->
    Payload_hash.request ~client:r.client ~client_req:r.client_req
      ~meth:r.meth ~dummy:r.dummy
  | P_nested_reply r ->
    Payload_hash.nested_reply ~tid:r.tid ~call_index:r.call_index
  | P_control c -> Hashtbl.hash (2, c)
  | P_barrier b -> Hashtbl.hash (3, b.epoch, b.label)

(* The [i]-th oldest logged message. *)
let logged t i = t.log.((t.log_head + i) land (Array.length t.log - 1))

let log_push t msg =
  let cap = Array.length t.log in
  if t.log_len = cap then begin
    let log = Array.make (max 64 (2 * cap)) blank_message in
    for i = 0 to t.log_len - 1 do
      log.(i) <- logged t i
    done;
    t.log <- log;
    t.log_head <- 0
  end;
  t.log.((t.log_head + t.log_len) land (Array.length t.log - 1)) <- msg;
  t.log_len <- t.log_len + 1

(* Every broadcast goes through here, in seq order: it folds the order
   fingerprint and logs the message so recovery can replay the suffix a
   rejoining replica missed. *)
let bcast t ~sender ~kind payload =
  Totem.count_kind t.bus kind;
  let msg = Totem.broadcast t.bus ~sender payload in
  let seq = msg.Message.seq in
  log_push t msg;
  t.last_seq <- seq;
  t.order_fp <-
    order_mix
      (order_mix (order_mix t.order_fp seq) sender)
      (payload_id payload);
  seq

(* The lowest watermark of the live replicas, [max_int] when none is
   live. *)
let rec low_watermark t acc = function
  | [] -> acc
  | r :: rest ->
    let acc =
      if Replica.alive r then
        Int.min acc t.last_delivered.(slot t (Replica.id r))
      else acc
    in
    low_watermark t acc rest

(* Drop the logged prefix every live replica has delivered.  Recovery
   replays the messages above a live donor's watermark, which is at or
   above the lowest live one, so no message it needs is dropped.  With no
   live replica there is no donor and nothing is dropped. *)
let trim_log t =
  let low = low_watermark t max_int t.members in
  if low < max_int then
    while t.log_len > 0 && (logged t 0).Message.seq <= low do
      t.log.(t.log_head) <- blank_message;
      t.log_head <- (t.log_head + 1) land (Array.length t.log - 1);
      t.log_len <- t.log_len - 1
    done

(* Every replica registers the outstanding call (so a view change can
   re-issue calls the dead invoker never completed); only the invoker
   schedules the external service.  The service id plays no part in the
   reply, so only the duration is kept. *)
let register_nested t ~key ~duration =
  if not (Int_table.mem t.outstanding_nested key) then begin
    let s = Freelist.alloc t.on in
    t.on_dur <- Freelist.fit t.on_dur t.on 0.0;
    t.on_dur.(s) <- duration;
    ignore (Int_table.add t.outstanding_nested key s)
  end

(* The call's reply is ordered, so no later view change performs it again. *)
let answer_nested t key =
  match Int_table.find t.outstanding_nested key with
  | -1 -> ()
  | s ->
    Int_table.remove t.outstanding_nested key;
    Freelist.release t.on s

let perform_nested t ~by ~key ~duration =
  register_nested t ~key ~duration;
  let s = Freelist.alloc t.nx in
  t.nx_by <- Freelist.fit t.nx_by t.nx 0;
  t.nx_key <- Freelist.fit t.nx_key t.nx 0;
  t.nx_by.(s) <- by;
  t.nx_key.(s) <- key;
  Engine.post t.engine ~delay:duration t.nested_h s

let on_nested_done t s =
  let by = t.nx_by.(s) and key = t.nx_key.(s) in
  Freelist.release t.nx s;
  (* Do not answer twice, and a replica that died while the external call
     was in flight cannot spread the reply (the new leader re-issues). *)
  if Int_table.mem t.outstanding_nested key && Group.alive t.grp by then
    ignore
      (bcast t ~sender:(-2) ~kind:"nested-reply"
         (P_nested_reply
            { tid = key lsr 31; call_index = key land 0x7FFF_FFFF }))

let inject_dummy t ~from_replica =
  (* Every replica's PDS timer fires; only the leader broadcasts so the
     group sees each filler exactly once. *)
  if is_leader t from_replica then begin
    t.dummy_seq <- t.dummy_seq + 1;
    ignore
      (bcast t ~sender:(-1) ~kind:"pds-dummy"
         (P_request
            { client = -1; client_req = t.dummy_seq; meth = "__dummy";
              args = [||]; sent_at = Engine.now t.engine; dummy = true;
              req = blank_request }))
  end

let push_reply_time t at =
  if t.n_reply_times = Array.length t.reply_times then begin
    let a = Array.make (max 64 (2 * t.n_reply_times)) 0.0 in
    Array.blit t.reply_times 0 a 0 t.n_reply_times;
    t.reply_times <- a
  end;
  t.reply_times.(t.n_reply_times) <- at;
  t.n_reply_times <- t.n_reply_times + 1

let on_first_reply t ~from_replica (req : Request.t) =
  let client = req.client and client_req = req.client_req in
  let key = Dedup.key ~client ~request:client_req in
  match Int_table.find t.reply_waiters key with
  | -1 -> () (* later replicas' replies for an already-answered request *)
  | w ->
    Int_table.remove t.reply_waiters key;
    let sent_at = t.wt_sent.(w) and callback = t.wt_cb.(w) in
    t.wt_cb.(w) <- ignore_reply;
    Freelist.release t.wt w;
    if Dedup.seen t.answered ~client ~request:client_req then
      (* A retry re-registered the waiter after the answer was delivered;
         firing the callback again would violate exactly-once. *)
      t.duplicate_client_replies <- t.duplicate_client_replies + 1
    else begin
      ignore (Dedup.mark t.answered ~client ~request:client_req);
      let response_ms =
        Engine.now t.engine +. t.params.client_latency_ms -. sent_at
      in
      Detmt_stats.Summary.add t.response_times response_ms;
      t.replies <- t.replies + 1;
      push_reply_time t (Engine.now t.engine +. t.params.client_latency_ms);
      if Recorder.enabled t.obs then begin
        Recorder.reply_observed t.obs ~replica:from_replica
          ~uid:req.Request.uid ~client:req.client ~client_req:req.client_req
          ~response_ms;
        Recorder.incr t.obs "active.replies";
        Recorder.observe t.obs "active.response_ms" response_ms;
        Recorder.set_gauge t.obs "active.inflight"
          (float_of_int (Int_table.length t.reply_waiters))
      end;
      callback ~client ~client_req ~response_ms
    end

let make_replica t ~engine ~cls ~id =
  let callbacks =
    { Replica.send_reply =
        (fun req ->
          let s = Freelist.alloc t.rp in
          t.rp_from <- Freelist.fit t.rp_from t.rp (-1);
          t.rp_req <- Freelist.fit t.rp_req t.rp blank_request;
          t.rp_from.(s) <- id;
          t.rp_req.(s) <- req;
          Engine.post engine ~delay:t.params.client_latency_ms t.reply_h s);
      do_nested =
        (fun ~tid ~call_index ~service:_ ~duration ->
          let key = nested_key ~tid ~call_index in
          register_nested t ~key ~duration;
          if is_leader t id then perform_nested t ~by:id ~key ~duration);
      broadcast_control =
        (fun control ->
          ignore (bcast t ~sender:id ~kind:"control" (P_control control)));
      inject_dummy = (fun () -> inject_dummy t ~from_replica:id);
      is_leader = (fun () -> is_leader t id) }
  in
  let make_sched actions =
    Detmt_sched.Registry.instantiate
      (Detmt_sched.Sched_config.make ~runtime:t.params.config
         ?summary:t.summary ~workers:t.params.workers t.scheduler.name)
      actions
  in
  let r =
    Replica.create ~engine ~id ~cls ~config:t.params.config ~callbacks
      ~make_sched ~obs:t.obs ()
  in
  (* Divergence checkpoints at local quiescence: the state is then a pure
     function of the delivered request prefix, and the checkpoint sequence
     (base + locally completed) lines up across replicas — including a
     recovered one, whose base absorbs the donor's completed count. *)
  Replica.set_quiescent_hook r (fun ~completed ->
      if Replica.alive r then begin
        let seq = t.completed_base.(slot t id) + completed in
        if Recorder.enabled t.obs then
          Recorder.checkpoint t.obs ~replica:id ~seq
            ~at:(Engine.now t.engine);
        match t.checkpoint_sink with
        | Some sink ->
          sink ~replica:id ~seq
            ~hash:(Replica.state_fingerprint r)
            ~state:(Replica.state_snapshot r)
        | None -> ()
      end);
  r

let deliver t replica (msg : payload Message.t) =
  let id = Replica.id replica in
  t.last_delivered.(slot t id) <- msg.seq;
  trim_log t;
  match msg.payload with
  | P_request ({ client; client_req; meth; args; sent_at; dummy; req } as p)
    ->
    if not (Dedup.mark t.dedups.(slot t id) ~client ~request:client_req)
    then begin
      let req =
        if req.Request.uid = msg.seq then req
        else begin
          let req =
            { Request.uid = msg.seq; client; client_req; meth; args; sent_at;
              dummy }
          in
          p.req <- req;
          req
        end
      in
      Replica.deliver_request replica req
    end
  | P_nested_reply { tid; call_index } ->
    answer_nested t (nested_key ~tid ~call_index);
    Replica.nested_reply replica ~tid ~call_index
  | P_control control -> Replica.deliver_control replica ~sender:msg.sender control
  | P_barrier { epoch; label } ->
    let s = slot t id in
    t.barrier_seen.(s) <- t.barrier_seen.(s) + 1;
    let mix h v = Int64.add (Int64.mul h 1000003L) (Int64.of_int v) in
    t.barrier_fp.(s) <-
      mix (mix (mix t.barrier_fp.(s) msg.seq) epoch) (Hashtbl.hash label)

(* The submit hop's arrival at the sequencer: broadcast the request. *)
let on_sequencer t s =
  let payload = t.sb_payload.(s) and on_ordered = t.sb_ordered.(s) in
  t.sb_payload.(s) <- blank_payload;
  t.sb_ordered.(s) <- None;
  Freelist.release t.sb s;
  match payload with
  | P_request { client; client_req; _ } -> (
    if Recorder.enabled t.obs then
      Recorder.request_broadcast t.obs ~client ~client_req
        ~at:(Engine.now t.engine);
    let seq = bcast t ~sender:(1000 + client) ~kind:"request" payload in
    (* Fires once the request holds a slot in this group's total order —
       the hook cross-shard coordination hangs its second phase on. *)
    match on_ordered with Some f -> f ~seq | None -> ())
  | _ -> assert false

let create ?(obs = Recorder.disabled) ~engine ~cls ~(params : params) () =
  (* Continuous telemetry: window metrics by the virtual clock, snapshot
     the event-queue depth once per window, and (with a profiler attached)
     time the engine's pop/dispatch phases.  All observation-only. *)
  if Recorder.enabled obs then begin
    Recorder.set_clock obs (fun () -> Engine.now engine);
    Recorder.set_depth_probe obs (Some (fun () -> Engine.pending engine))
  end;
  (match Recorder.profiler obs with
  | Some p -> Detmt_obs.Profile.attach_engine p engine
  | None -> ());
  let scheduler = Detmt_sched.Registry.find_exn params.scheduler in
  let cls', summary =
    if scheduler.needs_prediction then
      let c, s = Detmt_transform.Transform.predictive cls in
      (c, Some s)
    else (Detmt_transform.Transform.basic cls, None)
  in
  if params.replica_base < 0 then
    invalid_arg "Active.create: replica_base < 0";
  let latency ~sender:_ ~dest:_ = params.net_latency_ms in
  let faults = Option.map Faults.create params.faults in
  let bus =
    Totem.create ~latency ?faults ~obs ?batching:params.batching engine
  in
  let members =
    List.init params.replicas (fun i -> params.replica_base + i)
  in
  let grp =
    Group.create engine ~members
      ~detection_timeout_ms:params.detection_timeout_ms
  in
  let t =
    { engine; params; obs; bus; grp; cls_instr = cls'; members = []; summary;
      scheduler;
      dedups = Array.init params.replicas (fun _ -> Dedup.create ());
      reply_waiters = Int_table.create (); wt = Freelist.create ();
      wt_sent = [||]; wt_cb = [||]; answered = Dedup.create ();
      response_times = Detmt_stats.Summary.create (); replies = 0;
      duplicate_client_replies = 0; reply_times = [||]; n_reply_times = 0;
      outstanding_nested = Int_table.create (); on = Freelist.create ();
      on_dur = [||]; dummy_seq = 0; log = [||]; log_head = 0; log_len = 0;
      last_seq = -1; order_fp = 0x2545F4914F6CDD1DL;
      last_delivered = Array.make params.replicas (-1);
      completed_base = Array.make params.replicas 0;
      checkpoint_sink = None; recoveries = 0;
      barrier_fp = Array.make params.replicas 0x9E3779B97F4A7C15L;
      barrier_seen = Array.make params.replicas 0;
      rp = Freelist.create (); rp_from = [||]; rp_req = [||]; reply_h = 0;
      sb = Freelist.create (); sb_payload = [||]; sb_ordered = [||];
      submit_h = 0; nx = Freelist.create (); nx_by = [||]; nx_key = [||];
      nested_h = 0 }
  in
  t.reply_h <-
    Engine.register_handler engine (fun s ->
        let from = t.rp_from.(s) and req = t.rp_req.(s) in
        (* clear the slot before dispatch so the request is collectable *)
        t.rp_req.(s) <- blank_request;
        Freelist.release t.rp s;
        on_first_reply t ~from_replica:from req);
  t.submit_h <- Engine.register_handler engine (fun s -> on_sequencer t s);
  t.nested_h <- Engine.register_handler engine (fun s -> on_nested_done t s);
  let replicas =
    List.map (fun id -> make_replica t ~engine ~cls:cls' ~id) members
  in
  t.members <- replicas;
  List.iter
    (fun r ->
      Totem.subscribe bus ~id:(Replica.id r) (fun msg -> deliver t r msg))
    replicas;
  (* On a failure view the new leader re-issues outstanding nested calls the
     dead leader may never have completed.  Join views change nothing for
     the survivors: leadership is seniority-ordered, so a rejoining replica
     never takes over, and re-issuing nested calls would duplicate external
     side effects. *)
  Group.on_view_change grp (fun view ->
      match view.Group.cause with
      | Group.Initial | Group.Join _ -> ()
      | Group.Failure _ ->
        (* Tell every surviving scheduler about the new view (a promoted LSA
           leader must drain the old leader's published decisions and take
           over); then re-issue nested calls the dead invoker left behind. *)
        List.iter
          (fun r ->
            if Replica.alive r then
              Replica.deliver_control r ~sender:(-1)
                Detmt_runtime.Sched_iface.View_change)
          t.members;
        let pending =
          Int_table.fold
            (fun key s acc -> (key, t.on_dur.(s)) :: acc)
            t.outstanding_nested []
          |> List.sort compare
        in
        List.iter
          (fun (key, duration) ->
            perform_nested t ~by:view.Group.leader ~key ~duration)
          pending);
  t

let submit ?on_ordered t ~client ~client_req ~meth ~args ~on_reply =
  (* A retry that raced with its own answer must not re-register a waiter:
     the next replica reply would fire the callback a second time. *)
  if not (Dedup.seen t.answered ~client ~request:client_req) then begin
    let key = Dedup.key ~client ~request:client_req in
    let sent_at = Engine.now t.engine in
    let w =
      match Int_table.find t.reply_waiters key with
      | -1 ->
        let w = Freelist.alloc t.wt in
        t.wt_sent <- Freelist.fit t.wt_sent t.wt 0.0;
        t.wt_cb <- Freelist.fit t.wt_cb t.wt ignore_reply;
        ignore (Int_table.add t.reply_waiters key w);
        w
      | w -> w
    in
    t.wt_sent.(w) <- sent_at;
    t.wt_cb.(w) <- on_reply;
    if Recorder.enabled t.obs then
      Recorder.set_gauge t.obs "active.inflight"
        (float_of_int (Int_table.length t.reply_waiters));
    (* client -> sequencer latency before the totally-ordered broadcast *)
    let s = Freelist.alloc t.sb in
    t.sb_payload <- Freelist.fit t.sb_payload t.sb blank_payload;
    t.sb_ordered <- Freelist.fit t.sb_ordered t.sb None;
    t.sb_payload.(s) <-
      P_request
        { client; client_req; meth; args; sent_at; dummy = false;
          req = blank_request };
    t.sb_ordered.(s) <- on_ordered;
    Engine.post t.engine ~delay:t.params.client_latency_ms t.submit_h s
  end

let engine t = t.engine

let replicas t = t.members

let live_replicas t = List.filter Replica.alive t.members

let group t = t.grp

let kill_replica t id =
  List.iter
    (fun r -> if Replica.id r = id then Replica.set_alive r false)
    t.members;
  Totem.set_alive t.bus id false;
  Group.kill t.grp id

(* ------------------------------------------------------------------ *)
(* Crash recovery: rejoin through a group view change with a state
   transfer from a live donor.

   The donor is sampled at local quiescence, when its whole state — object
   fields, mutex-reference fields, scheduler bookkeeping — is a pure
   function of the delivered prefix of the total order (every request up to
   its watermark has fully executed, including nested calls and, under LSA,
   every grant at or below the watermark: per-subscriber FIFO delivery
   makes the watermark a prefix).  The suffix (logged messages past the
   watermark) is replayed to the new incarnation in sequence order before
   any post-join bus delivery can arrive, so the recovered replica observes
   exactly the donor's total order. *)

(* How often a recovery waiting for donor quiescence re-checks. *)
let recovery_poll_ms = 1.0

let recover_replica t ?at id =
  if not (List.exists (fun r -> Replica.id r = id) t.members) then
    invalid_arg (Printf.sprintf "Active.recover_replica: unknown replica %d" id);
  let begin_at = Option.value ~default:(Engine.now t.engine) at in
  let perform donor =
    let donor_id = Replica.id donor in
    let watermark = t.last_delivered.(slot t donor_id) in
    let state = Replica.state_snapshot donor in
    let mutex_fields =
      Object_state.mutex_field_snapshot (Replica.object_state donor)
    in
    let sched_state = Replica.sched_snapshot donor in
    let completed =
      t.completed_base.(slot t donor_id) + Replica.completed_requests donor
    in
    (* Fresh incarnation; the old Replica.t stays dead and inert. *)
    let r' = make_replica t ~engine:t.engine ~cls:t.cls_instr ~id in
    let obj = Replica.object_state r' in
    List.iter (fun (f, v) -> Object_state.set_state obj f v) state;
    List.iter (fun (f, v) -> Object_state.set_mutex_field obj f v) mutex_fields;
    Replica.sched_restore r' sched_state;
    t.members <-
      List.map (fun r -> if Replica.id r = id then r' else r) t.members;
    t.dedups.(slot t id) <- Dedup.copy t.dedups.(slot t donor_id);
    t.completed_base.(slot t id) <- completed;
    t.last_delivered.(slot t id) <- watermark;
    (* the donor's delivered prefix includes its barriers; the suffix replay
       below redelivers any past the watermark *)
    t.barrier_fp.(slot t id) <- t.barrier_fp.(slot t donor_id);
    t.barrier_seen.(slot t id) <- t.barrier_seen.(slot t donor_id);
    Totem.resubscribe t.bus ~id (fun msg -> deliver t r' msg);
    (* Everything broadcast so far is covered by snapshot + replay; stale
       in-flight copies addressed to the old incarnation must not leak in. *)
    if t.last_seq >= 0 then
      Totem.advance_watermark t.bus ~id ~seq:t.last_seq;
    Group.join t.grp id;
    let suffix =
      List.filter
        (fun (m : payload Message.t) -> m.seq > watermark)
        (List.init t.log_len (logged t))
    in
    (* One network hop later, before any same-or-later bus arrival: events
       scheduled for the same instant run in scheduling order. *)
    Engine.schedule t.engine ~delay:t.params.net_latency_ms (fun () ->
        List.iter (fun m -> deliver t r' m) suffix);
    t.recoveries <- t.recoveries + 1;
    if Recorder.enabled t.obs then begin
      Recorder.incr t.obs "active.recoveries";
      Recorder.observe t.obs "active.recovery.donor_wait_ms"
        (Engine.now t.engine -. begin_at);
      Recorder.observe t.obs "active.recovery.replayed_msgs"
        (float_of_int (List.length suffix))
    end
  in
  let rec attempt () =
    if List.exists (fun r -> Replica.id r = id && Replica.alive r) t.members
    then () (* already live *)
    else
      match
        List.find_opt
          (fun r -> Replica.alive r && Replica.id r <> id)
          t.members
      with
      | None ->
        failwith
          (Printf.sprintf
             "Active.recover_replica: no live donor for replica %d" id)
      | Some donor ->
        if Replica.active_threads donor > 0 then
          (* Wait for donor quiescence — the only moment the snapshot is a
             pure function of the delivered prefix. *)
          Engine.schedule t.engine ~delay:recovery_poll_ms attempt
        else perform donor
  in
  Engine.schedule_at t.engine ~time:begin_at attempt

let set_checkpoint_sink t sink = t.checkpoint_sink <- Some sink

let logged_messages t = t.log_len

let recoveries t = t.recoveries

(* ------------------------------------------------------------------ *)
(* Elastic reconfiguration support ({!Reconfig}).

   A barrier is a totally-ordered no-op: its slot is the agreed point of an
   epoch transition, and every replica folds (seq, epoch, label) into a
   per-replica fingerprint so tests can assert the transition was observed
   bit-identically.  The state-transfer helpers below reuse the recovery
   invariant: they may only run when the donor group is quiescent, i.e. its
   whole state is a pure function of the delivered prefix. *)

let order_barrier t ~epoch ~label ~on_ordered =
  let seq =
    bcast t ~sender:(-3) ~kind:"barrier" (P_barrier { epoch; label })
  in
  if Recorder.enabled t.obs then Recorder.incr t.obs "active.barriers";
  on_ordered ~seq

let barrier_fingerprints t =
  List.filter_map
    (fun r ->
      if Replica.alive r then
        Some (Replica.id r, t.barrier_fp.(slot t (Replica.id r)),
              t.barrier_seen.(slot t (Replica.id r)))
      else None)
    t.members

let quiescent t =
  List.for_all
    (fun r -> (not (Replica.alive r)) || Replica.active_threads r = 0)
    t.members
  && List.exists Replica.alive t.members

let lowest_live_donor t =
  match List.find_opt Replica.alive t.members with
  | Some r -> r
  | None -> failwith "Active: no live replica to donate state"

let donor_state t = Replica.state_snapshot (lowest_live_donor t)

(* Fold a retiring group's final state fields into every live replica —
   deterministic because it runs at a drained barrier, between any two
   delivered requests, identically on all replicas. *)
let absorb_state t ~delta =
  List.iter
    (fun r ->
      if Replica.alive r then
        let obj = Replica.object_state r in
        List.iter (fun (f, v) -> Object_state.update_state obj f v) delta)
    t.members

let merge_dedups t ~from =
  let donor = from.dedups.(slot from (Replica.id (lowest_live_donor from))) in
  Array.iter (fun d -> Dedup.merge ~into:d donor) t.dedups;
  (* The ledger now covers the retiree's dummy fillers (client -1); the
     survivor's own counter must clear them or its future fillers would be
     suppressed as duplicates and PDS rounds could never refill. *)
  t.dummy_seq <- max t.dummy_seq from.dummy_seq

(* Bootstrap a freshly created, traffic-free group from a quiescent donor
   group — the split / hot-swap state transfer.  Always carried: the
   duplicate-suppression ledger (a re-routed retry of an executed request
   must stay suppressed) and the mutex-reference fields.  [carry_state]
   additionally clones the object state fields and the donor's completed
   count (a hot swap continues the same logical group; a split starts its
   own per-group counters at zero and folds them back at merge).  Replica
   aliveness is mirrored so a swap cannot resurrect a crashed replica. *)
let bootstrap t ~from ~carry_state =
  if Totem.broadcasts t.bus > 0 || t.replies > 0 then
    invalid_arg "Active.bootstrap: target group already carried traffic";
  let donor = lowest_live_donor from in
  let donor_slot = slot from (Replica.id donor) in
  let state = Replica.state_snapshot donor in
  let mutex_fields =
    Object_state.mutex_field_snapshot (Replica.object_state donor)
  in
  let completed =
    from.completed_base.(donor_slot) + Replica.completed_requests donor
  in
  List.iter
    (fun r ->
      let obj = Replica.object_state r in
      List.iter (fun (f, v) -> Object_state.set_mutex_field obj f v)
        mutex_fields;
      if carry_state then begin
        List.iter (fun (f, v) -> Object_state.set_state obj f v) state;
        t.completed_base.(slot t (Replica.id r)) <- completed
      end)
    t.members;
  Array.iteri
    (fun i _ -> t.dedups.(i) <- Dedup.copy from.dedups.(donor_slot))
    t.dedups;
  (* The inherited ledger covers the donor's dummy fillers (client -1), so
     the filler counter must continue past them — restarting at zero would
     get every new filler dropped as a duplicate, wedging PDS rounds. *)
  t.dummy_seq <- from.dummy_seq;
  (* mirror crashes offset-for-offset so the group views line up *)
  List.iteri
    (fun i r ->
      match List.nth_opt from.members i with
      | Some old when not (Replica.alive old) -> kill_replica t (Replica.id r)
      | _ -> ())
    t.members

let faults t = Totem.faults t.bus

let set_delivery_oracle t oracle = Totem.set_delivery_oracle t.bus oracle

let set_flush_oracle t oracle = Totem.set_flush_oracle t.bus oracle

(* Order-sensitive hash of every broadcast: seq, sender and payload
   identity, in total order, folded by [bcast].  Two runs with equal order
   fingerprints delivered the same messages in the same order, so any reply
   or state difference between them is a scheduler-determinism bug rather
   than a shifted total order. *)
let order_fingerprint t = t.order_fp

let response_times t = t.response_times

let replies_received t = t.replies

let outstanding_requests t =
  Int_table.fold (fun k _ acc -> Dedup.unkey k :: acc) t.reply_waiters []
  |> List.filter (fun (client, request) ->
         not (Dedup.seen t.answered ~client ~request))
  |> List.sort compare

let duplicate_client_replies t = t.duplicate_client_replies

let reply_times t = List.init t.n_reply_times (Array.get t.reply_times)

let message_stats t = Totem.kind_counts t.bus

let broadcasts t = Totem.broadcasts t.bus

let wire_batches t = Totem.wire_batches t.bus

let params t = t.params

let summary t = t.summary

let scheduler_name t = t.scheduler.name
