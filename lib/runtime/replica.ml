open Detmt_sim
module Recorder = Detmt_obs.Recorder

type thread_status =
  | Created
  | Running
  | Lock_blocked of { syncid : int; mutex : int }
  | Wait_parked of { mutex : int; count : int }
  | Reacquire_blocked of { mutex : int; count : int }
  | Nested_blocked of { call_index : int }
  | Nested_ready of { call_index : int }
  | Commit_pending
  | Terminated

(* A thread's status as the hot path keeps it: a constant constructor for
   each [thread_status] case, and the ints of a gate case in the thread's
   [gate_mutex] / [gate_arg] fields, so stopping a thread at a gate
   allocates nothing.  [status] builds the public variant on query. *)
module State = struct
  type t =
    | Created
    | Running
    | Lock_blocked (* gate_mutex; gate_arg = syncid *)
    | Wait_parked (* gate_mutex; gate_arg = count *)
    | Reacquire_blocked (* gate_mutex; gate_arg = count *)
    | Nested_blocked (* gate_arg = call_index *)
    | Nested_ready (* gate_arg = call_index *)
    | Commit_pending
    | Terminated
end

type callbacks = {
  send_reply : Request.t -> unit;
  do_nested :
    tid:int -> call_index:int -> service:int -> duration:float -> unit;
  broadcast_control : Sched_iface.control -> unit;
  inject_dummy : unit -> unit;
  is_leader : unit -> bool;
}

type thread = {
  tid : int;
  req : Request.t;
  mutable cursor : Interp.cursor;
      (* set once per (re-)execution by [start_thread]; [Interp.idle] before
         it, after the body is done and after a discarded speculation *)
  mutable state : State.t;
  mutable gate_mutex : int;
  mutable gate_arg : int;
  mutable nested_count : int; (* nested invocations issued so far *)
  mutable buffered_replies : int list; (* call indices answered early *)
  mutable ws : Workspace.t;
      (* speculative execution: taken from the replica's pool by [ws_begin],
         merged or discarded (and returned) at [ws_commit] or an unsafe
         abort; [Workspace.none] for direct execution *)
}

type t = {
  id : int;
  engine : Engine.t;
  cpu : Cpu.t;
  config : Config.t;
  program : Interp.program;
  obj : Object_state.t;
  ws_pool : Workspace.Pool.t; (* released workspaces over [obj] *)
  mslots : Slot_map.t; (* keys [mutexes], [condvars] and [acquisitions] *)
  mutexes : Mutex_table.t;
  condvars : Condvar.t;
  trace_rec : Trace.t;
  mutable threads : thread array;
      (* the live threads, a ring on tid: thread [tid] sits in cell
         [tid land (length - 1)], a free cell holds [vacant].  Tids are
         increasing total-order seqs, so the ring doubles only when the span
         of the live tids outgrows it, and [finish] puts [vacant] back, so
         no finished thread stays reachable *)
  mutable last_uid : int;
      (* highest delivered uid.  Uids are total-order seqs, delivered in
         increasing order, so a tid at or below it that is not in [threads]
         has terminated, or was a seq that carried no request here *)
  mutable sched : Sched_iface.sched option;
  obs : Recorder.t;
  callbacks : callbacks;
  mutable live : bool;
  mutable completed : int;
  mutable active : int; (* delivered, not yet terminated threads *)
  mutable ws_commits : int; (* workspace merges at the slot-order barrier *)
  mutable ws_aborts : int; (* discarded speculations (stale or unsafe) *)
  acquisitions : Acquisition_order.t;
  mutable on_quiescent : (completed:int -> unit) option;
      (* fired whenever the last active thread terminates — the replication
         layer hangs divergence checkpoints off this *)
  mutable advance_h : Engine.handler_id;
      (* typed continuations for the op-interpreter hot path: cost charging
         posts (handler, tid) pairs instead of allocating a closure per
         interpreter step *)
  mutable finish_h : Engine.handler_id;
  mutable pool_busy : int;
      (* pool workers currently running a thread (parallel schedulers only;
         observation-only series behind [observing]) *)
}

(* Stop [th] at a gate: its state and the two ints that case carries. *)
let hold th state ~mutex ~arg =
  th.state <- state;
  th.gate_mutex <- mutex;
  th.gate_arg <- arg

let status th =
  match th.state with
  | State.Created -> Created
  | Running -> Running
  | Lock_blocked ->
    Lock_blocked { syncid = th.gate_arg; mutex = th.gate_mutex }
  | Wait_parked -> Wait_parked { mutex = th.gate_mutex; count = th.gate_arg }
  | Reacquire_blocked ->
    Reacquire_blocked { mutex = th.gate_mutex; count = th.gate_arg }
  | Nested_blocked -> Nested_blocked { call_index = th.gate_arg }
  | Nested_ready -> Nested_ready { call_index = th.gate_arg }
  | Commit_pending -> Commit_pending
  | Terminated -> Terminated

let sched t =
  match t.sched with
  | Some s -> s
  | None -> invalid_arg "Replica: scheduler not attached"

(* The filler of a free [threads] cell. *)
let vacant =
  { tid = -1; req = Request.dummy ~uid:(-1) ~sent_at:0.0; cursor = Interp.idle;
    state = State.Terminated; gate_mutex = -1; gate_arg = 0; nested_count = 0;
    buffered_replies = []; ws = Workspace.none }

(* The live thread of [tid], or [vacant]. *)
let live_thread t tid =
  let th = t.threads.(tid land (Array.length t.threads - 1)) in
  if th.tid = tid then th else vacant

(* Put a delivered thread in its cell, doubling the ring (and re-placing
   every live thread) while a live thread holds the cell. *)
let rec place t th =
  let ring = t.threads in
  let i = th.tid land (Array.length ring - 1) in
  if ring.(i) == vacant then ring.(i) <- th
  else begin
    t.threads <- Array.make (2 * Array.length ring) vacant;
    Array.iter (fun o -> if o != vacant then place t o) ring;
    place t th
  end

let thread t tid =
  let th = live_thread t tid in
  if th == vacant then
    invalid_arg (Printf.sprintf "Replica %d: unknown thread %d" t.id tid);
  th

let now t = Engine.now t.engine

(* The hot event kinds go through [Trace]'s field-level recorders, which
   build no event block unless the trace keeps events; [record] is for the
   rare kinds (notify, control, workspace verdicts). *)
let record t ev = Trace.record_at t.trace_rec ~time:(now t) ev

(* Observability (the flight recorder) is guarded at every call site:
   [t.obs] defaults to [Recorder.disabled] and must never affect the
   simulation — it only ever reads the clock. *)
let observing t = Recorder.enabled t.obs

let rec_wait_begin t th kind =
  Recorder.wait_begin t.obs ~replica:t.id ~uid:th.tid ~kind
    ~at:(Engine.now t.engine)

let rec_wait_end t th =
  Recorder.wait_end t.obs ~replica:t.id ~uid:th.tid ~at:(Engine.now t.engine)

let record_acquisition t ~slot ~th =
  Acquisition_order.record t.acquisitions ~slot ~client:th.req.Request.client
    ~client_req:th.req.Request.client_req

(* A notified waiter moves from its wait set to the reacquire gate. *)
let wake t s ~mutex wtid =
  let w = thread t wtid in
  match w.state with
  | State.Wait_parked when w.gate_mutex = mutex ->
    w.state <- State.Reacquire_blocked;
    if observing t then begin
      rec_wait_end t w;
      rec_wait_begin t w Recorder.Reacquire
    end;
    s.Sched_iface.on_wakeup wtid ~mutex
  | _ ->
    invalid_arg
      (Printf.sprintf "Replica %d: notified t%d is not waiting" t.id wtid)

(* A walk, not [List.iter] of a partial application: an empty notify-all
   builds no closure. *)
let rec wake_all t s ~mutex = function
  | [] -> ()
  | wtid :: rest ->
    wake t s ~mutex wtid;
    wake_all t s ~mutex rest

let rec advance t th =
  if t.live then begin
    let c = th.cursor in
    if c == Interp.idle then
      invalid_arg (Printf.sprintf "Replica %d: t%d has no cursor" t.id th.tid);
    th.state <- State.Running;
    if Interp.next c then handle_op t th c else body_done t th
  end

(* Charge CPU time and continue; zero-cost steps continue synchronously.
   The continuation is a typed (handler, tid) pair, so charging cost never
   allocates a closure — threads are looked up again by tid at dispatch,
   which is safe because only [finish] frees a tid's cell, and a finished
   thread has no pending continuation; a stale tid whose cell a newer
   thread took reads as no thread, since the cell's tid differs. *)
and after_cost_advance t duration th =
  if duration <= 0.0 then advance t th
  else Cpu.exec_h t.cpu ~duration t.advance_h th.tid

and after_cost_finish t duration th =
  if duration <= 0.0 then finish t th
  else Cpu.exec_h t.cpu ~duration t.finish_h th.tid

and body_done t th =
  th.cursor <- Interp.idle;
  if th.ws != Workspace.none then begin
    (* Speculation complete: hold the workspace until the scheduler grants
       the slot-order commit barrier.  The reply is built (and the reply
       cost charged) only after a successful merge. *)
    th.state <- State.Commit_pending;
    if observing t then rec_wait_begin t th Recorder.Commit_hold;
    (sched t).on_ws_event th.tid Sched_iface.Ws_ready
  end
  else
    (* Final computation: build the reply message (section 4.1). *)
    let cost = if th.req.Request.dummy then 0.0 else t.config.reply_build_ms in
    after_cost_finish t cost th

and finish t th =
  if t.live then begin
    th.state <- State.Terminated;
    Trace.thread_end t.trace_rec ~time:(now t) ~tid:th.tid;
    if observing t then begin
      Recorder.request_ended t.obs ~replica:t.id ~uid:th.tid
        ~at:(Engine.now t.engine);
      Recorder.incr t.obs "replica.requests_completed"
    end;
    t.completed <- t.completed + 1;
    t.active <- t.active - 1;
    t.threads.(th.tid land (Array.length t.threads - 1)) <- vacant;
    Mutex_table.forget t.mutexes ~tid:th.tid;
    (sched t).on_terminate th.tid;
    if not th.req.Request.dummy then t.callbacks.send_reply th.req;
    (* Local quiescence: every delivered request has run to completion.  The
       state is now a pure function of the delivered prefix of the total
       order, so it is the sound moment for a divergence checkpoint. *)
    match t.on_quiescent with
    | Some hook when t.active = 0 -> hook ~completed:t.completed
    | _ -> ()
  end

(* The op is the cursor's current one: its kind and operands are read in
   place, so dispatching it allocates nothing. *)
and handle_op t th c =
  if th.ws == Workspace.none then handle_direct_op t th c
  else handle_spec_op t th th.ws c

(* The state update's field offset; an undeclared field raises the error
   of the by-name accessors. *)
and update_offset c =
  match Interp.field c with
  | -1 -> Object_state.no_such "state field" (Interp.field_name c)
  | off -> off

(* A thread's workspace goes back to the replica's pool, cleared, when its
   speculation commits or is discarded. *)
and discard_ws t th =
  Workspace.Pool.release t.ws_pool th.ws;
  th.ws <- Workspace.none

(* Speculative execution: no committed-state side effects and no grant
   traffic through the scheduler.  Locks are virtualised into the workspace
   (same time charge as a direct grant, so a one-worker speculative run
   costs what SEQ costs); operations that cannot be virtualised abort the
   speculation — the thread re-executes directly in slot order. *)
and handle_spec_op t th w c =
  match Interp.kind c with
  | Op.Compute ->
    Cpu.exec_h t.cpu ~duration:(Interp.duration c) t.advance_h th.tid
  | Op.Lock ->
    Workspace.vlock w ~mutex:(Interp.mutex c);
    after_cost_advance t t.config.lock_overhead_ms th
  | Op.Unlock ->
    Workspace.vunlock w ~mutex:(Interp.mutex c);
    after_cost_advance t t.config.lock_overhead_ms th
  | Op.State_update ->
    (* Same system-model check as direct execution, against the virtual
       hold set. *)
    if not (Workspace.holds_any w) then
      invalid_arg
        (Printf.sprintf
           "Replica %d: speculative t%d updates %S without holding a lock"
           t.id th.tid (Interp.field_name c));
    Workspace.update_state w (update_offset c) (Interp.delta c);
    advance t th
  | Op.Lockinfo | Op.Ignore | Op.Loop_enter | Op.Loop_exit ->
    (* Announcements are suppressed while speculating: an aborted request
       re-executes from the top and replays the whole stream, so the
       bookkeeping module must not consume a partial one.  The injected
       call still costs its time. *)
    after_cost_advance t t.config.bookkeeping_overhead_ms th
  | Op.Wait | Op.Notify | Op.Nested -> ws_unsafe_abort t th

(* An operation the workspace cannot virtualise: discard the speculation and
   hand the thread back to the scheduler for direct re-execution.  The
   scheduler re-runs it at its slot-order barrier, so the re-execution reads
   exactly the slot-serial prefix — the abort changes timing, never
   observables. *)
and ws_unsafe_abort t th =
  t.ws_aborts <- t.ws_aborts + 1;
  record t (Trace.Ws_abort { tid = th.tid; conflicts = 0 });
  if observing t then Recorder.incr t.obs "replica.ws.aborts_unsafe";
  discard_ws t th;
  th.cursor <- Interp.idle;
  th.state <- State.Created;
  (sched t).on_ws_event th.tid Sched_iface.Ws_unsafe

and handle_direct_op t th c =
  let s = sched t in
  match Interp.kind c with
  | Op.Compute ->
    Cpu.exec_h t.cpu ~duration:(Interp.duration c) t.advance_h th.tid
  | Op.Lock ->
    let syncid = Interp.syncid c and mutex = Interp.mutex c in
    let slot = Slot_map.intern t.mslots mutex in
    if Mutex_table.owns t.mutexes ~slot ~tid:th.tid then begin
      (* Re-entrant entry: no scheduling decision needed (section 2: binary,
         re-entrant mutexes). *)
      Mutex_table.acquire t.mutexes ~slot ~tid:th.tid;
      Trace.lock_granted t.trace_rec ~time:(now t) ~tid:th.tid ~syncid ~mutex;
      record_acquisition t ~slot ~th;
      s.on_acquired th.tid ~syncid ~mutex;
      after_cost_advance t t.config.lock_overhead_ms th
    end
    else begin
      hold th State.Lock_blocked ~mutex ~arg:syncid;
      Trace.lock_requested t.trace_rec ~time:(now t) ~tid:th.tid ~syncid
        ~mutex;
      if observing t then
        (* The scheduler may defer the grant even when the mutex is free;
           attribute that stall to policy, not contention. *)
        rec_wait_begin t th
          (if Mutex_table.is_free_for t.mutexes ~slot ~tid:th.tid then
             Recorder.Lock_policy
           else Recorder.Lock_contention);
      s.on_lock th.tid ~syncid ~mutex
    end
  | Op.Unlock ->
    let syncid = Interp.syncid c and mutex = Interp.mutex c in
    let slot = Slot_map.intern t.mslots mutex in
    let freed = Mutex_table.release t.mutexes ~slot ~tid:th.tid in
    Trace.unlocked t.trace_rec ~time:(now t) ~tid:th.tid ~syncid ~mutex;
    s.on_unlock th.tid ~syncid ~mutex ~freed;
    after_cost_advance t t.config.lock_overhead_ms th
  | Op.Wait ->
    let mutex = Interp.mutex c in
    let slot = Slot_map.intern t.mslots mutex in
    let count = Mutex_table.release_all t.mutexes ~slot ~tid:th.tid in
    hold th State.Wait_parked ~mutex ~arg:count;
    Condvar.park t.condvars ~slot ~tid:th.tid;
    Trace.wait_begin t.trace_rec ~time:(now t) ~tid:th.tid ~mutex;
    if observing t then rec_wait_begin t th Recorder.Condvar;
    s.on_wait th.tid ~mutex
  | Op.Notify ->
    let mutex = Interp.mutex c and all = Interp.all c in
    let slot = Slot_map.intern t.mslots mutex in
    Trace.notified t.trace_rec ~time:(now t) ~tid:th.tid ~mutex ~all;
    if all then wake_all t s ~mutex (Condvar.notify_all t.condvars ~slot)
    else begin
      let wtid = Condvar.notify_one t.condvars ~slot in
      if wtid >= 0 then wake t s ~mutex wtid
    end;
    after_cost_advance t t.config.lock_overhead_ms th
  | Op.Nested ->
    let service = Interp.service c in
    let call_index = th.nested_count in
    th.nested_count <- call_index + 1;
    Trace.nested_begin t.trace_rec ~time:(now t) ~tid:th.tid ~service;
    if List.mem call_index th.buffered_replies then begin
      (* The reply (broadcast by the invoking replica) overtook us. *)
      th.buffered_replies <-
        List.filter (fun i -> i <> call_index) th.buffered_replies;
      hold th State.Nested_ready ~mutex:(-1) ~arg:call_index;
      if observing t then rec_wait_begin t th Recorder.Resume_hold;
      s.on_nested_begin th.tid;
      Trace.nested_end t.trace_rec ~time:(now t) ~tid:th.tid ~service:0;
      s.on_nested_reply th.tid
    end
    else begin
      hold th State.Nested_blocked ~mutex:(-1) ~arg:call_index;
      if observing t then rec_wait_begin t th Recorder.Nested;
      s.on_nested_begin th.tid;
      t.callbacks.do_nested ~tid:th.tid ~call_index ~service
        ~duration:(Interp.duration c)
    end
  | Op.Lockinfo ->
    s.on_lockinfo th.tid ~syncid:(Interp.syncid c) ~mutex:(Interp.mutex c);
    after_cost_advance t t.config.bookkeeping_overhead_ms th
  | Op.Ignore ->
    s.on_ignore th.tid ~syncid:(Interp.syncid c);
    after_cost_advance t t.config.bookkeeping_overhead_ms th
  | Op.Loop_enter ->
    s.on_loop_enter th.tid ~loopid:(Interp.loopid c);
    after_cost_advance t t.config.bookkeeping_overhead_ms th
  | Op.Loop_exit ->
    s.on_loop_exit th.tid ~loopid:(Interp.loopid c);
    after_cost_advance t t.config.bookkeeping_overhead_ms th
  | Op.State_update ->
    (* System model (section 2): shared state is accessed under a lock. *)
    if not (Mutex_table.holds_any t.mutexes ~tid:th.tid) then
      invalid_arg
        (Printf.sprintf "Replica %d: t%d updates %S without holding a lock"
           t.id th.tid (Interp.field_name c));
    Object_state.update_state_at t.obj (update_offset c) (Interp.delta c);
    advance t th

(* ------------------------------------------------------------------ *)
(* Actions offered to the scheduler.                                   *)

let do_start_thread t tid =
  let th = thread t tid in
  (match th.state with
  | State.Created -> ()
  | _ -> invalid_arg (Printf.sprintf "Replica %d: t%d started twice" t.id tid));
  Trace.thread_start t.trace_rec ~time:(now t) ~tid
    ~method_name:th.req.Request.meth;
  if observing t then
    Recorder.request_started t.obs ~replica:t.id ~uid:tid
      ~at:(Engine.now t.engine);
  th.cursor <- Interp.start t.program ~obj:t.obj ~ws:th.ws th.req;
  advance t th

(* --------------------------- workspace actions --------------------------- *)

let do_ws_begin t ~tid ~record_acquisitions =
  let th = thread t tid in
  (match th.state with
  | State.Created -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Replica %d: ws_begin for t%d not in Created" t.id tid));
  th.ws <- Workspace.Pool.take t.ws_pool ~record_acquisitions

(* The slot-order commit barrier.  The scheduler guarantees quiescence for
   this slot (every older request terminated, no direct execution in
   flight), so the committed state the read set is validated against is
   exactly the slot-serial prefix — the verdict, and on failure the direct
   re-execution, are functions of the total order alone. *)
let do_ws_commit t tid =
  let th = thread t tid in
  let w = th.ws in
  match th.state with
  | State.Commit_pending when w != Workspace.none -> (
    if observing t then rec_wait_end t th;
    match Workspace.conflicts w with
    | [] ->
      t.ws_commits <- t.ws_commits + 1;
      Trace.ws_commit t.trace_rec ~time:(now t) ~tid
        ~writes:(Workspace.write_set_size w);
      if observing t then begin
        Recorder.incr t.obs "replica.ws.commits";
        Recorder.observe t.obs "replica.ws.write_set"
          (float_of_int (Workspace.write_set_size w));
        Recorder.observe t.obs "replica.ws.read_set"
          (float_of_int (Workspace.read_set_size w))
      end;
      Workspace.commit w;
      (* Replay the virtual acquisitions into the per-mutex order hashes —
         commits happen in slot order, so the projection matches SEQ's. *)
      for i = 0 to Workspace.acquisitions w - 1 do
        record_acquisition t
          ~slot:(Slot_map.intern t.mslots (Workspace.acquisition w i))
          ~th
      done;
      discard_ws t th;
      th.state <- State.Running;
      after_cost_finish t
        (if th.req.Request.dummy then 0.0 else t.config.reply_build_ms)
        th;
      true
    | conflicts ->
      (* Stale reads: a lower slot committed first — lowest-slot-wins. *)
      t.ws_aborts <- t.ws_aborts + 1;
      record t (Trace.Ws_abort { tid; conflicts = List.length conflicts });
      if observing t then Recorder.incr t.obs "replica.ws.aborts_stale";
      discard_ws t th;
      th.cursor <- Interp.idle;
      th.state <- State.Created;
      false)
  | _ ->
    invalid_arg
      (Printf.sprintf "Replica %d: ws_commit for t%d not commit-pending" t.id
         tid)

(* Release a thread stopped at a scheduler gate; which gate is the
   thread's own status. *)
let do_proceed t tid =
  let th = thread t tid in
  let mutex = th.gate_mutex in
  match th.state with
  | State.Lock_blocked ->
    let syncid = th.gate_arg and slot = Slot_map.intern t.mslots mutex in
    Mutex_table.acquire t.mutexes ~slot ~tid;
    Trace.lock_granted t.trace_rec ~time:(now t) ~tid ~syncid ~mutex;
    if observing t then rec_wait_end t th;
    record_acquisition t ~slot ~th;
    (sched t).on_acquired tid ~syncid ~mutex;
    after_cost_advance t t.config.lock_overhead_ms th
  | Reacquire_blocked ->
    let slot = Slot_map.intern t.mslots mutex in
    Mutex_table.restore t.mutexes ~slot ~tid ~count:th.gate_arg;
    Trace.wait_end t.trace_rec ~time:(now t) ~tid ~mutex;
    if observing t then rec_wait_end t th;
    record_acquisition t ~slot ~th;
    (sched t).on_reacquired tid ~mutex;
    after_cost_advance t t.config.lock_overhead_ms th
  | Nested_ready ->
    if observing t then rec_wait_end t th;
    advance t th
  | _ ->
    invalid_arg
      (Printf.sprintf "Replica %d: proceed for t%d at no gate" t.id tid)

(* ------------------------------------------------------------------ *)

let create ~engine ~id ~cls ~config ?(obs = Recorder.disabled) ~callbacks ~make_sched () =
  Config.validate config;
  let obj = Object_state.create cls and mslots = Slot_map.create () in
  let t =
    { id; engine; cpu = Cpu.create engine ~cores:config.Config.cores; config;
      program = Interp.program cls; obj;
      ws_pool = Workspace.Pool.create ~base:obj; mslots;
      mutexes = Mutex_table.create mslots;
      condvars = Condvar.create mslots;
      trace_rec = Trace.create ~keep_events:config.Config.trace_events ();
      threads = Array.make 16 vacant; last_uid = min_int; sched = None; obs;
      callbacks; live = true; completed = 0; active = 0; ws_commits = 0; ws_aborts = 0;
      acquisitions = Acquisition_order.create mslots; on_quiescent = None;
      advance_h = 0; finish_h = 0; pool_busy = 0 }
  in
  t.advance_h <- Engine.register_handler engine (fun tid -> advance t (thread t tid));
  t.finish_h <- Engine.register_handler engine (fun tid -> finish t (thread t tid));
  let actions =
    { Sched_iface.replica_id = id;
      start_thread = (fun tid -> do_start_thread t tid);
      proceed = (fun tid -> do_proceed t tid);
      ws_begin =
        (fun ~tid ~record_acquisitions ->
          do_ws_begin t ~tid ~record_acquisitions);
      ws_commit = (fun ~tid -> do_ws_commit t tid);
      mutex_slots = mslots;
      mutex_owner =
        (fun mutex ->
          Mutex_table.owner t.mutexes ~slot:(Slot_map.find mslots mutex));
      mutex_free_for =
        (fun ~tid ~mutex ->
          Mutex_table.is_free_for t.mutexes
            ~slot:(Slot_map.find mslots mutex) ~tid);
      holds_any_mutex = (fun tid -> Mutex_table.holds_any t.mutexes ~tid);
      request_method = (fun tid -> (thread t tid).req.Request.meth);
      request_mutex_arg =
        (fun ~tid i ->
          let args = (thread t tid).req.Request.args in
          if i >= 0 && i < Array.length args then
            match args.(i) with Detmt_lang.Ast.Vmutex m -> m | _ -> -1
          else -1);
      self_mutex = (fun () -> Object_state.self_mutex t.obj);
      pool_dispatch =
        (fun ~worker ~tid:_ ->
          if observing t then begin
            t.pool_busy <- t.pool_busy + 1;
            Recorder.incr t.obs "replica.pool.dispatches";
            Recorder.observe t.obs "replica.pool.busy"
              (float_of_int t.pool_busy);
            Recorder.observe t.obs
              (Printf.sprintf "replica.pool.worker%d" worker)
              1.0
          end);
      pool_complete =
        (fun ~worker ~tid:_ ->
          if observing t then begin
            t.pool_busy <- max 0 (t.pool_busy - 1);
            Recorder.observe t.obs "replica.pool.busy"
              (float_of_int t.pool_busy);
            Recorder.observe t.obs
              (Printf.sprintf "replica.pool.worker%d" worker)
              0.0
          end);
      broadcast_control = (fun c -> callbacks.broadcast_control c);
      inject_dummy = (fun () -> callbacks.inject_dummy ());
      schedule = (fun ~delay f -> Engine.schedule engine ~delay f);
      now = (fun () -> Engine.now engine);
      is_leader = (fun () -> callbacks.is_leader ());
      obs }
  in
  let sched = make_sched actions in
  (* With a profiler attached, wrap the decision module so every callback
     is counted and timed under its registry name (observation-only). *)
  let sched =
    match Recorder.profiler obs with
    | Some p -> Sched_iface.profiled p sched
    | None -> sched
  in
  t.sched <- Some sched;
  t

let id t = t.id

let deliver_request t req =
  if t.live then begin
    let tid = req.Request.uid in
    if tid <= t.last_uid then
      invalid_arg
        (Printf.sprintf "Replica %d: request %d delivered after %d" t.id tid
           t.last_uid);
    t.last_uid <- tid;
    place t
      { tid; req; cursor = Interp.idle; state = State.Created; gate_mutex = -1;
        gate_arg = 0; nested_count = 0; buffered_replies = [];
        ws = Workspace.none };
    t.active <- t.active + 1;
    if observing t then begin
      Recorder.request_delivered t.obs ~replica:t.id ~uid:tid
        ~meth:req.Request.meth ~client:req.Request.client
        ~client_req:req.Request.client_req ~sent_at:req.Request.sent_at
        ~at:(Engine.now t.engine);
      Recorder.incr t.obs "replica.requests_delivered"
    end;
    (sched t).on_request tid
  end

let nested_reply t ~tid ~call_index =
  if t.live then
    match live_thread t tid with
    | { state = State.Nested_blocked; gate_arg = pending; _ } as th
      when pending = call_index ->
      th.state <- State.Nested_ready;
      if observing t then begin
        rec_wait_end t th;
        rec_wait_begin t th Recorder.Resume_hold
      end;
      Trace.nested_end t.trace_rec ~time:(now t) ~tid ~service:0;
      (sched t).on_nested_reply tid
    | th when th != vacant ->
      th.buffered_replies <- call_index :: th.buffered_replies
    | _ when tid <= t.last_uid ->
      () (* a late reply for a finished thread: nothing waits for it *)
    | _ -> invalid_arg (Printf.sprintf "Replica %d: unknown thread %d" t.id tid)

let deliver_control t ~sender control =
  if t.live then begin
    (match control with
    | Sched_iface.Lsa_grant { grant_seq; mutex; tid } ->
      Trace.control_delivered t.trace_rec ~time:(now t) ~sender ~grant_seq
        ~mutex ~tid
    | Sched_iface.View_change -> record t (Trace.View_change { sender }));
    (sched t).on_control ~sender control
  end

let set_alive t b = t.live <- b

let alive t = t.live

let state_fingerprint t = Object_state.fingerprint t.obj

let state_snapshot t = Object_state.state_snapshot t.obj

let trace t = t.trace_rec

let object_state t = t.obj

let completed_requests t = t.completed

let active_threads t = t.active

let thread_status t tid =
  match live_thread t tid with
  | th when th != vacant -> Some (status th)
  | _ when tid <= t.last_uid -> Some Terminated
  | _ -> None

let threads_overview t =
  Array.fold_left
    (fun acc th -> if th == vacant then acc else (th.tid, status th) :: acc)
    [] t.threads
  |> List.sort compare

let lock_holders t = Mutex_table.holders t.mutexes

let set_quiescent_hook t hook = t.on_quiescent <- Some hook

let sched_snapshot t = (sched t).snapshot ()

let sched_restore t kv = (sched t).restore kv

let cpu_busy_ms t = Cpu.busy_time t.cpu

let ws_commits t = t.ws_commits

let ws_aborts t = t.ws_aborts

let mutex_acquisition_fingerprint t =
  Acquisition_order.fingerprint t.acquisitions

module Testing = struct
  let workspace t tid = (thread t tid).ws
end
