(* The replica <-> scheduler contract.

   The replica engine intercepts every synchronisation-relevant operation and
   reports it to the scheduler (a "decision module", section 4.3) through the
   [sched] callbacks; the scheduler answers asynchronously through [actions].
   A scheduler must eventually release every blocked operation it was told
   about, choosing the moment (and hence the deterministic order).

   Contract, per operation:
   - [on_request tid]: a new thread was delivered in total order.  The
     scheduler starts it (now or later) with [actions.start_thread].
   - [on_lock tid ~syncid ~mutex], [on_wakeup tid ~mutex] and
     [on_nested_reply tid]: the thread stopped at a gate — blocked wanting
     [mutex], notified and needing to re-acquire the monitor, or holding the
     nested-invocation reply.  Release it with [actions.proceed tid]; the
     replica performs whichever of the three its own thread status names
     ([Lock_blocked], [Reacquire_blocked], [Nested_ready]) and raises
     [Invalid_argument] for a thread in any other status.  An acquisition
     is released only when the mutex is free for the thread
     ([actions.mutex_free_for]), otherwise the replica raises.  Re-entrant
     acquisitions are short-circuited by the replica and surface only as
     [on_acquired].

   Purely informational callbacks: [on_acquired], [on_unlock], [on_wait],
   [on_terminate], and the bookkeeping stream [on_lockinfo] / [on_ignore] /
   [on_loop_enter] / [on_loop_exit]. *)

(* Workspace (speculative-execution) events a replica reports to the
   scheduler for a thread it started under [ws_begin]:
   - [Ws_ready]: the speculation ran to completion and holds its result in a
     private workspace; the worker is free, the thread waits in
     [Commit_pending] until the scheduler calls [ws_commit] at the thread's
     slot-order barrier.
   - [Ws_unsafe]: the speculation hit an operation that cannot be virtualised
     (condvar wait/notify, nested invocation); the replica has already
     discarded the workspace and reset the thread to [Created] — the
     scheduler must re-run it directly (in slot order) via [start_thread]. *)
type ws_event = Ws_ready | Ws_unsafe

type control =
  | Lsa_grant of { grant_seq : int; mutex : int; tid : int }
      (* the LSA leader's lock-acquisition decision, enforced by followers *)
  | View_change
      (* membership changed; a promoted LSA leader drains the dead leader's
         published decisions before scheduling greedily *)

type actions = {
  replica_id : int;
  start_thread : int -> unit;
  proceed : int -> unit;
      (* release a thread stopped at a lock, re-acquisition or nested-reply
         gate (see the contract above) *)
  mutex_slots : Detmt_sim.Slot_map.t;
      (* the replica's mutex slots: a decision module keys its per-mutex
         tables on them too, so the replica and its scheduler intern a
         mutex into one map *)
  mutex_owner : int -> int option;
  mutex_free_for : tid:int -> mutex:int -> bool;
  holds_any_mutex : int -> bool;
  request_method : int -> string;
      (* start method of a delivered request, for bookkeeping registration *)
  request_mutex_arg : tid:int -> int -> int;
      (* the mutex that argument [i] of a delivered request names, for
         conflict-class resolution of [Sp_arg] sync parameters at delivery
         time; [-1] when the argument is out of range or not a mutex *)
  self_mutex : unit -> int;
      (* the replica object's monitor, resolving [Sp_this] sync parameters *)
  pool_dispatch : worker:int -> tid:int -> unit;
      (* a parallel scheduler handed the thread to a pool worker
         (observation only: per-worker occupancy series for the profiler) *)
  pool_complete : worker:int -> tid:int -> unit;
      (* the pool worker finished (or parked) the thread it was running *)
  ws_begin : tid:int -> record_acquisitions:bool -> unit;
      (* attach a fresh copy-on-write workspace to a [Created] thread; the
         next [start_thread] runs it speculatively (virtual locks, private
         reads/writes, no committed-state side effects) *)
  ws_commit : tid:int -> bool;
      (* commit barrier for a [Commit_pending] thread: validate the
         workspace's read set against the committed state.  [true] — merged;
         the thread proceeds to build its reply and terminate normally.
         [false] — stale; the workspace is discarded and the thread is reset
         to [Created] for direct re-execution (lowest-slot-wins).  Only call
         at the thread's slot-order barrier: every older request terminated
         and no direct execution in flight. *)
  broadcast_control : control -> unit;
      (* routed via the total-order broadcast to every replica's scheduler *)
  inject_dummy : unit -> unit; (* PDS: ask for a filler request *)
  schedule : delay:float -> (unit -> unit) -> unit; (* local timers *)
  now : unit -> float;
  is_leader : unit -> bool;
  obs : Detmt_obs.Recorder.t;
      (* flight recorder; [Recorder.disabled] unless observability is on.
         Schedulers must guard calls with [Recorder.enabled] so a disabled
         recorder costs nothing. *)
}

type sched = {
  name : string;
  on_request : int -> unit;
  on_lock : int -> syncid:int -> mutex:int -> unit;
  on_acquired : int -> syncid:int -> mutex:int -> unit;
  on_unlock : int -> syncid:int -> mutex:int -> freed:bool -> unit;
  on_wait : int -> mutex:int -> unit;
  on_wakeup : int -> mutex:int -> unit;
  on_reacquired : int -> mutex:int -> unit;
  on_nested_begin : int -> unit;
  on_nested_reply : int -> unit;
  on_terminate : int -> unit;
  on_lockinfo : int -> syncid:int -> mutex:int -> unit;
  on_ignore : int -> syncid:int -> unit;
  on_loop_enter : int -> loopid:int -> unit;
  on_loop_exit : int -> loopid:int -> unit;
  on_control : sender:int -> control -> unit;
  on_ws_event : int -> ws_event -> unit;
      (* speculative-execution lifecycle for threads started under
         [ws_begin]; never fires for directly executed threads *)
  snapshot : unit -> (string * int) list;
      (* scheduler bookkeeping that outlives quiescence (counters that must
         match across replicas), shipped in a state-transfer snapshot *)
  restore : (string * int) list -> unit;
      (* install a donor's [snapshot] into a freshly built scheduler *)
}

(* A scheduler skeleton whose informational callbacks do nothing — decision
   modules override what they need. *)
let no_op_sched ~name ~on_request ~on_lock ~on_wakeup ~on_nested_reply =
  { name; on_request; on_lock; on_wakeup; on_nested_reply;
    on_acquired = (fun _ ~syncid:_ ~mutex:_ -> ());
    on_unlock = (fun _ ~syncid:_ ~mutex:_ ~freed:_ -> ());
    on_wait = (fun _ ~mutex:_ -> ());
    on_reacquired = (fun _ ~mutex:_ -> ());
    on_nested_begin = (fun _ -> ());
    on_terminate = (fun _ -> ());
    on_lockinfo = (fun _ ~syncid:_ ~mutex:_ -> ());
    on_ignore = (fun _ ~syncid:_ -> ());
    on_loop_enter = (fun _ ~loopid:_ -> ());
    on_loop_exit = (fun _ ~loopid:_ -> ());
    on_control = (fun ~sender:_ _ -> ());
    on_ws_event = (fun _ _ -> ());
    (* Most decision modules keep no state across quiescence; the ones that
       do (LSA's grant counter, PDS's phantom slots) override these. *)
    snapshot = (fun () -> []);
    restore = (fun _ -> ()) }

(* Decision-cost instrumentation: wrap every scheduler callback so the
   profiler counts and wall-clock-times it, attributed to the decision
   module's registry name.  Applied by [Replica.create] only when a
   profiler is attached, so unprofiled runs pay nothing.  The wrapper is
   observation-only — it calls straight through, and re-entrant callbacks
   (a grant cascading into [on_acquired]) time the outermost frame only
   (handled inside [Profile]). *)
let profiled p (s : sched) : sched =
  let h = Detmt_obs.Profile.decision_handle p s.name in
  (* Callbacks run ~100k+ times per run; each wrapper calls straight
     through (no closure built per call) so the tap stays cheap enough to
     hold the documented <5% overhead bound. *)
  let b () = Detmt_obs.Profile.handle_begin h
  and e () = Detmt_obs.Profile.handle_end h in
  { s with
    on_request = (fun tid -> b (); s.on_request tid; e ());
    on_lock =
      (fun tid ~syncid ~mutex -> b (); s.on_lock tid ~syncid ~mutex; e ());
    on_acquired =
      (fun tid ~syncid ~mutex ->
        b (); s.on_acquired tid ~syncid ~mutex; e ());
    on_unlock =
      (fun tid ~syncid ~mutex ~freed ->
        b (); s.on_unlock tid ~syncid ~mutex ~freed; e ());
    on_wait = (fun tid ~mutex -> b (); s.on_wait tid ~mutex; e ());
    on_wakeup = (fun tid ~mutex -> b (); s.on_wakeup tid ~mutex; e ());
    on_reacquired =
      (fun tid ~mutex -> b (); s.on_reacquired tid ~mutex; e ());
    on_nested_begin = (fun tid -> b (); s.on_nested_begin tid; e ());
    on_nested_reply = (fun tid -> b (); s.on_nested_reply tid; e ());
    on_terminate = (fun tid -> b (); s.on_terminate tid; e ());
    on_lockinfo =
      (fun tid ~syncid ~mutex ->
        b (); s.on_lockinfo tid ~syncid ~mutex; e ());
    on_ignore = (fun tid ~syncid -> b (); s.on_ignore tid ~syncid; e ());
    on_loop_enter =
      (fun tid ~loopid -> b (); s.on_loop_enter tid ~loopid; e ());
    on_loop_exit =
      (fun tid ~loopid -> b (); s.on_loop_exit tid ~loopid; e ());
    on_control = (fun ~sender c -> b (); s.on_control ~sender c; e ());
    on_ws_event = (fun tid ev -> b (); s.on_ws_event tid ev; e ()) }
