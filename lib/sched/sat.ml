(* SAT — single active thread (Jiménez-Peris et al. [6], Zhao et al. [13],
   FTflex variant [3]) — and pSAT, its prediction-aware refinement.

   Not concurrency: a new thread may start or resume only when the previously
   active thread suspends (wait, nested invocation, or a lock held by a
   suspended thread) or terminates.  Threads whose suspension reason has
   resolved are inserted into one FIFO queue; the queue head is activated at
   the next suspension point.  Uses the idle time of nested invocations,
   supports condition variables, but never keeps more than one CPU busy.

   pSAT applies the last-lock idea (Figure 2) to the token itself: when the
   bookkeeping module knows the active thread has passed its last lock
   acquisition and holds no mutex, the activation token is released early and
   the next queued thread starts while the lock-free tail of the previous one
   still runs.  Lock-free threads also resume nested replies without queueing
   for the token.  Such a thread can no longer interact with any mutex, so
   the per-mutex acquisition orders — the deterministic outcome SAT pays for
   — are unchanged; only idle CPU time is reclaimed. *)

open Detmt_runtime
module Audit = Detmt_obs.Audit

type t = {
  sub : Substrate.t;
  mutable queue : Substrate.thread Fqueue.t;
      (* FIFO: head activates first — by its gate, an [Open] thread starts,
         a held one is granted or resumed *)
  reacquires : Waitq.t; (* blocked monitor re-acquisitions, per mutex *)
  mutable active : int option;
}

(* Blocked first acquisitions live in the substrate's per-mutex wait
   queues; blocked re-acquisitions in [t.reacquires].  Both preserve block
   order per mutex. *)

let enqueue t th =
  t.queue <- Fqueue.push t.queue th;
  if Substrate.observing t.sub then
    Substrate.observe t.sub "queue_depth" (float_of_int (Fqueue.length t.queue))

(* pSAT: the active thread is past its last lock acquisition and holds
   nothing — it can never again influence a mutex acquisition order. *)
let lock_free t tid =
  Substrate.bookkeeping t.sub <> None
  && Substrate.no_future_locks t.sub ~tid
  && not ((Substrate.actions t.sub).holds_any_mutex tid)

let rec activate_next t =
  match Fqueue.pop t.queue with
  | None -> t.active <- None
  | Some ((th : Substrate.thread), rest) -> (
    t.queue <- rest;
    let actions = Substrate.actions t.sub in
    let tid = th.tid and mutex = th.gate_mutex in
    let fifo_audit ~action ?mutex () =
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "activations";
        Substrate.audit t.sub ~tid ~action ?mutex ~rule:Audit.Fifo_head
          ~candidates:
            (List.map
               (fun (u : Substrate.thread) -> u.tid)
               (Fqueue.to_list rest))
          ()
      end
    in
    match th.gate with
    | Open ->
      t.active <- Some tid;
      fifo_audit ~action:Audit.Start_thread ();
      actions.start_thread tid;
      release_token_if_lock_free t tid
    | Lock | Reacquire ->
      if actions.mutex_free_for ~tid ~mutex then begin
        t.active <- Some tid;
        fifo_audit ~action:(Substrate.grant_action th) ~mutex ();
        Substrate.perform t.sub th
      end
      else begin
        (* The mutex was re-taken since this thread was queued: block again
           until the next release. *)
        if Substrate.observing t.sub then begin
          Substrate.incr t.sub "deferrals";
          Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
            ~rule:Audit.Mutex_held ()
        end;
        Waitq.push
          (if th.gate = Lock then Substrate.waitq t.sub else t.reacquires)
          ~mutex tid;
        activate_next t
      end
    | Resume ->
      t.active <- Some tid;
      fifo_audit ~action:Audit.Resume_nested ();
      Substrate.perform t.sub th;
      release_token_if_lock_free t tid)

(* pSAT early handoff: the activation token is freed while the lock-free
   tail of [tid] keeps running. *)
and release_token_if_lock_free t tid =
  if t.active = Some tid && lock_free t tid then begin
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "token_releases";
      Substrate.audit t.sub ~tid ~action:Audit.Handoff
        ~rule:Audit.Last_lock_handoff ()
    end;
    t.active <- None;
    activate_next t
  end

let suspend_active t tid =
  if t.active = Some tid then begin
    t.active <- None;
    activate_next t
  end

let on_request t tid =
  enqueue t (Substrate.admit t.sub ~tid);
  if t.active = None then activate_next t

let on_lock t tid ~syncid:_ ~mutex =
  let actions = Substrate.actions t.sub in
  let th = Substrate.thread t.sub tid in
  Substrate.hold th Lock ~mutex;
  if actions.mutex_free_for ~tid ~mutex then begin
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "grants";
      Substrate.audit t.sub ~tid ~action:Audit.Grant_lock ~mutex
        ~rule:Audit.Mutex_free ()
    end;
    Substrate.perform t.sub th
  end
  else begin
    (* The holder must be a suspended thread; block until it releases. *)
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "deferrals";
      Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
        ~rule:Audit.Mutex_held
        ~candidates:(Option.to_list (actions.mutex_owner mutex))
        ()
    end;
    Waitq.push (Substrate.waitq t.sub) ~mutex tid;
    suspend_active t tid
  end

(* The suspension reason of threads blocked on [mutex] has resolved: insert
   them into the queue, preserving block order (first acquisitions, then
   re-acquisitions, as the original release order interleaved them per
   queue). *)
let release_blocked t ~mutex =
  let rec drain q =
    match Waitq.pop q ~mutex with
    | None -> ()
    | Some tid ->
      enqueue t (Substrate.thread t.sub tid);
      drain q
  in
  drain (Substrate.waitq t.sub);
  drain t.reacquires

let on_unlock t tid ~syncid:_ ~mutex ~freed =
  if freed then begin
    release_blocked t ~mutex;
    release_token_if_lock_free t tid;
    if t.active = None then activate_next t
  end

let on_wait t tid ~mutex =
  (* The wait released the mutex: blocked threads become resumable.  No
     token-release check here — the waiter suspends anyway. *)
  release_blocked t ~mutex;
  suspend_active t tid

let on_wakeup t tid ~mutex =
  let th = Substrate.thread t.sub tid in
  Substrate.hold th Reacquire ~mutex;
  enqueue t th;
  if t.active = None then activate_next t

let on_nested_begin t tid = suspend_active t tid

let on_nested_reply t tid =
  let th = Substrate.thread t.sub tid in
  if lock_free t tid then begin
    (* pSAT: a lock-free thread resumes without queueing for the token. *)
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "free_resumes";
      Substrate.audit t.sub ~tid ~action:Audit.Resume_nested
        ~rule:Audit.Last_lock_handoff ()
    end;
    Substrate.perform t.sub th
  end
  else begin
    Substrate.hold th Resume ~mutex:(-1);
    enqueue t th;
    if t.active = None then activate_next t
  end

let on_terminate t tid =
  Substrate.retire t.sub ~tid;
  suspend_active t tid

let policy sub : Sched_iface.sched =
  let t =
    { sub; queue = Fqueue.empty;
      reacquires = Waitq.create (Substrate.actions sub).mutex_slots;
      active = None }
  in
  let base =
    Sched_iface.no_op_sched ~name:(Substrate.name sub)
      ~on_request:(on_request t) ~on_lock:(on_lock t) ~on_wakeup:(on_wakeup t)
      ~on_nested_reply:(on_nested_reply t)
  in
  { base with
    on_unlock =
      (fun tid ~syncid ~mutex ~freed -> on_unlock t tid ~syncid ~mutex ~freed);
    on_wait = (fun tid ~mutex -> on_wait t tid ~mutex);
    on_nested_begin = on_nested_begin t;
    on_terminate = on_terminate t;
    on_acquired =
      (fun tid ~syncid ~mutex -> Substrate.bk_acquired sub ~tid ~syncid ~mutex);
    on_lockinfo =
      (fun tid ~syncid ~mutex ->
        Substrate.bk_lockinfo sub ~tid ~syncid ~mutex;
        release_token_if_lock_free t tid);
    on_ignore =
      (fun tid ~syncid ->
        Substrate.bk_ignore sub ~tid ~syncid;
        release_token_if_lock_free t tid);
    on_loop_enter = (fun tid ~loopid -> Substrate.bk_loop_enter sub ~tid ~loopid);
    on_loop_exit =
      (fun tid ~loopid ->
        Substrate.bk_loop_exit sub ~tid ~loopid;
        release_token_if_lock_free t tid) }
