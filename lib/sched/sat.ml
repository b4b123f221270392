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

type item =
  | Start of int
  | Grant of int * int (* tid, mutex *)
  | Reacquire of int * int
  | Resume of int

type t = {
  sub : Substrate.t;
  mutable queue : item Fqueue.t; (* FIFO: head activates first *)
  reacquires : Waitq.t; (* blocked monitor re-acquisitions, per mutex *)
  mutable active : int option;
}

(* Blocked first acquisitions live in the substrate's per-mutex wait
   queues; blocked re-acquisitions in [t.reacquires].  Both preserve block
   order per mutex. *)

let item_tid = function
  | Start tid | Grant (tid, _) | Reacquire (tid, _) | Resume tid -> tid

let enqueue t item =
  t.queue <- Fqueue.push t.queue item;
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
  | Some (item, rest) -> (
    t.queue <- rest;
    let actions = Substrate.actions t.sub in
    let fifo_audit ~tid ~action ?mutex () =
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "activations";
        Substrate.audit t.sub ~tid ~action ?mutex ~rule:Audit.Fifo_head
          ~candidates:(List.map item_tid (Fqueue.to_list rest))
          ()
      end
    in
    match item with
    | Start tid ->
      t.active <- Some tid;
      fifo_audit ~tid ~action:Audit.Start_thread ();
      actions.start_thread tid;
      release_token_if_lock_free t tid
    | Grant (tid, mutex) ->
      if actions.mutex_free_for ~tid ~mutex then begin
        t.active <- Some tid;
        fifo_audit ~tid ~action:Audit.Grant_lock ~mutex ();
        actions.grant_lock tid
      end
      else begin
        (* The mutex was re-taken since this thread was queued: block again
           until the next release. *)
        if Substrate.observing t.sub then begin
          Substrate.incr t.sub "deferrals";
          Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
            ~rule:Audit.Mutex_held ()
        end;
        Waitq.push (Substrate.waitq t.sub) ~mutex tid;
        activate_next t
      end
    | Reacquire (tid, mutex) ->
      if actions.mutex_free_for ~tid ~mutex then begin
        t.active <- Some tid;
        fifo_audit ~tid ~action:Audit.Grant_reacquire ~mutex ();
        actions.grant_reacquire tid
      end
      else begin
        if Substrate.observing t.sub then begin
          Substrate.incr t.sub "deferrals";
          Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
            ~rule:Audit.Mutex_held ()
        end;
        Waitq.push t.reacquires ~mutex tid;
        activate_next t
      end
    | Resume tid ->
      t.active <- Some tid;
      fifo_audit ~tid ~action:Audit.Resume_nested ();
      actions.resume_nested tid;
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
  ignore (Substrate.admit t.sub ~tid);
  enqueue t (Start tid);
  if t.active = None then activate_next t

let on_lock t tid ~syncid:_ ~mutex =
  let actions = Substrate.actions t.sub in
  if actions.mutex_free_for ~tid ~mutex then begin
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "grants";
      Substrate.audit t.sub ~tid ~action:Audit.Grant_lock ~mutex
        ~rule:Audit.Mutex_free ()
    end;
    actions.grant_lock tid
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
  let rec drain q wrap =
    match Waitq.pop q ~mutex with
    | None -> ()
    | Some tid ->
      enqueue t (wrap tid);
      drain q wrap
  in
  drain (Substrate.waitq t.sub) (fun tid -> Grant (tid, mutex));
  drain t.reacquires (fun tid -> Reacquire (tid, mutex))

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
  enqueue t (Reacquire (tid, mutex));
  if t.active = None then activate_next t

let on_nested_begin t tid = suspend_active t tid

let on_nested_reply t tid =
  if lock_free t tid then begin
    (* pSAT: a lock-free thread resumes without queueing for the token. *)
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "free_resumes";
      Substrate.audit t.sub ~tid ~action:Audit.Resume_nested
        ~rule:Audit.Last_lock_handoff ()
    end;
    (Substrate.actions t.sub).resume_nested tid
  end
  else begin
    enqueue t (Resume tid);
    if t.active = None then activate_next t
  end

let on_terminate t tid =
  Substrate.retire t.sub ~tid;
  suspend_active t tid

let policy sub : Sched_iface.sched =
  let t =
    { sub; queue = Fqueue.empty; reacquires = Waitq.create (); active = None }
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

module Base : Decision.Serial = struct
  let name = "sat"

  let needs_prediction = false

  let policy = policy
end

module Predicted : Decision.Serial = struct
  let name = "psat"

  let needs_prediction = true

  let policy = policy
end
