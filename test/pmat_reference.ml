(* The scan-based pMAT decision module, kept as a test-only reference.

   This is the pre-incremental implementation of {!Detmt_sched.Pmat}: every
   callback rescans the admission queue from the head, asking the
   bookkeeping module about every (thread, predecessor) pair, and restarts
   after each grant.  It is cubic in the queue length but states the
   section 4.3 rule directly, which makes it the oracle for the incremental
   gate/claim-set implementation: [test_properties.ml] drives both through
   [Replica.create ~make_sched] and requires identical grant sequences,
   replies, states and per-mutex acquisition orders. *)

open Detmt_runtime
open Detmt_sched
module Audit = Detmt_obs.Audit

type t = { sub : Substrate.t }

let predicted t tid = Substrate.predicted t.sub ~tid

let may_conflict t tid ~mutex = Substrate.future_may_lock t.sub ~tid ~mutex

(* Is the pending request of [th] grantable given all queue predecessors? *)
let eligible t ~preceding (th : Substrate.thread) =
  match th.pending with
  | None | Some Substrate.Resume -> false
  | Some (Substrate.Lock mutex | Substrate.Reacquire mutex) ->
    (Substrate.actions t.sub).mutex_free_for ~tid:th.tid ~mutex
    && List.for_all
         (fun (u : Substrate.thread) ->
           predicted t u.tid && not (may_conflict t u.tid ~mutex))
         preceding

let grant t ~preceding (th : Substrate.thread) =
  (if Substrate.observing t.sub then
     let action, mutex =
       match th.pending with
       | Some (Substrate.Lock mutex) -> (Audit.Grant_lock, mutex)
       | Some (Substrate.Reacquire mutex) -> (Audit.Grant_reacquire, mutex)
       | Some Substrate.Resume | None -> assert false
     in
     Substrate.incr t.sub "grants";
     Substrate.audit t.sub ~tid:th.tid ~action ~mutex
       ~rule:Audit.Predicted_no_conflict
       ~candidates:(List.map (fun (u : Substrate.thread) -> u.tid) preceding)
       ());
  Substrate.perform t.sub th

(* Scan the queue in order and grant every request that has become
   grantable; granting can cascade (the resumed thread may unlock, announce,
   terminate, ...), so restart until a fixpoint. *)
let rec rescan t =
  let rec scan preceding = function
    | [] -> false
    | th :: rest ->
      if eligible t ~preceding th then begin
        grant t ~preceding th;
        true
      end
      else scan (preceding @ [ th ]) rest
  in
  if scan [] (Substrate.threads t.sub) then rescan t

let on_request t tid =
  ignore (Substrate.admit t.sub ~tid);
  (Substrate.actions t.sub).start_thread tid

let on_lock t tid ~syncid:_ ~mutex =
  (Substrate.thread t.sub tid).pending <- Some (Substrate.Lock mutex);
  rescan t;
  (* If the request is still pending, explain why it was deferred: either
     the mutex is genuinely held, or an unpredicted / conflicting queue
     predecessor gates it (the crossover cost the paper's section 4.3
     analyses). *)
  if Substrate.observing t.sub then
    match Substrate.find_thread t.sub tid with
    | Some th when th.pending <> None ->
      Substrate.incr t.sub "deferrals";
      Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
        ~rule:
          (if not ((Substrate.actions t.sub).mutex_free_for ~tid ~mutex) then
             Audit.Mutex_held
           else Audit.Predecessor_unpredicted)
        ~candidates:
          (List.filter_map
             (fun (u : Substrate.thread) ->
               if u.tid <> tid && not (predicted t u.tid) then Some u.tid
               else None)
             (Substrate.threads t.sub))
        ()
    | _ -> ()

let on_unlock t _tid ~syncid:_ ~mutex:_ ~freed = if freed then rescan t

let on_wait t tid ~mutex:_ =
  (* Leave the queue (the bookkeeping table survives); the monitor was
     released by the wait. *)
  Substrate.remove t.sub ~tid;
  rescan t

let on_wakeup t tid ~mutex =
  (* Re-enter at the tail, pending the monitor re-acquisition.  The position
     is deterministic: notifications are ordered by the deterministic
     execution. *)
  (Substrate.enqueue t.sub ~tid).pending <- Some (Substrate.Reacquire mutex);
  rescan t

let on_nested_reply t tid =
  (* The thread kept its queue position; it resumes freely (only lock
     acquisitions are gated). *)
  (Substrate.actions t.sub).resume_nested tid

let on_terminate t tid =
  Substrate.retire t.sub ~tid;
  rescan t

let policy sub : Sched_iface.sched =
  let t = { sub } in
  let base =
    Sched_iface.no_op_sched ~name:(Substrate.name sub)
      ~on_request:(on_request t) ~on_lock:(on_lock t) ~on_wakeup:(on_wakeup t)
      ~on_nested_reply:(on_nested_reply t)
  in
  { base with
    on_unlock =
      (fun tid ~syncid ~mutex ~freed -> on_unlock t tid ~syncid ~mutex ~freed);
    on_wait = (fun tid ~mutex -> on_wait t tid ~mutex);
    on_terminate = on_terminate t;
    on_acquired =
      (fun tid ~syncid ~mutex ->
        Substrate.bk_acquired sub ~tid ~syncid ~mutex;
        rescan t);
    on_lockinfo =
      (fun tid ~syncid ~mutex ->
        Substrate.bk_lockinfo sub ~tid ~syncid ~mutex;
        rescan t);
    on_ignore =
      (fun tid ~syncid ->
        Substrate.bk_ignore sub ~tid ~syncid;
        rescan t);
    on_loop_enter = (fun tid ~loopid -> Substrate.bk_loop_enter sub ~tid ~loopid);
    on_loop_exit =
      (fun tid ~loopid ->
        Substrate.bk_loop_exit sub ~tid ~loopid;
        rescan t) }

module Base : Decision.Serial = struct
  let name = "pmat"

  let needs_prediction = true

  let policy = policy
end
