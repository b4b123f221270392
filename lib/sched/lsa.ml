(* LSA — loose synchronisation algorithm (Basile et al. [2]).

   Leader/follower scheme, the only algorithm needing frequent inter-replica
   communication.  The leader schedules without restrictions (greedy, fully
   concurrent) and broadcasts every lock-acquisition decision; followers
   enforce the leader's per-mutex grant order.  The client only waits for the
   leader's reply, which is why LSA scales best in Figure 1 — at the price of
   broadcast load (bad on WANs) and a take-over delay when the leader fails.

   Condition variables (added in the FTflex variant): a monitor
   re-acquisition after notify is just another acquisition decision, so the
   same grant messages cover it.

   Decision-module state: the grant counter, the follower's enforced order
   and its local-request index, and the promotion drain flag.  The leader's
   per-mutex wait queues and the pending-operation records live in the
   substrate. *)

open Detmt_runtime
module Audit = Detmt_obs.Audit

type t = {
  sub : Substrate.t;
  (* --- leader state (waiting threads queue in the substrate waitq) --- *)
  mutable grant_seq : int;
  (* --- follower state --- *)
  enforced : Waitq.t; (* per mutex: leader-ordered tids *)
  requested : int Candidate_index.t; (* tid -> mutex it locally requested *)
  mutable draining : bool;
      (* a promoted leader first drains already-received decisions *)
}

let is_leader t = (Substrate.actions t.sub).is_leader ()

(* The action a grant of [tid] will perform, for the audit log. *)
let pending_action t tid =
  match Substrate.find_thread t.sub tid with
  | Some { Substrate.pending = Some (Substrate.Reacquire _); _ } ->
    Audit.Grant_reacquire
  | Some _ | None -> Audit.Grant_lock

let perform t tid = Substrate.perform t.sub (Substrate.thread t.sub tid)

(* Leader: grant greedily, broadcasting each decision. *)
let leader_grant t tid ~mutex =
  t.grant_seq <- t.grant_seq + 1;
  if Substrate.observing t.sub then begin
    Substrate.incr t.sub "grant_broadcasts";
    Substrate.audit t.sub ~tid ~action:(pending_action t tid) ~mutex
      ~rule:Audit.Leader_greedy
      ~candidates:(Waitq.waiting (Substrate.waitq t.sub) ~mutex)
      ()
  end;
  (Substrate.actions t.sub).broadcast_control
    (Sched_iface.Lsa_grant { grant_seq = t.grant_seq; mutex; tid });
  perform t tid

let leader_request t tid ~mutex pending =
  let actions = Substrate.actions t.sub in
  let waitq = Substrate.waitq t.sub in
  (Substrate.thread t.sub tid).pending <- Some pending;
  if actions.mutex_free_for ~tid ~mutex && Waitq.is_empty waitq ~mutex then
    leader_grant t tid ~mutex
  else begin
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "deferrals";
      Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
        ~rule:
          (if actions.mutex_free_for ~tid ~mutex then Audit.Queue_wait
           else Audit.Mutex_held)
        ~candidates:(Waitq.waiting waitq ~mutex)
        ()
    end;
    Waitq.push waitq ~mutex tid
  end

let leader_on_unlock t ~mutex =
  let waitq = Substrate.waitq t.sub in
  match Waitq.head waitq ~mutex with
  | Some tid when (Substrate.actions t.sub).mutex_free_for ~tid ~mutex ->
    ignore (Waitq.pop waitq ~mutex);
    leader_grant t tid ~mutex
  | Some _ | None -> ()

(* Follower: grant only when the local request matches the head of the
   leader's enforced order and the mutex is free. *)
let follower_try t ~mutex =
  match Waitq.head t.enforced ~mutex with
  | Some tid
    when Candidate_index.find t.requested tid = Some mutex
         && (Substrate.actions t.sub).mutex_free_for ~tid ~mutex ->
    ignore (Waitq.pop t.enforced ~mutex);
    Candidate_index.remove t.requested tid;
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "follower_grants";
      Substrate.audit t.sub ~tid ~action:(pending_action t tid) ~mutex
        ~rule:Audit.Follower_enforced
        ~candidates:(Waitq.waiting t.enforced ~mutex)
        ()
    end;
    perform t tid
  | Some _ | None -> ()

let follower_request t tid ~mutex pending =
  (Substrate.thread t.sub tid).pending <- Some pending;
  Candidate_index.add t.requested ~key:tid mutex;
  (if Substrate.observing t.sub && Waitq.head t.enforced ~mutex <> Some tid
   then begin
     Substrate.incr t.sub "deferrals";
     Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
       ~rule:Audit.Enforced_order_wait
       ~candidates:(Waitq.waiting t.enforced ~mutex)
       ()
   end);
  follower_try t ~mutex

(* A follower promoted to leader finishes the dead leader's published
   decisions first (all survivors received the same prefix, in total order),
   then switches to greedy mode.  The drain order is ascending tid — the
   index iterates sorted by construction. *)
let drain_done t =
  List.iter
    (fun (tid, mutex) ->
      Candidate_index.remove t.requested tid;
      match Substrate.find_thread t.sub tid with
      | Some { Substrate.pending = Some p; _ } -> leader_request t tid ~mutex p
      | Some _ | None -> ())
    (Candidate_index.to_list t.requested)

let check_promotion t =
  if is_leader t && t.draining then begin
    (* Drained when no enforced decisions remain unconsumed. *)
    let remaining =
      Candidate_index.fold t.requested ~init:0 ~f:(fun tid mutex acc ->
          if Waitq.mem t.enforced ~mutex ~tid then acc + 1 else acc)
    in
    if remaining = 0 then begin
      t.draining <- false;
      drain_done t
    end
  end

let on_request t tid =
  ignore (Substrate.admit t.sub ~tid);
  (Substrate.actions t.sub).start_thread tid

let on_lock t tid ~syncid:_ ~mutex =
  if is_leader t && not t.draining then
    leader_request t tid ~mutex (Substrate.Lock mutex)
  else begin
    follower_request t tid ~mutex (Substrate.Lock mutex);
    check_promotion t
  end

let on_wakeup t tid ~mutex =
  if is_leader t && not t.draining then
    leader_request t tid ~mutex (Substrate.Reacquire mutex)
  else begin
    follower_request t tid ~mutex (Substrate.Reacquire mutex);
    check_promotion t
  end

let on_unlock t _tid ~syncid:_ ~mutex ~freed =
  if freed then
    if is_leader t && not t.draining then leader_on_unlock t ~mutex
    else follower_try t ~mutex

let on_wait t tid ~mutex =
  ignore tid;
  if is_leader t && not t.draining then leader_on_unlock t ~mutex
  else follower_try t ~mutex

let on_nested_reply t tid = (Substrate.actions t.sub).resume_nested tid

let on_terminate t tid = Substrate.retire t.sub ~tid

let on_control t ~sender:_ control =
  match control with
  | Sched_iface.Lsa_grant { grant_seq = _; mutex; tid } ->
    if (not (is_leader t)) || t.draining then begin
      (* Our own broadcasts also self-deliver on the leader; ignore them
         there — decisions were applied synchronously. *)
      Waitq.push t.enforced ~mutex tid;
      follower_try t ~mutex;
      check_promotion t
    end
  | Sched_iface.View_change ->
    (* View change: a freshly promoted leader drains the dead leader's
       published decisions and then schedules greedily. *)
    check_promotion t

let policy sub : Sched_iface.sched =
  let t =
    { sub; grant_seq = 0; enforced = Waitq.create ();
      requested = Candidate_index.create ();
      draining = not ((Substrate.actions sub).is_leader ()) }
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
    on_terminate = on_terminate t;
    on_control = (fun ~sender c -> on_control t ~sender c);
    (* The grant counter orders every future leader grant; a recovered
       follower must resume it at the donor's value or it would enforce
       stale grant sequence numbers after a later promotion. *)
    snapshot = (fun () -> [ ("grant_seq", t.grant_seq) ]);
    restore =
      (fun kv ->
        List.iter (fun (k, v) -> if k = "grant_seq" then t.grant_seq <- v) kv)
  }

module Base : Decision.Serial = struct
  let name = "lsa"

  let needs_prediction = false

  let policy = policy
end
