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
   per-mutex wait queues and the gate each thread is held at live in the
   substrate. *)

open Detmt_runtime
module Audit = Detmt_obs.Audit

type t = {
  sub : Substrate.t;
  (* --- leader state (waiting threads queue in the substrate waitq) --- *)
  mutable grant_seq : int;
  (* --- follower state --- *)
  enforced : Waitq.t; (* per mutex: leader-ordered tids *)
  requested : Substrate.thread Seq_index.t;
      (* tid -> the thread held at its locally requested gate *)
  mutable draining : bool;
      (* a promoted leader first drains already-received decisions *)
}

let is_leader t = (Substrate.actions t.sub).is_leader ()

(* Leader: grant greedily, broadcasting each decision. *)
let leader_grant t tid ~mutex =
  let th = Substrate.thread t.sub tid in
  t.grant_seq <- t.grant_seq + 1;
  if Substrate.observing t.sub then begin
    Substrate.incr t.sub "grant_broadcasts";
    Substrate.audit t.sub ~tid ~action:(Substrate.grant_action th) ~mutex
      ~rule:Audit.Leader_greedy
      ~candidates:(Waitq.waiting (Substrate.waitq t.sub) ~mutex)
      ()
  end;
  (Substrate.actions t.sub).broadcast_control
    (Sched_iface.Lsa_grant { grant_seq = t.grant_seq; mutex; tid });
  Substrate.perform t.sub th

(* The thread is held at its lock or re-acquisition gate. *)
let leader_request t tid ~mutex =
  let actions = Substrate.actions t.sub in
  let waitq = Substrate.waitq t.sub in
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
    when Seq_index.mem t.requested tid
         && (Seq_index.get t.requested tid).gate_mutex = mutex
         && (Substrate.actions t.sub).mutex_free_for ~tid ~mutex ->
    let th = Seq_index.get t.requested tid in
    ignore (Waitq.pop t.enforced ~mutex);
    Seq_index.remove t.requested tid;
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "follower_grants";
      Substrate.audit t.sub ~tid ~action:(Substrate.grant_action th) ~mutex
        ~rule:Audit.Follower_enforced
        ~candidates:(Waitq.waiting t.enforced ~mutex)
        ()
    end;
    Substrate.perform t.sub th
  | Some _ | None -> ()

let follower_request t (th : Substrate.thread) ~mutex =
  let tid = th.tid in
  Seq_index.add t.requested tid th;
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
   then switches to greedy mode.  The drain order is ascending tid: each
   step takes the index's least key (nothing re-enters it once [draining]
   is off, so this is the order of the index when the drain began). *)
let rec drain_done t =
  match Seq_index.min_key t.requested with
  | -1 -> ()
  | tid ->
    let th = Seq_index.get t.requested tid in
    Seq_index.remove t.requested tid;
    if th.gate <> Open then leader_request t tid ~mutex:th.gate_mutex;
    drain_done t

(* Whether a locally requested tid still waits on an enforced decision. *)
let rec unconsumed t tid =
  tid >= 0
  && (Waitq.mem t.enforced ~mutex:(Seq_index.get t.requested tid).gate_mutex
        ~tid
     || unconsumed t (Seq_index.next_above t.requested tid))

let check_promotion t =
  if is_leader t && t.draining then begin
    (* Drained when no enforced decisions remain unconsumed. *)
    if not (unconsumed t (Seq_index.min_key t.requested)) then begin
      t.draining <- false;
      drain_done t
    end
  end

let on_request t tid =
  ignore (Substrate.admit t.sub ~tid);
  (Substrate.actions t.sub).start_thread tid

(* A lock or a re-acquisition: hold the thread at its gate, then decide
   (leader) or wait for the leader's decision (follower). *)
let request t gate tid ~mutex =
  let th = Substrate.thread t.sub tid in
  Substrate.hold th gate ~mutex;
  if is_leader t && not t.draining then leader_request t tid ~mutex
  else begin
    follower_request t th ~mutex;
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

let on_nested_reply t tid = Substrate.perform t.sub (Substrate.thread t.sub tid)

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
    { sub; grant_seq = 0;
      enforced = Waitq.create (Substrate.actions sub).mutex_slots;
      requested = Seq_index.create ();
      draining = not ((Substrate.actions sub).is_leader ()) }
  in
  let base =
    Sched_iface.no_op_sched ~name:(Substrate.name sub)
      ~on_request:(on_request t)
      ~on_lock:(fun tid ~syncid:_ ~mutex -> request t Substrate.Lock tid ~mutex)
      ~on_wakeup:(request t Substrate.Reacquire)
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
