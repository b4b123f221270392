(* PMAT — predicted MAT, the extension sketched in section 4.3.

   "Instead of only using one active primary thread, we aim at a queue of
   active threads that are in principle equal.  A thread t only gets a lock
   when all threads preceding it in the queue are already predicted and none
   of them conflicts with the lock requested by t."

   The queue is the arrival order — the substrate's admission index.  A
   pending lock request of thread t on mutex m is granted when:
   - m is free (or t already owns it — handled by the replica), and
   - every thread before t in the queue is predicted, and its future lock
     set (from the bookkeeping module) does not contain m.

   The rule is kept incrementally rather than re-evaluated per queue
   position.  Two structures summarise the queue:
   - the gate: the first unpredicted queued thread.  Nobody behind it can be
     granted, so the search for a grantable thread stops there;
   - the claim sets: for each mutex m, the admission seqs of the queued,
     predicted threads whose future set contains m.
   A thread pending on m is then eligible iff it is at or before the gate
   and no claim on m has a smaller seq — exactly the paper's rule, since
   "every predecessor predicted" is "the gate is not ahead of t", and "no
   predicted predecessor may lock m" is "no smaller claim on m".  A thread's
   entries change only at its own bookkeeping events (admission, lockInfo,
   ignore, acquisition, loop enter/exit, leaving the queue on wait,
   re-entering it on wakeup, termination), so each event costs O(log n)
   plus the size of its future-set delta.  The claim half of the rule is
   kept per mutex as well: the [ready] index holds each mutex's least-seq
   waiter while no smaller claim exists, so a re-examination only tests
   ready waiters for the gate and a free mutex.

   Pending requests are re-examined exactly at the paper's wake-up events:
   a conflicting mutex is released, a thread is removed from the list, or a
   preceding thread becomes predicted (lockInfo / ignore / loopExit).  Each
   re-examination grants the least-seq eligible thread and starts over,
   because a grant re-enters the scheduler (the resumed thread may unlock,
   announce, terminate, ...) — so the grant sequence is the one a full
   head-to-tail scan of the queue would produce (the scan survives as the
   test oracle [test/pmat_reference.ml]).

   The paper leaves open "how the algorithm should proceed when a thread
   calls wait or does a nested invocation".  Our resolution (see DESIGN.md):
   a thread suspended in [wait] leaves the queue — otherwise the thread that
   should notify it could be blocked behind it, a guaranteed deadlock — and
   re-enters at the tail on its (deterministically ordered) notification; a
   thread suspended in a nested invocation keeps its place, which is
   conservative and deadlock-free because its reply always arrives.  Both
   rules only ever delay grants relative to an oracle, never reorder
   per-mutex acquisitions nondeterministically. *)

open Detmt_runtime
module Audit = Detmt_obs.Audit
module Iset = Bookkeeping.Iset
module Imap = Map.Make (Int)

type t = {
  sub : Substrate.t;
  mutable unpredicted : Iset.t;
      (* seqs of the queued threads without a known future; the least is
         the gate *)
  claims : (int, Iset.t) Hashtbl.t;
      (* mutex -> seqs of the queued predicted threads whose future set
         holds it *)
  claimed : (int, Iset.t) Hashtbl.t;
      (* tid -> the mutexes it is entered under in [claims] *)
  waiting : (int, Substrate.thread Imap.t) Hashtbl.t;
      (* mutex -> queued threads with a pending lock or re-acquisition of
         it, by seq *)
  ready : Substrate.thread Candidate_index.t;
      (* by seq: each mutex's least-seq waiter, when no claim on the mutex
         has a smaller seq (see [recheck]) *)
}

(* ---------------------------- claim sets ------------------------------ *)

let find_set tbl key =
  match Hashtbl.find tbl key with
  | set -> set
  | exception Not_found -> Iset.empty

let store_set tbl key set =
  if Iset.is_empty set then Hashtbl.remove tbl key
  else Hashtbl.replace tbl key set

let first_claim t mutex =
  match Hashtbl.find t.claims mutex with
  | set -> Iset.min_elt set
  | exception Not_found -> max_int

let waiters t mutex =
  match Hashtbl.find t.waiting mutex with
  | w -> w
  | exception Not_found -> Imap.empty

(* Restore the [ready] invariant for one mutex.  A mutex's least-seq waiter
   and least claim change only in [set_pending], [clear_pending] and
   [set_claims], and each of them rechecks the mutex it touched.  Only the
   least-seq waiter matters: the replica never reports a
   lock request on a mutex the thread already holds (re-entry is
   short-circuited), so all waiters of a mutex see the same free/held
   answer and the same claim bound — if any of them is eligible, the
   least-seq one is. *)
let recheck t mutex =
  match Imap.min_binding_opt (waiters t mutex) with
  | None -> ()
  | Some (h, th) ->
    if h <= first_claim t mutex then Candidate_index.add t.ready ~key:h th
    else Candidate_index.remove t.ready h

let set_claims t seq ~mutex f =
  store_set t.claims mutex (f seq (find_set t.claims mutex));
  recheck t mutex

(* Bring a queued thread's gate and claim entries in line with its
   bookkeeping table.  The table's future set is persistent and physically
   unchanged by events that do not move it, so most events stop at the
   physical-equality test. *)
let refresh t (th : Substrate.thread) =
  let future = Substrate.future_set t.sub ~tid:th.tid in
  t.unpredicted <-
    (match future with
    | Some _ -> Iset.remove th.seq t.unpredicted
    | None -> Iset.add th.seq t.unpredicted);
  let now = Option.value ~default:Iset.empty future in
  let before = find_set t.claimed th.tid in
  if now != before then begin
    Iset.iter
      (fun m ->
        if not (Iset.mem m now) then set_claims t th.seq ~mutex:m Iset.remove)
      before;
    Iset.iter
      (fun m ->
        if not (Iset.mem m before) then set_claims t th.seq ~mutex:m Iset.add)
      now;
    store_set t.claimed th.tid now
  end

let refresh_tid t tid =
  match Substrate.find_thread t.sub tid with
  | Some th -> refresh t th
  | None -> ()

(* --------------------------- pending requests ------------------------- *)

let pending_mutex (th : Substrate.thread) =
  match th.pending with
  | Some (Substrate.Lock mutex | Substrate.Reacquire mutex) -> Some mutex
  | Some Substrate.Resume | None -> None

let set_pending t (th : Substrate.thread) op =
  th.pending <- Some op;
  Option.iter
    (fun mutex ->
      let w = waiters t mutex in
      (* a new least waiter displaces the old one from [ready] *)
      (match Imap.min_binding_opt w with
      | Some (h, _) when h > th.seq -> Candidate_index.remove t.ready h
      | Some _ | None -> ());
      Hashtbl.replace t.waiting mutex (Imap.add th.seq th w);
      recheck t mutex)
    (pending_mutex th)

let clear_pending t (th : Substrate.thread) =
  Option.iter
    (fun mutex ->
      let rest = Imap.remove th.seq (waiters t mutex) in
      if Imap.is_empty rest then Hashtbl.remove t.waiting mutex
      else Hashtbl.replace t.waiting mutex rest;
      Candidate_index.remove t.ready th.seq;
      recheck t mutex)
    (pending_mutex th)

(* The thread leaves the queue (wait or termination): drop every entry. *)
let withdraw t tid =
  match Substrate.find_thread t.sub tid with
  | None -> ()
  | Some th ->
    t.unpredicted <- Iset.remove th.seq t.unpredicted;
    Iset.iter
      (fun m -> set_claims t th.seq ~mutex:m Iset.remove)
      (find_set t.claimed tid);
    Hashtbl.remove t.claimed tid;
    clear_pending t th

(* ------------------------------ grants -------------------------------- *)

let gate t =
  if Iset.is_empty t.unpredicted then max_int else Iset.min_elt t.unpredicted

let mutex_free t (th : Substrate.thread) =
  match th.pending with
  | None | Some Substrate.Resume -> false
  | Some (Substrate.Lock mutex | Substrate.Reacquire mutex) ->
    (Substrate.actions t.sub).mutex_free_for ~tid:th.tid ~mutex

(* The least-seq eligible pending thread: the first [ready] waiter (no
   smaller claim on its mutex) whose mutex is free, unless the gate comes
   first. *)
let next_grant t =
  let gate = gate t in
  match
    Candidate_index.find_first t.ready ~f:(fun seq th ->
        seq > gate || mutex_free t th)
  with
  | Some (seq, th) when seq <= gate -> Some th
  | Some _ | None -> None

(* Queue members ahead of [th] whose seq satisfies [p], oldest first. *)
let predecessors ?(p = fun _ -> true) t (th : Substrate.thread) =
  List.rev
    (Substrate.fold t.sub ~init:[] ~f:(fun acc (u : Substrate.thread) ->
         if u.seq < th.seq && p u.seq then u.tid :: acc else acc))

let grant t (th : Substrate.thread) =
  clear_pending t th;
  (if Substrate.observing t.sub then
     let action, mutex =
       match th.pending with
       | Some (Substrate.Lock mutex) -> (Audit.Grant_lock, mutex)
       | Some (Substrate.Reacquire mutex) -> (Audit.Grant_reacquire, mutex)
       | Some Substrate.Resume | None -> assert false
     in
     Substrate.incr t.sub "grants";
     Substrate.audit t.sub ~tid:th.tid ~action ~mutex
       ~rule:Audit.Predicted_no_conflict ~candidates:(predecessors t th) ());
  Substrate.perform t.sub th

(* Grant until nothing is grantable; every grant may cascade through the
   scheduler, so the search restarts from the queue head each time. *)
let rec rescan t =
  match next_grant t with
  | Some th ->
    grant t th;
    rescan t
  | None -> ()

(* ---------------------------- callbacks ------------------------------- *)

let on_request t tid =
  (* A tail admission cannot make anybody ahead of it grantable. *)
  refresh t (Substrate.admit t.sub ~tid);
  (Substrate.actions t.sub).start_thread tid

(* Explain a deferral by what gates it: the mutex's holder, the unpredicted
   predecessors (the gate is ahead), or the predicted predecessors that may
   still lock the mutex — the crossover cost section 4.3 analyses. *)
let audit_deferral t (th : Substrate.thread) ~mutex =
  let actions = Substrate.actions t.sub in
  let rule, candidates =
    if not (actions.mutex_free_for ~tid:th.tid ~mutex) then
      (Audit.Mutex_held, Option.to_list (actions.mutex_owner mutex))
    else if gate t < th.seq then
      ( Audit.Predecessor_unpredicted,
        predecessors t th ~p:(fun seq -> Iset.mem seq t.unpredicted) )
    else
      let claims = find_set t.claims mutex in
      ( Audit.Predecessor_conflict,
        predecessors t th ~p:(fun seq -> Iset.mem seq claims) )
  in
  Substrate.incr t.sub "deferrals";
  Substrate.audit t.sub ~tid:th.tid ~action:Audit.Defer ~mutex ~rule
    ~candidates ()

let on_lock t tid ~syncid:_ ~mutex =
  set_pending t (Substrate.thread t.sub tid) (Substrate.Lock mutex);
  rescan t;
  if Substrate.observing t.sub then
    match Substrate.find_thread t.sub tid with
    | Some th when th.pending <> None -> audit_deferral t th ~mutex
    | Some _ | None -> ()

let on_unlock t _tid ~syncid:_ ~mutex:_ ~freed = if freed then rescan t

let on_wait t tid ~mutex:_ =
  (* Leave the queue (the bookkeeping table survives); the monitor was
     released by the wait. *)
  withdraw t tid;
  Substrate.remove t.sub ~tid;
  rescan t

let on_wakeup t tid ~mutex =
  (* Re-enter at the tail, pending the monitor re-acquisition.  The position
     is deterministic: notifications are ordered by the deterministic
     execution. *)
  let th = Substrate.enqueue t.sub ~tid in
  refresh t th;
  set_pending t th (Substrate.Reacquire mutex);
  rescan t

let on_nested_reply t tid =
  (* The thread kept its queue position; it resumes freely (only lock
     acquisitions are gated). *)
  (Substrate.actions t.sub).resume_nested tid

let on_terminate t tid =
  withdraw t tid;
  Substrate.retire t.sub ~tid;
  rescan t

(* Every bookkeeping event updates the thread's table first, then its gate
   and claim entries. *)
let policy sub : Sched_iface.sched =
  let t =
    { sub; unpredicted = Iset.empty; claims = Hashtbl.create 64;
      claimed = Hashtbl.create 64; waiting = Hashtbl.create 64;
      ready = Candidate_index.create () }
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
    on_acquired =
      (fun tid ~syncid ~mutex ->
        Substrate.bk_acquired sub ~tid ~syncid ~mutex;
        refresh_tid t tid;
        rescan t);
    on_lockinfo =
      (fun tid ~syncid ~mutex ->
        Substrate.bk_lockinfo sub ~tid ~syncid ~mutex;
        refresh_tid t tid;
        rescan t);
    on_ignore =
      (fun tid ~syncid ->
        Substrate.bk_ignore sub ~tid ~syncid;
        refresh_tid t tid;
        rescan t);
    (* Entering a loop can only withdraw a prediction, never enable a
       grant: update the entries, no re-examination. *)
    on_loop_enter =
      (fun tid ~loopid ->
        Substrate.bk_loop_enter sub ~tid ~loopid;
        refresh_tid t tid);
    on_loop_exit =
      (fun tid ~loopid ->
        Substrate.bk_loop_exit sub ~tid ~loopid;
        refresh_tid t tid;
        rescan t) }

module Base : Decision.Serial = struct
  let name = "pmat"

  let needs_prediction = true

  let policy = policy
end
