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
   re-entering it on wakeup, termination), so each event costs O(1) plus
   the size of its future-set delta.  A thread's claims are mirrored in a
   pooled record: the sorted mutexes it claims and the bookkeeping stamp
   they reflect.  An event that leaves the future set alone stops at the
   stamp comparison; one that moves it merges the old and new sorted
   arrays into the per-mutex claim sets.  Every seq-keyed set is a
   {!Seq_index}, so none of these updates allocates.  The claim half of
   the rule is kept per mutex as well: the [ready] index holds each
   mutex's least-seq waiter while no smaller claim exists, so a
   re-examination only tests ready waiters for the gate and a free
   mutex.

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
module Slot_map = Detmt_sim.Slot_map

(* The mutexes a queued thread is entered under in [claims], ascending, and
   the bookkeeping stamp they mirror ([-1]: the empty set of an unpredicted
   thread).  Records are pooled: [withdraw] returns one, [refresh] takes
   it. *)
type claim = {
  mutable mutexes : int array;
  mutable len : int;
  mutable seen : int;
}

type t = {
  sub : Substrate.t;
  bk : Bookkeeping.t;
  unpredicted : unit Seq_index.t;
      (* seqs of the queued threads without a known future; the least is
         the gate *)
  mutexes : Slot_map.t;
      (* the replica's mutex slots, which key [claims] and [waiting] *)
  mutable claims : unit Seq_index.t array;
      (* per mutex slot: seqs of the queued predicted threads whose future
         set holds it *)
  claimed : claim Seq_index.t; (* seq -> the queued thread's claim record *)
  mutable spare : claim array; (* released records, [spares] of them *)
  mutable spares : int;
  mutable waiting : unit Seq_index.t array;
      (* per mutex slot: seqs of the queued threads with a pending lock or
         re-acquisition of it *)
  ready : unit Seq_index.t;
      (* each mutex's least-seq waiter, when no claim on the mutex has a
         smaller seq (see [recheck]) *)
}

(* ---------------------------- claim sets ------------------------------ *)

let unused = Seq_index.create_set ()

(* A mutex's slot.  Its two indexes are created at its first sight and kept
   (emptied, not removed) afterwards, so a busy mutex reuses its rings. *)
let slot t mutex =
  let s = Slot_map.intern t.mutexes mutex in
  if s >= Array.length t.claims then begin
    t.claims <- Slot_map.fit t.claims t.mutexes unused;
    t.waiting <- Slot_map.fit t.waiting t.mutexes unused
  end;
  if t.claims.(s) == unused then begin
    t.claims.(s) <- Seq_index.create_set ();
    t.waiting.(s) <- Seq_index.create_set ()
  end;
  s

(* The least seq of a per-mutex index, or [max_int]. *)
let least set = match Seq_index.min_key set with -1 -> max_int | seq -> seq

(* Restore the [ready] invariant for one mutex.  A mutex's least-seq waiter
   and least claim change only in [set_pending], [clear_pending] and
   [set_claim], and each of them rechecks the mutex it touched.  Only the
   least-seq waiter matters: the replica never reports a
   lock request on a mutex the thread already holds (re-entry is
   short-circuited), so all waiters of a mutex see the same free/held
   answer and the same claim bound — if any of them is eligible, the
   least-seq one is. *)
let recheck t s =
  let h = least t.waiting.(s) in
  if h < max_int then
    if h <= least t.claims.(s) then Seq_index.add t.ready h ()
    else Seq_index.remove t.ready h

let set_claim t seq ~mutex ~claimed =
  let s = slot t mutex in
  if claimed then Seq_index.add t.claims.(s) seq ()
  else Seq_index.remove t.claims.(s) seq;
  recheck t s

let claim_record t seq =
  if Seq_index.mem t.claimed seq then Seq_index.get t.claimed seq
  else begin
    let c =
      if t.spares = 0 then { mutexes = Array.make 4 0; len = 0; seen = -1 }
      else begin
        t.spares <- t.spares - 1;
        t.spare.(t.spares)
      end
    in
    Seq_index.add t.claimed seq c;
    c
  end

(* Bring a queued thread's gate and claim entries in line with its
   bookkeeping table.  Most events leave the future set alone, and stop at
   the stamp test; the others merge the old and the new sorted mutex
   arrays, touching only the mutexes that changed. *)
let refresh t (th : Substrate.thread) =
  let tab = Bookkeeping.table t.bk ~tid:th.tid in
  let predicted = Bookkeeping.is_predicted tab in
  if predicted then Seq_index.remove t.unpredicted th.seq
  else Seq_index.add t.unpredicted th.seq ();
  let c = claim_record t th.seq in
  let stamp = if predicted then Bookkeeping.stamp tab else -1 in
  if stamp <> c.seen then begin
    let n = if predicted then Bookkeeping.future_length tab else 0 in
    let i = ref 0 and j = ref 0 in
    while !i < c.len || !j < n do
      let old = if !i < c.len then c.mutexes.(!i) else max_int
      and now = if !j < n then Bookkeeping.future_mutex tab !j else max_int in
      if !j >= n || (!i < c.len && old < now) then begin
        set_claim t th.seq ~mutex:old ~claimed:false;
        incr i
      end
      else if !i >= c.len || now < old then begin
        set_claim t th.seq ~mutex:now ~claimed:true;
        incr j
      end
      else begin
        incr i;
        incr j
      end
    done;
    if Array.length c.mutexes < n then c.mutexes <- Array.make (2 * n) 0;
    for k = 0 to n - 1 do
      c.mutexes.(k) <- Bookkeeping.future_mutex tab k
    done;
    c.len <- n;
    c.seen <- stamp
  end

let refresh_tid t tid =
  match Substrate.lookup t.sub tid with
  | th -> refresh t th
  | exception Not_found -> ()

(* --------------------------- pending requests ------------------------- *)

(* Hold the thread at a lock or re-acquisition gate and enter it as a
   waiter of the mutex. *)
let set_pending t (th : Substrate.thread) gate ~mutex =
  Substrate.hold th gate ~mutex;
  let s = slot t mutex in
  let w = t.waiting.(s) in
  (* a new least waiter displaces the old one from [ready] *)
  let h = Seq_index.min_key w in
  if h > th.seq then Seq_index.remove t.ready h;
  Seq_index.add w th.seq ();
  recheck t s

let clear_pending t (th : Substrate.thread) =
  match th.gate with
  | Open | Resume -> ()
  | Lock | Reacquire ->
    let s = slot t th.gate_mutex in
    Seq_index.remove t.waiting.(s) th.seq;
    Seq_index.remove t.ready th.seq;
    recheck t s

(* The thread leaves the queue (wait or termination): drop every entry and
   return its claim record to the pool. *)
let withdraw t tid =
  match Substrate.lookup t.sub tid with
  | exception Not_found -> ()
  | th ->
    Seq_index.remove t.unpredicted th.seq;
    if Seq_index.mem t.claimed th.seq then begin
      let c = Seq_index.get t.claimed th.seq in
      for i = 0 to c.len - 1 do
        set_claim t th.seq ~mutex:c.mutexes.(i) ~claimed:false
      done;
      c.len <- 0;
      c.seen <- -1;
      Seq_index.remove t.claimed th.seq;
      if t.spares = Array.length t.spare then begin
        let spare = Array.make ((2 * t.spares) + 1) c in
        Array.blit t.spare 0 spare 0 t.spares;
        t.spare <- spare
      end;
      t.spare.(t.spares) <- c;
      t.spares <- t.spares + 1
    end;
    clear_pending t th

(* ------------------------------ grants -------------------------------- *)

let gate t =
  match Seq_index.min_key t.unpredicted with -1 -> max_int | seq -> seq

let mutex_free t (th : Substrate.thread) =
  match th.gate with
  | Open | Resume -> false
  | Lock | Reacquire ->
    (Substrate.actions t.sub).mutex_free_for ~tid:th.tid ~mutex:th.gate_mutex

(* The seq of the least-seq eligible pending thread, or [-1]: the first
   [ready] waiter (no smaller claim on its mutex) whose mutex is free,
   unless the gate comes first. *)
let rec first_free t ~gate seq =
  if seq < 0 || seq > gate then -1
  else if mutex_free t (Substrate.by_seq t.sub seq) then seq
  else first_free t ~gate (Seq_index.next_above t.ready seq)

let next_grant t = first_free t ~gate:(gate t) (Seq_index.min_key t.ready)

(* Queue members ahead of [th] whose seq satisfies [p], oldest first. *)
let predecessors ?(p = fun _ -> true) t (th : Substrate.thread) =
  List.rev
    (Substrate.fold t.sub ~init:[] ~f:(fun acc (u : Substrate.thread) ->
         if u.seq < th.seq && p u.seq then u.tid :: acc else acc))

let grant t (th : Substrate.thread) =
  clear_pending t th;
  if Substrate.observing t.sub then begin
    Substrate.incr t.sub "grants";
    Substrate.audit t.sub ~tid:th.tid ~action:(Substrate.grant_action th)
      ~mutex:th.gate_mutex ~rule:Audit.Predicted_no_conflict
      ~candidates:(predecessors t th) ()
  end;
  Substrate.perform t.sub th

(* Grant until nothing is grantable; every grant may cascade through the
   scheduler, so the search restarts from the queue head each time. *)
let rec rescan t =
  let seq = next_grant t in
  if seq >= 0 then begin
    grant t (Substrate.by_seq t.sub seq);
    rescan t
  end

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
        predecessors t th ~p:(Seq_index.mem t.unpredicted) )
    else
      ( Audit.Predecessor_conflict,
        predecessors t th ~p:(Seq_index.mem t.claims.(slot t mutex)) )
  in
  Substrate.incr t.sub "deferrals";
  Substrate.audit t.sub ~tid:th.tid ~action:Audit.Defer ~mutex ~rule
    ~candidates ()

let on_lock t tid ~syncid:_ ~mutex =
  set_pending t (Substrate.thread t.sub tid) Lock ~mutex;
  rescan t;
  if Substrate.observing t.sub then
    match Substrate.lookup t.sub tid with
    | th when th.gate <> Open -> audit_deferral t th ~mutex
    | _ | (exception Not_found) -> ()

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
  set_pending t th Reacquire ~mutex;
  rescan t

let on_nested_reply t tid =
  (* The thread kept its queue position; it resumes freely (only lock
     acquisitions are gated). *)
  Substrate.perform t.sub (Substrate.thread t.sub tid)

let on_terminate t tid =
  withdraw t tid;
  Substrate.retire t.sub ~tid;
  rescan t

(* Every bookkeeping event updates the thread's table first, then its gate
   and claim entries. *)
let policy sub : Sched_iface.sched =
  let bk =
    match Substrate.bookkeeping sub with
    | Some bk -> bk
    | None -> Bookkeeping.create ~summary:None ()
  in
  let t =
    { sub; bk; unpredicted = Seq_index.create_set ();
      mutexes = (Substrate.actions sub).mutex_slots; claims = [||];
      claimed = Seq_index.create (); spare = [||]; spares = 0; waiting = [||];
      ready = Seq_index.create_set () }
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
