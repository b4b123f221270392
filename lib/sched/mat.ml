(* MAT — multiple active threads (Reiser et al. [11]).

   One primary and any number of secondary active threads.  Only the primary
   may acquire locks; a secondary requesting a lock blocks until it becomes
   primary.  The oldest secondary becomes primary when the current primary
   suspends (wait or nested invocation) or terminates — unless a blocked
   ex-primary can continue, which takes priority.  Determinism follows
   because the lock-acquisition sequence is a function of program order and
   these deterministic promotion points only.

   The paper's criticism, reproduced here deliberately: a secondary blocks on
   its lock no matter whether it conflicts with the primary, and a primary
   that has released its last lock keeps delaying everybody until it
   terminates.

   The mat-ll registry entry (MAT+LL, Figure 2) equips the substrate with
   the bookkeeping module: when it proves the primary will never lock again,
   primacy is handed over immediately, and lock-free threads are skipped
   during promotion.

   Decision-module state is the primary designation plus two promotion
   indexes; the thread records (role flags, gates, arrival
   order) live in the substrate.  The indexes partition the live threads
   that are not suspended by their [ex_primary] flag, as {!Seq_index} sets
   of admission seqs, and are updated at every event that changes one of
   those flags.  A promotion then takes the least key of an index, O(1)
   and allocation-free, where a scan over the live threads was linear.
   The scan is kept as the test oracle [test/mat_reference.ml]. *)

open Detmt_runtime
module Audit = Detmt_obs.Audit

type t = {
  sub : Substrate.t;
  mutable primary : int option;
  mutable primary_wants : int option; (* mutex the primary waits on *)
  ready_ex : unit Seq_index.t;
      (* seqs of the ex-primaries that are not suspended *)
  runnable : unit Seq_index.t;
      (* seqs of the threads that are neither suspended nor ex-primaries *)
}

let never_locks_again t tid = Substrate.no_future_locks t.sub ~tid

(* Bring a thread's index membership in line with its flags.  Called after
   every change of [suspended] or [ex_primary]; a retired thread leaves
   both indexes through [unindex]. *)
let reindex t (th : Substrate.thread) =
  let key = th.seq in
  if th.suspended then begin
    Seq_index.remove t.ready_ex key;
    Seq_index.remove t.runnable key
  end
  else if th.ex_primary then begin
    Seq_index.remove t.runnable key;
    Seq_index.add t.ready_ex key ()
  end
  else begin
    Seq_index.remove t.ready_ex key;
    Seq_index.add t.runnable key ()
  end

let unindex t (th : Substrate.thread) =
  Seq_index.remove t.ready_ex th.seq;
  Seq_index.remove t.runnable th.seq

(* The least runnable seq from [seq] on whose thread may still lock, or
   [-1]. *)
let rec first_locking t seq =
  if seq < 0 || not (never_locks_again t (Substrate.by_seq t.sub seq).tid)
  then seq
  else first_locking t (Seq_index.next_above t.runnable seq)

(* Execute the primary's pending operation, waiting for the mutex via
   [primary_wants] when it is still held (necessarily by a suspended
   thread or a running secondary that acquired it earlier as primary). *)
let rec run_primary t (th : Substrate.thread) =
  let actions = Substrate.actions t.sub in
  let try_grant ~mutex ~action =
    if actions.mutex_free_for ~tid:th.tid ~mutex then begin
      t.primary_wants <- None;
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "grants";
        Substrate.audit t.sub ~tid:th.tid ~action ~mutex
          ~rule:Audit.Primary_continue ()
      end;
      Substrate.perform t.sub th
    end
    else begin
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "deferrals";
        Substrate.audit t.sub ~tid:th.tid ~action:Audit.Defer ~mutex
          ~rule:Audit.Mutex_held
          ~candidates:(Option.to_list (actions.mutex_owner mutex))
          ()
      end;
      t.primary_wants <- Some mutex
    end
  in
  match th.gate with
  | Open -> ()
  | Resume -> Substrate.perform t.sub th
  | Lock | Reacquire ->
    try_grant ~mutex:th.gate_mutex ~action:(Substrate.grant_action th)

and promote t =
  if t.primary = None then begin
    (* 1. A blocked (ex-)primary that can continue takes priority. *)
    let candidate =
      match Seq_index.min_key t.ready_ex with
      | -1 -> (
        (* 2. The oldest secondary — skipping, in the bookkeeping variant,
           threads that provably never lock again. *)
        match Substrate.bookkeeping t.sub with
        | None -> Seq_index.min_key t.runnable
        | Some _ -> first_locking t (Seq_index.min_key t.runnable))
      | ready_ex -> ready_ex
    in
    if candidate >= 0 then begin
      let th = Substrate.by_seq t.sub candidate in
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "promotions";
        Substrate.audit t.sub ~tid:th.tid ~action:Audit.Promote
          ~rule:
            (if th.ex_primary then Audit.Promote_ex_primary
             else Audit.Promote_oldest)
          ~candidates:
            (List.filter_map
               (fun (o : Substrate.thread) ->
                 if o.tid <> th.tid && not o.suspended then Some o.tid
                 else None)
               (Substrate.threads t.sub))
          ()
      end;
      th.is_primary <- true;
      if th.ex_primary then begin
        th.ex_primary <- false;
        reindex t th
      end;
      t.primary <- Some th.tid;
      run_primary t th
    end
  end

let demote t (th : Substrate.thread) =
  if th.is_primary then begin
    th.is_primary <- false;
    t.primary <- None;
    t.primary_wants <- None;
    promote t
  end

(* MAT+LL (Figure 2(b)): hand primacy over as soon as the primary's last
   lock has been released.  The trigger is always an event of the primary
   itself (its unlock or one of its bookkeeping calls) — a deterministic
   point — never another thread's progress, whose interleaving with the
   primary would be timing-dependent on real hardware. *)
let check_last_lock t ~tid =
  match t.primary with
  | Some p
    when p = tid && never_locks_again t tid
         && not ((Substrate.actions t.sub).holds_any_mutex tid) ->
    let th = Substrate.thread t.sub tid in
    if th.gate = Open then begin
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "handoffs";
        Substrate.audit t.sub ~tid ~action:Audit.Handoff
          ~rule:Audit.Last_lock_handoff ()
      end;
      demote t th
    end
  | Some _ | None -> ()

let on_request t tid =
  reindex t (Substrate.admit t.sub ~tid);
  (Substrate.actions t.sub).start_thread tid;
  promote t

let on_lock t tid ~syncid:_ ~mutex =
  let th = Substrate.thread t.sub tid in
  Substrate.hold th Lock ~mutex;
  if th.is_primary then run_primary t th
  else begin
    (* A secondary blocks on its lock no matter whether it conflicts with
       the primary — the paper's criticism, visible in the audit log. *)
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "deferrals";
      Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
        ~rule:Audit.Not_primary
        ~candidates:(Option.to_list t.primary)
        ()
    end;
    promote t
  end

let retry_primary_want t ~mutex =
  match (t.primary, t.primary_wants) with
  | Some ptid, Some m when m = mutex -> run_primary t (Substrate.thread t.sub ptid)
  | _ -> ()

let on_unlock t tid ~syncid:_ ~mutex ~freed =
  if freed then begin
    retry_primary_want t ~mutex;
    check_last_lock t ~tid
  end

let on_wait t tid ~mutex =
  (* Suspension: the primary loses primacy.  The wait also released the
     monitor, which the primary-in-waiting may need. *)
  let th = Substrate.thread t.sub tid in
  th.suspended <- true;
  if th.is_primary then th.ex_primary <- true;
  reindex t th;
  if th.is_primary then demote t th;
  retry_primary_want t ~mutex

let on_wakeup t tid ~mutex =
  let th = Substrate.thread t.sub tid in
  th.suspended <- false;
  Substrate.hold th Reacquire ~mutex;
  (* Every waiter once held the monitor, so it was primary when it locked and
     suspended as primary: resume with ex-primary priority. *)
  th.ex_primary <- true;
  reindex t th;
  promote t

let on_nested_begin t tid =
  let th = Substrate.thread t.sub tid in
  th.suspended <- true;
  if th.is_primary then begin
    th.ex_primary <- true;
    Substrate.hold th Resume ~mutex:(-1)
  end;
  reindex t th;
  if th.is_primary then demote t th

let on_nested_reply t tid =
  let th = Substrate.thread t.sub tid in
  th.suspended <- false;
  reindex t th;
  if th.ex_primary then
    (* A blocked primary that can continue running: waits for promotion. *)
    promote t
  else
    (* A secondary may run without restrictions. *)
    Substrate.perform t.sub th

let on_terminate t tid =
  let th = Substrate.thread t.sub tid in
  unindex t th;
  Substrate.retire t.sub ~tid;
  if th.is_primary then begin
    t.primary <- None;
    t.primary_wants <- None
  end;
  promote t

let policy sub : Sched_iface.sched =
  let t =
    { sub; primary = None; primary_wants = None;
      ready_ex = Seq_index.create_set ();
      runnable = Seq_index.create_set () }
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
        check_last_lock t ~tid);
    on_ignore =
      (fun tid ~syncid ->
        Substrate.bk_ignore sub ~tid ~syncid;
        check_last_lock t ~tid);
    on_loop_enter = (fun tid ~loopid -> Substrate.bk_loop_enter sub ~tid ~loopid);
    on_loop_exit =
      (fun tid ~loopid ->
        Substrate.bk_loop_exit sub ~tid ~loopid;
        check_last_lock t ~tid) }
