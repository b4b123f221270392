(* The scan-based MAT decision module, kept as a test-only reference.

   This is the pre-index implementation of {!Detmt_sched.Mat}: every
   promotion scans the substrate's live threads from the oldest, once for a
   ready ex-primary and once for a runnable secondary.  It is linear in the
   number of live threads per promotion but states the promotion rule
   directly, which makes it the oracle for the indexed implementation:
   [test_properties.ml] drives both through [Replica.create ~make_sched] and
   requires identical grant sequences, replies, states and per-mutex
   acquisition orders, for both [mat] and [mat-ll]. *)

open Detmt_runtime
open Detmt_sched
module Audit = Detmt_obs.Audit

type t = {
  sub : Substrate.t;
  mutable primary : int option;
  mutable primary_wants : int option; (* mutex the primary waits on *)
}

let never_locks_again t tid = Substrate.no_future_locks t.sub ~tid

(* The oldest live thread satisfying [f]: the scan over every live thread
   that the indexed module replaced. *)
let first t ~f = List.find_opt f (Substrate.threads t.sub)

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
  match th.pending with
  | None -> ()
  | Some Substrate.Resume -> Substrate.perform t.sub th
  | Some (Substrate.Lock mutex) -> try_grant ~mutex ~action:Audit.Grant_lock
  | Some (Substrate.Reacquire mutex) ->
    try_grant ~mutex ~action:Audit.Grant_reacquire

and promote t =
  if t.primary = None then begin
    (* 1. A blocked (ex-)primary that can continue takes priority. *)
    let ready_ex =
      first t ~f:(fun th -> th.ex_primary && not th.suspended)
    in
    let candidate =
      match ready_ex with
      | Some th -> Some th
      | None ->
        (* 2. The oldest secondary — skipping, in the bookkeeping variant,
           threads that provably never lock again. *)
        first t ~f:(fun th ->
            (not th.suspended) && (not th.ex_primary)
            && not (never_locks_again t th.tid))
    in
    match candidate with
    | None -> ()
    | Some th ->
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
      th.ex_primary <- false;
      t.primary <- Some th.tid;
      run_primary t th
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
    if th.pending = None then begin
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "handoffs";
        Substrate.audit t.sub ~tid ~action:Audit.Handoff
          ~rule:Audit.Last_lock_handoff ()
      end;
      demote t th
    end
  | Some _ | None -> ()

let on_request t tid =
  ignore (Substrate.admit t.sub ~tid);
  (Substrate.actions t.sub).start_thread tid;
  promote t

let on_lock t tid ~syncid:_ ~mutex =
  let th = Substrate.thread t.sub tid in
  th.pending <- Some (Substrate.Lock mutex);
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
  if th.is_primary then begin
    th.ex_primary <- true;
    demote t th
  end;
  retry_primary_want t ~mutex

let on_wakeup t tid ~mutex =
  let th = Substrate.thread t.sub tid in
  th.suspended <- false;
  th.pending <- Some (Substrate.Reacquire mutex);
  (* Every waiter once held the monitor, so it was primary when it locked and
     suspended as primary: resume with ex-primary priority. *)
  th.ex_primary <- true;
  promote t

let on_nested_begin t tid =
  let th = Substrate.thread t.sub tid in
  th.suspended <- true;
  if th.is_primary then begin
    th.ex_primary <- true;
    th.pending <- Some Substrate.Resume;
    demote t th
  end

let on_nested_reply t tid =
  let th = Substrate.thread t.sub tid in
  th.suspended <- false;
  if th.ex_primary then
    (* A blocked primary that can continue running: waits for promotion. *)
    promote t
  else
    (* A secondary may run without restrictions. *)
    (Substrate.actions t.sub).resume_nested tid

let on_terminate t tid =
  let th = Substrate.thread t.sub tid in
  Substrate.retire t.sub ~tid;
  if th.is_primary then begin
    t.primary <- None;
    t.primary_wants <- None
  end;
  promote t

let policy sub : Sched_iface.sched =
  let t = { sub; primary = None; primary_wants = None } in
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

module Base : Decision.Serial = struct
  let name = "mat"

  let needs_prediction = false

  let policy = policy
end

module Last_lock : Decision.Serial = struct
  let name = "mat-ll"

  let needs_prediction = true

  let policy = policy
end
