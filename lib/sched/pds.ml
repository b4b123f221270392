(* PDS — preemptive deterministic scheduling (Basile et al. [1]) — and pPDS,
   its prediction-aware refinement.

   A pool of [pds_batch] worker slots executes requests concurrently; each
   thread runs until it requests its first lock.  Locks are granted only when
   every busy slot has "arrived" (reached a lock request, terminated or
   suspended): then the round is decided — requests are granted in thread-age
   order, conflicting ones serialised within the round — and the round ends
   once every granted lock has been released.  When the batch cannot fill,
   dummy messages are injected after a timeout so that requests are
   eventually processed; the price is additional group-communication load.

   Batch membership is a pure function of the delivery order: slots are
   filled from the totally-ordered backlog, and a member that terminates
   before the round decision keeps occupying its slot (it counts as arrived)
   until the decision consumes it.  This is what makes PDS replica-
   deterministic even when the transport skews delivery *times* across
   replicas — a local-time-based account of emptied slots would let one
   replica's round decision see a termination another replica has not
   witnessed yet, and batch compositions would drift apart.

   The paper's "optimised version [in which] each thread is allowed to
   request two locks" is implemented too: a round member that requests a
   second lock while still holding its round grant (nested synchronized
   blocks, hand-over-hand locking) joins the open round instead of stalling
   until the next one — without this, any nested acquisition would deadlock
   the round.

   Condition variables (the FTflex addition the paper calls "even more
   complicated"): a wait counts as a suspension for round accounting, and the
   re-acquisition after notify competes like a normal lock request in a later
   round.

   pPDS shrinks round membership with the bookkeeping module.  At the
   decision point, a member whose lock set is exactly known (predicted), is
   condvar-free, and provably cannot interact with any other live member —
   its closure (requested mutex plus future lock set) is untouched by every
   other slot member's possible future and currently unheld — is released
   from the round entirely: all its locks are granted on demand and the
   round does not wait for its releases.  Crucially the independent KEEPS
   its slot until it terminates, like a terminated member keeps its slot
   until the next decision.  No round decision can therefore happen while an
   independent runs, which keeps every eligibility input (bookkeeping state
   of stopped members, mutex owners) a deterministic function of the
   delivered prefix — the slot is the synchronisation point that replaces a
   timing-dependent liveness test.  Round grants can never touch an
   independent's closure (disjointness was checked against every member's
   future), so per-mutex acquisition orders are replica-invariant. *)

open Detmt_runtime
module Audit = Detmt_obs.Audit

type arrival =
  | A_lock of int (* mutex; includes monitor re-acquisitions *)
  | A_suspended (* condvar waits count as arrived; see [on_nested_begin] *)

type t = {
  sub : Substrate.t;
  batch : int;
  dummy_timeout_ms : float;
  mutable backlog : int Fqueue.t; (* delivered, not yet started, FIFO *)
  mutable slots : int Fqueue.t;
      (* current batch members in age (= delivery) order, terminated members
         included until the next round decision *)
  terminated : (int, unit) Hashtbl.t;
      (* batch members that finished before the decision; they count as
         arrived and as batch occupancy *)
  mutable ghost_slots : int;
      (* occupied-by-terminated slots restored from a state-transfer
         snapshot: the member identities are gone but the occupancy must
         survive, or a recovered replica's batches would fill differently *)
  arrived : (int, arrival) Hashtbl.t;
  reacquire : (int, unit) Hashtbl.t; (* pending op is a re-acquisition *)
  independent : (int, unit) Hashtbl.t;
      (* pPDS: members released from round discipline, running free until
         termination (their slot stays occupied, see above) *)
  indep_deferred : Waitq.t;
      (* pPDS: an independent's lock found its mutex held (defensive only —
         the launch conditions make the closure unreachable for others) *)
  mutable round_open : bool;
  mutable round_members : int list; (* threads whose lock this round decides *)
  round_grants : (int, int) Hashtbl.t; (* grants per member this round *)
  mutable round_waiting : (int * int) list; (* (tid, mutex), age order *)
  mutable second_waiting : (int * int) list;
      (* second-in-round requests, sorted by (tid, mutex); they yield to
         every decided request for the same mutex (see [grant_eligible]) *)
  mutable round_unreleased : (int * int) list;
      (* granted, not yet released; a multiset — only membership is read *)
  mutable timer_armed : bool;
  mutable dummies_requested : int;
}

let occupancy t = t.ghost_slots + Fqueue.length t.slots

let observing t = Substrate.observing t.sub

let fill_slots t =
  while occupancy t < t.batch && not (Fqueue.is_empty t.backlog) do
    match Fqueue.pop t.backlog with
    | None -> ()
    | Some (tid, rest) ->
      t.backlog <- rest;
      t.slots <- Fqueue.push t.slots tid;
      if observing t then begin
        Substrate.incr t.sub "starts";
        Substrate.audit t.sub ~tid ~action:Audit.Start_thread
          ~rule:Audit.Fifo_head
          ~candidates:(Fqueue.to_list rest)
          ()
      end;
      (Substrate.actions t.sub).start_thread tid
  done

let grant t tid =
  let actions = Substrate.actions t.sub in
  if Hashtbl.mem t.reacquire tid then begin
    Hashtbl.remove t.reacquire tid;
    actions.grant_reacquire tid
  end
  else actions.grant_lock tid

(* Grant every still-waiting round member whose mutex is currently free.
   Decided requests go first, in age order; a second-in-round request is
   eligible only once no decided request for its mutex remains.  Without
   that priority the per-mutex owner order would depend on whether the
   second request was inserted before or after the release that freed the
   mutex — a local-time race that delivery skew resolves differently on
   different replicas. *)
let grant_eligible t =
  let actions = Substrate.actions t.sub in
  let issue rule (tid, mutex) =
    t.round_unreleased <- (tid, mutex) :: t.round_unreleased;
    Hashtbl.replace t.round_grants tid
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.round_grants tid));
    if observing t then begin
      Substrate.incr t.sub "grants";
      Substrate.audit t.sub ~tid
        ~action:
          (if Hashtbl.mem t.reacquire tid then Audit.Grant_reacquire
           else Audit.Grant_lock)
        ~mutex ~rule
        ~candidates:(List.map fst t.round_waiting)
        ()
    end;
    grant t tid
  in
  let rec go () =
    let decided =
      List.find_opt
        (fun (tid, mutex) -> actions.mutex_free_for ~tid ~mutex)
        t.round_waiting
    in
    match decided with
    | Some (tid, mutex) ->
      t.round_waiting <- List.filter (fun (w, _) -> w <> tid) t.round_waiting;
      issue Audit.Round_decided (tid, mutex);
      go ()
    | None ->
      let second =
        List.find_opt
          (fun (tid, mutex) ->
            actions.mutex_free_for ~tid ~mutex
            && not (List.exists (fun (_, m) -> m = mutex) t.round_waiting))
          t.second_waiting
      in
      (match second with
      | None -> ()
      | Some (tid, mutex) ->
        t.second_waiting <-
          List.filter (fun (w, _) -> w <> tid) t.second_waiting;
        issue Audit.Round_second (tid, mutex);
        go ())
  in
  go ()

(* --------------------------- pPDS independence ------------------------- *)

(* The closure an independent may still touch: its requested mutex plus its
   exactly-known future lock set.  Only meaningful for predicted threads. *)
let closure t ~tid ~mutex =
  match Substrate.future_mutexes t.sub ~tid with
  | Some fs -> mutex :: fs
  | None -> [ mutex ]

(* Decision-point test: may [tid] leave the round discipline?  Every input
   is deterministic here — members are stopped, no independent is alive (its
   occupied slot would have blocked the decision), and every held mutex was
   acquired through an already-ended round. *)
let independence_eligible t ~requests:_ (tid, mutex) =
  Substrate.bookkeeping t.sub <> None
  && Substrate.predicted t.sub ~tid
  && (not (Substrate.uses_condvars t.sub ~tid))
  &&
  let actions = Substrate.actions t.sub in
  let c = closure t ~tid ~mutex in
  actions.mutex_free_for ~tid ~mutex
  (* Nothing in the closure may be held (a suspended holder could only
     release after a future round — which cannot happen while the
     independent lives — a guaranteed deadlock). *)
  && List.for_all
       (fun m ->
         match actions.mutex_owner m with
         | None -> true
         | Some owner -> owner = tid)
       c
  (* No other live member may ever touch the closure.  Unpredicted members
     answer [future_may_lock] with true and veto the launch; this also
     rejects overlapping independence candidates symmetrically. *)
  && Fqueue.for_all
       (fun u ->
         u = tid
         || List.for_all
              (fun m -> not (Substrate.future_may_lock t.sub ~tid:u ~mutex:m))
              c)
       t.slots

let launch_independent t (tid, mutex) =
  Hashtbl.replace t.independent tid ();
  Hashtbl.remove t.arrived tid;
  if observing t then begin
    Substrate.incr t.sub "independent_grants";
    Substrate.audit t.sub ~tid
      ~action:
        (if Hashtbl.mem t.reacquire tid then Audit.Grant_reacquire
         else Audit.Grant_lock)
      ~mutex ~rule:Audit.Predicted_no_conflict
      ~candidates:(List.filter (fun u -> u <> tid) (Fqueue.to_list t.slots))
      ()
  end;
  grant t tid

(* An independent's later lock requests are granted on sight: its closure is
   unreachable for every other thread until it terminates. *)
let independent_lock t tid ~mutex =
  if (Substrate.actions t.sub).mutex_free_for ~tid ~mutex then begin
    if observing t then begin
      Substrate.incr t.sub "grants";
      Substrate.audit t.sub ~tid ~action:Audit.Grant_lock ~mutex
        ~rule:Audit.Predicted_no_conflict ()
    end;
    grant t tid
  end
  else Waitq.push t.indep_deferred ~mutex tid

let drain_independent t ~mutex =
  if Hashtbl.length t.independent > 0 then
    match Waitq.pop t.indep_deferred ~mutex with
    | Some tid -> independent_lock t tid ~mutex
    | None -> ()

(* ------------------------------- rounds -------------------------------- *)

let rec end_round_if_done t =
  if
    t.round_open && t.round_waiting = [] && t.second_waiting = []
    && t.round_unreleased = []
  then begin
    t.round_open <- false;
    (* Member arrivals were consumed when the round was decided; records
       that appeared while the round was open (members reaching their next
       lock, threads suspending) survive into the next round. *)
    t.round_members <- [];
    fill_slots t;
    check_round t
  end

and check_round t =
  if (not t.round_open) && not (Fqueue.is_empty t.slots) then begin
    let all_arrived =
      Fqueue.for_all
        (fun tid -> Hashtbl.mem t.arrived tid || Hashtbl.mem t.terminated tid)
        t.slots
    in
    let batch_full = occupancy t >= t.batch in
    if all_arrived && batch_full then begin
      (* Decision point: the batch is complete (possibly padded by members
         that already terminated — dummies, lock-free requests) and every
         live member is at a deterministic stop.  The decision consumes the
         terminated occupants and frees their slots. *)
      if observing t then begin
        Substrate.incr t.sub "rounds";
        Substrate.observe t.sub "occupancy" (float_of_int (occupancy t))
      end;
      t.ghost_slots <- 0;
      t.slots <-
        Fqueue.filter (fun tid -> not (Hashtbl.mem t.terminated tid)) t.slots;
      Hashtbl.reset t.terminated;
      Hashtbl.reset t.round_grants;
      let requests =
        List.filter_map
          (fun tid ->
            match Hashtbl.find_opt t.arrived tid with
            | Some (A_lock mutex) -> Some (tid, mutex)
            | Some A_suspended | None -> None)
          (Fqueue.to_list t.slots)
      in
      (* pPDS: release provably independent members from the round before it
         opens; they keep their slot (blocking the next decision) but the
         round neither orders nor awaits them. *)
      let independents, requests =
        if Substrate.bookkeeping t.sub = None then ([], requests)
        else
          List.partition (independence_eligible t ~requests) requests
      in
      List.iter (launch_independent t) independents;
      if requests = [] then fill_slots t
      else begin
        t.round_open <- true;
        t.round_members <- List.map fst requests;
        t.round_waiting <- requests;
        t.second_waiting <- [];
        List.iter (fun tid -> Hashtbl.remove t.arrived tid) t.round_members;
        grant_eligible t;
        end_round_if_done t
      end
    end
    else arm_timer t
  end

(* The batch cannot decide while slots are missing; after the timeout the
   scheduler asks for dummy messages so that all requests are eventually
   processed even if no new external messages arrive. *)
and arm_timer t =
  let missing = t.batch - occupancy t in
  let stalled_on_arrivals =
    missing > 0 && Fqueue.is_empty t.backlog && Hashtbl.length t.arrived > 0
  in
  if stalled_on_arrivals && not t.timer_armed then begin
    t.timer_armed <- true;
    (Substrate.actions t.sub).schedule ~delay:t.dummy_timeout_ms (fun () ->
        t.timer_armed <- false;
        let missing_now = t.batch - occupancy t in
        if
          (not t.round_open) && missing_now > 0
          && Fqueue.is_empty t.backlog
          && Hashtbl.length t.arrived > 0
        then begin
          t.dummies_requested <- t.dummies_requested + missing_now;
          if observing t then
            Substrate.incr t.sub ~by:missing_now "dummies";
          for _ = 1 to missing_now do
            (Substrate.actions t.sub).inject_dummy ()
          done
        end)
  end

let on_request t tid =
  ignore (Substrate.admit t.sub ~tid);
  t.backlog <- Fqueue.push t.backlog tid;
  fill_slots t;
  check_round t

(* Insert into an ascending list: the order [List.sort compare] gives. *)
let rec insert_sorted x = function
  | y :: rest when compare y x < 0 -> y :: insert_sorted x rest
  | l -> x :: l

let on_lock t tid ~syncid:_ ~mutex =
  if Hashtbl.mem t.independent tid then independent_lock t tid ~mutex
  else
    let second_in_round =
      t.round_open
      && List.exists (fun (w, _) -> w = tid) t.round_unreleased
      && Option.value ~default:0 (Hashtbl.find_opt t.round_grants tid) < 2
    in
    if second_in_round then begin
      (* The optimised variant: a member still holding its round grant may
         request one more lock within the same round (nested synchronized
         blocks would otherwise deadlock the round).  It queues behind every
         decided request for the same mutex, in tid order among seconds. *)
      t.second_waiting <- insert_sorted (tid, mutex) t.second_waiting;
      grant_eligible t;
      end_round_if_done t
    end
    else begin
      Hashtbl.replace t.arrived tid (A_lock mutex);
      if t.round_open then begin
        (* Arrived after the round was decided: wait for the next one. *)
        if observing t then begin
          Substrate.incr t.sub "deferrals";
          Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
            ~rule:Audit.Batch_wait ~candidates:t.round_members ()
        end
      end
      else begin
        check_round t;
        (* Still waiting for the batch to complete or the round to decide. *)
        if observing t && Hashtbl.mem t.arrived tid then begin
          Substrate.incr t.sub "deferrals";
          Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
            ~rule:Audit.Batch_wait ~candidates:(Fqueue.to_list t.slots) ()
        end
      end
    end

let on_wakeup t tid ~mutex =
  Hashtbl.replace t.reacquire tid ();
  Hashtbl.replace t.arrived tid (A_lock mutex);
  if not t.round_open then check_round t

let on_unlock t tid ~syncid:_ ~mutex ~freed =
  if freed then begin
    drain_independent t ~mutex;
    if t.round_open then begin
      (match
         List.find_opt (fun (w, m) -> w = tid && m = mutex) t.round_unreleased
       with
      | Some entry ->
        t.round_unreleased <-
          List.filter (fun e -> e != entry) t.round_unreleased
      | None -> ());
      grant_eligible t;
      end_round_if_done t
    end
  end

let on_wait t tid ~mutex =
  ignore mutex;
  Hashtbl.replace t.arrived tid A_suspended;
  (* The wait may have released a mutex a round member needs. *)
  if t.round_open then begin
    (* A waiting round member cannot release its round lock anymore;
       treat its grant as released if it was granted this round. *)
    t.round_unreleased <-
      List.filter (fun (w, _) -> w <> tid) t.round_unreleased;
    grant_eligible t;
    end_round_if_done t
  end
  else check_round t

let on_nested_begin t tid =
  (* A member blocked on a nested invocation must NOT count as arrived: its
     resume is triggered by the nested-reply broadcast, and treating it as a
     deterministic stop would let the round decision race against that
     delivery — fast-network replicas would decide with the member's next
     lock request included, slow ones without it.  The reply has a fixed
     position in the total order, so stalling the decision until the member
     resumes and reaches a real stop is deterministic (and cheap: replies
     need no round of their own).  Condvar waits are different: notifies are
     synchronous within member executions, which all precede the decision,
     so a parked thread's wake status at the decision is order-determined. *)
  Hashtbl.remove t.arrived tid;
  if not t.round_open then check_round t

let on_nested_reply t tid =
  (* Resume immediately: the thread free-runs to its next lock request. *)
  Hashtbl.remove t.arrived tid;
  (Substrate.actions t.sub).resume_nested tid;
  if not t.round_open then check_round t

let on_terminate t tid =
  Hashtbl.remove t.independent tid;
  Substrate.retire t.sub ~tid;
  if Fqueue.exists (fun u -> u = tid) t.slots then
    (* The slot stays occupied (and counts as arrived) until the next round
       decision — emptying it now would make the batch composition depend on
       local termination timing, which delivery skew de-synchronises across
       replicas.  Independents rely on the same rule: their occupied slot is
       what delays the next decision past their lifetime. *)
    Hashtbl.replace t.terminated tid ();
  Hashtbl.remove t.arrived tid;
  if t.round_open then begin
    t.round_unreleased <-
      List.filter (fun (w, _) -> w <> tid) t.round_unreleased;
    t.round_waiting <- List.filter (fun (w, _) -> w <> tid) t.round_waiting;
    t.second_waiting <- List.filter (fun (w, _) -> w <> tid) t.second_waiting;
    grant_eligible t;
    end_round_if_done t
  end
  else check_round t

let policy sub : Sched_iface.sched =
  let config = Substrate.config sub in
  let t =
    { sub; batch = config.Config.pds_batch;
      dummy_timeout_ms = config.Config.pds_dummy_timeout_ms;
      backlog = Fqueue.empty; slots = Fqueue.empty;
      terminated = Hashtbl.create 16; ghost_slots = 0;
      arrived = Hashtbl.create 64;
      reacquire = Hashtbl.create 16; independent = Hashtbl.create 16;
      indep_deferred = Waitq.create (); round_open = false;
      round_members = []; round_grants = Hashtbl.create 16;
      round_waiting = []; second_waiting = []; round_unreleased = [];
      timer_armed = false; dummies_requested = 0 }
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
      (fun tid ~syncid ~mutex -> Substrate.bk_lockinfo sub ~tid ~syncid ~mutex);
    on_ignore = (fun tid ~syncid -> Substrate.bk_ignore sub ~tid ~syncid);
    on_loop_enter = (fun tid ~loopid -> Substrate.bk_loop_enter sub ~tid ~loopid);
    on_loop_exit = (fun tid ~loopid -> Substrate.bk_loop_exit sub ~tid ~loopid);
    (* At donor quiescence every member left in the slots has terminated;
       their occupancy pads the next batch and must transfer, or a
       recovered replica's rounds would open at different fill levels. *)
    snapshot =
      (fun () -> [ ("occupied_slots", occupancy t) ]);
    restore =
      (fun kv ->
        List.iter
          (fun (k, v) -> if k = "occupied_slots" then t.ghost_slots <- v)
          kv) }

module Base : Decision.Serial = struct
  let name = "pds"

  let needs_prediction = false

  let policy = policy
end

module Predicted : Decision.Serial = struct
  let name = "ppds"

  let needs_prediction = true

  let policy = policy
end
