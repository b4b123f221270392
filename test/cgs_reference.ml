(* The scan-based conflict-graph decision module, kept as a test-only
   reference.

   This is the pre-index implementation of {!Detmt_sched.Cgs}: every
   decision walks the substrate's live threads in slot order, carrying the
   pend prefix and the speculation flags along, and [drain] restarts the
   walk after each decision it performs.  It is linear in the number of live
   requests per decision but states the dispatch, reacquire and commit
   rules directly, which makes it the oracle for the indexed implementation:
   [test_properties.ml] drives both through [Replica.create ~make_sched] at
   the same pool width and requires identical decision logs, replies,
   states and per-mutex acquisition orders for cgs, pcgs, wss and cgs+ws. *)

open Detmt_runtime
open Detmt_sched
module Audit = Detmt_obs.Audit
module Predict = Detmt_analysis.Predict
module Iset = Set.Make (Int)

type cls = Top | Mutexes of Iset.t

(* Which requests execute speculatively inside a copy-on-write workspace:
   none (cgs/pcgs), only [Top]-class ones (cgs+ws — the safety net for
   mispredictions), or every condvar-free one (wss). *)
type spec_mode = No_spec | Spec_top | Spec_all

(* Waiting: delivered, not yet dispatched.  Running: on a pool worker
   (nested invocations keep the worker).  Parked: condvar wait on the
   monitor, worker released.  Woken: notified, needs the monitor back.
   Spec: executing against a workspace on a pool worker.  Spec_ready:
   speculation finished, worker released, workspace held for the
   slot-order commit barrier.  Committing: workspace merged, reply build
   in progress until the ordinary terminate. *)
type phase =
  | Waiting
  | Running
  | Parked of int
  | Woken of int
  | Spec
  | Spec_ready
  | Committing

type node = {
  tid : int;
  cls : cls; (* static conflict class, fixed at delivery *)
  mutable spec : bool; (* destined for workspace execution; cleared when an
                          abort forces the retry onto the direct path *)
  mutable phase : phase;
  mutable held : Iset.t; (* mutexes currently held *)
  mutable contrib : cls option; (* blockset registered in the graph *)
}

type t = {
  sub : Substrate.t;
  pool : Decision.Pool.t;
  workers : (int, int) Hashtbl.t; (* running tid -> its pool worker *)
  early : bool; (* pcgs: prediction-shrunk in-flight blocksets *)
  spec : spec_mode;
  record_acq : bool; (* replay virtual acquisitions into the fingerprint at
                        commit (wss differentially matches SEQ) *)
  nodes : (int, node) Hashtbl.t;
  (* The conflict graph's edge information, kept as a multiset: how many
     in-flight nodes block each mutex, plus the count of opaque ([Top])
     and total contributors.  Eligibility tests are O(|class|). *)
  counts : (int, int) Hashtbl.t;
  mutable top_count : int;
  mutable inflight : int;
  mutable woken : int; (* nodes in [Woken] phase, for the scan fast path *)
  mutable ready : int; (* nodes in [Spec_ready] phase, same purpose *)
  mutable scanning : bool; (* re-entrancy guard for the grant cascade *)
  mutable again : bool;
}

(* --------------------------- class resolution -------------------------- *)

let classify t ~tid =
  let a = Substrate.actions t.sub in
  match Substrate.summary t.sub with
  | None -> Top
  | Some summary ->
    (match Predict.find_method summary (a.request_method tid) with
    | None -> Top
    | Some ms when ms.Predict.fallback -> Top
    | Some ms ->
      let resolve acc (si : Predict.sid_info) =
        match acc with
        | None -> None
        | Some s ->
          (match si.Predict.param with
          | Detmt_lang.Ast.Sp_this -> Some (Iset.add (a.self_mutex ()) s)
          | Detmt_lang.Ast.Sp_arg i ->
            (match a.request_mutex_arg ~tid i with
            | -1 -> None
            | m -> Some (Iset.add m s))
          | _ -> None)
      in
      (match List.fold_left resolve (Some Iset.empty) ms.Predict.sids with
      | Some s -> Mutexes s
      | None -> Top))

(* --------------------------- graph bookkeeping ------------------------- *)

(* The pool keeps no tid -> worker map; the walk keeps its own. *)
let dispatch t ~tid =
  if Hashtbl.mem t.workers tid then
    invalid_arg (Printf.sprintf "cgs reference: t%d already on a worker" tid);
  let w = Decision.Pool.dispatch t.pool ~tid in
  Hashtbl.replace t.workers tid w;
  w

let complete t ~tid =
  match Hashtbl.find_opt t.workers tid with
  | None -> ()
  | Some worker ->
    Hashtbl.remove t.workers tid;
    Decision.Pool.complete t.pool ~worker ~tid

let count t m = Option.value ~default:0 (Hashtbl.find_opt t.counts m)

let add_contrib t = function
  | Top ->
    t.top_count <- t.top_count + 1;
    t.inflight <- t.inflight + 1
  | Mutexes s ->
    Iset.iter (fun m -> Hashtbl.replace t.counts m (count t m + 1)) s;
    t.inflight <- t.inflight + 1

let remove_contrib t = function
  | Top ->
    t.top_count <- t.top_count - 1;
    t.inflight <- t.inflight - 1
  | Mutexes s ->
    Iset.iter
      (fun m ->
        match count t m - 1 with
        | 0 -> Hashtbl.remove t.counts m
        | c -> Hashtbl.replace t.counts m c)
      s;
    t.inflight <- t.inflight - 1

(* The blockset an in-flight node imposes on the rest of the graph. *)
let blockset t n =
  match n.phase with
  | Waiting -> None
  | Running ->
    Some
      (match n.cls with
      | Top -> Top
      | Mutexes s ->
        if
          t.early
          && (not (Substrate.uses_condvars t.sub ~tid:n.tid))
          && Substrate.predicted t.sub ~tid:n.tid
        then
          match Substrate.future_mutexes t.sub ~tid:n.tid with
          | Some fut ->
            Mutexes (Iset.union n.held (Iset.of_list fut)) (* early release *)
          | None -> Mutexes (Iset.union s n.held)
        else Mutexes (Iset.union s n.held))
  | Parked m ->
    (* The condvar hole: stop blocking the parked monitor so the future
       notifier can dispatch; keep blocking the rest of the class. *)
    Some
      (match n.cls with
      | Top -> Top
      | Mutexes s -> Mutexes (Iset.union n.held (Iset.remove m s)))
  | Woken _ ->
    Some
      (match n.cls with
      | Top -> Top
      | Mutexes s -> Mutexes (Iset.union n.held s))
  | Spec | Spec_ready | Committing ->
    (* Speculations never touch committed state or real mutexes before
       their commit barrier, so they impose nothing on the graph; the
       scan's [spec_seen] rule is what holds younger direct starts back. *)
    None

(* Recompute and re-register a node's blockset; [true] when it changed. *)
let refresh t n =
  let next = blockset t n in
  if next = n.contrib then false
  else begin
    Option.iter (remove_contrib t) n.contrib;
    Option.iter (add_contrib t) next;
    n.contrib <- next;
    true
  end

let node t tid =
  match Hashtbl.find_opt t.nodes tid with
  | Some n -> n
  | None ->
    invalid_arg
      (Printf.sprintf "%s: unknown node t%d" (Substrate.name t.sub) tid)

(* ------------------------------- the scan ------------------------------ *)

type decision =
  | Start of node
  | Reacquire of node * int
  | Start_spec of node
  | Commit of node

exception Decide of decision

(* One slot-ordered pass over the live nodes.  [pend] accumulates the
   classes of older undispatched waiters (the FIFO-per-class rule: an
   undispatched request blocks every younger class-sharer, which pins the
   per-mutex acquisition order to the slot order).  Woken nodes are checked
   against the in-flight graph minus their own contribution; they skip the
   pend prefix (their class is disjoint from every older pending class by
   the dispatch invariant) and the capacity check (rule 3 above).

   Two more slot-ordered flags carry the workspace rules: [spec_seen] — an
   older uncommitted speculation has been passed, so no younger node may
   start directly or reacquire (its committed-state writes would have
   nothing validating them against the older slot); and [blocking_older] —
   some older non-parked node is still live, so a [Spec_ready] node is not
   yet at its commit barrier.  Parked elders set neither: a parked
   request's continuation runs after younger slots in SEQ too. *)
exception No_decision

(* The short-circuits below never change which decision a full pass would
   return — they only skip passes (or suffixes) that provably return
   [None], which is what keeps the scan off the O(live-requests) path for
   every event fired while the pool is saturated.  Start needs a free
   worker; Reacquire needs a [Woken] node; Commit needs a [Spec_ready]
   node; and once an opaque waiter has been passed over, no younger
   Waiting node can start either (only valid with speculation off:
   speculative dispatches ignore the pend prefix). *)
let find_decision t =
  let can_start = not (Decision.Pool.saturated t.pool) in
  if (not can_start) && t.woken = 0 && t.ready = 0 then None
  else begin
  let woken_unseen = ref t.woken in
  let pend = ref Iset.empty and pend_top = ref false and pend_n = ref 0 in
  let spec_seen = ref false and blocking_older = ref false in
  let glob_conflict = function
    | Top -> t.inflight > 0
    | Mutexes s -> t.top_count > 0 || Iset.exists (fun m -> count t m > 0) s
  in
  let pend_conflict = function
    | Top -> !pend_n > 0
    | Mutexes s -> !pend_top || Iset.exists (fun m -> Iset.mem m !pend) s
  in
  let add_pend = function
    | Top ->
      pend_top := true;
      incr pend_n
    | Mutexes s ->
      pend := Iset.union !pend s;
      incr pend_n
  in
  let visit (th : Substrate.thread) =
    match Hashtbl.find_opt t.nodes th.tid with
    | None -> ()
    | Some n ->
      (match n.phase with
      | Running -> blocking_older := true
      | Parked _ -> ()
      | Committing -> blocking_older := true
      | Spec ->
        blocking_older := true;
        spec_seen := true
      | Spec_ready ->
        if not !blocking_older then raise (Decide (Commit n));
        blocking_older := true;
        spec_seen := true
      | Waiting when n.spec ->
        if can_start then raise (Decide (Start_spec n));
        blocking_older := true;
        spec_seen := true
      | Waiting ->
        if
          can_start
          && (not !spec_seen)
          && (not !pend_top)
          && (not (glob_conflict n.cls))
          && not (pend_conflict n.cls)
        then raise (Decide (Start n))
        else begin
          blocking_older := true;
          add_pend n.cls;
          if !pend_top && !woken_unseen = 0 && t.spec = No_spec then
            raise No_decision
        end
      | Woken m ->
        decr woken_unseen;
        let eligible =
          (not !spec_seen)
          && (Substrate.actions t.sub).mutex_free_for ~tid:n.tid ~mutex:m
          &&
          match n.cls with
          | Top -> t.inflight <= 1 (* only its own contribution *)
          | Mutexes s ->
            let need = Iset.union n.held s in
            let own =
              match n.contrib with Some (Mutexes o) -> o | _ -> Iset.empty
            in
            t.top_count = 0
            && not
                 (Iset.exists
                    (fun m' ->
                      count t m' > (if Iset.mem m' own then 1 else 0))
                    need)
        in
        if eligible then raise (Decide (Reacquire (n, m)));
        blocking_older := true)
  in
  match Substrate.iter t.sub ~f:visit with
  | () -> None
  | exception No_decision -> None
  | exception Decide d -> Some d
  end

let perform t = function
  | Start n ->
    n.phase <- Running;
    ignore (refresh t n);
    let w = dispatch t ~tid:n.tid in
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "dispatches";
      Substrate.observe t.sub "pool_busy"
        (float_of_int (Decision.Pool.busy t.pool));
      Substrate.audit t.sub ~tid:n.tid ~action:Audit.Start_thread
        ~rule:Audit.Predicted_no_conflict
        ~candidates:[ w ] ()
    end;
    (Substrate.actions t.sub).start_thread n.tid
  | Start_spec n ->
    n.phase <- Spec;
    let w = dispatch t ~tid:n.tid in
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "spec_dispatches";
      Substrate.observe t.sub "pool_busy"
        (float_of_int (Decision.Pool.busy t.pool));
      Substrate.audit t.sub ~tid:n.tid ~action:Audit.Start_thread
        ~rule:Audit.Speculative ~candidates:[ w ] ()
    end;
    let a = Substrate.actions t.sub in
    a.ws_begin ~tid:n.tid ~record_acquisitions:t.record_acq;
    a.start_thread n.tid
  | Commit n ->
    n.phase <- Committing;
    t.ready <- t.ready - 1;
    if (Substrate.actions t.sub).ws_commit ~tid:n.tid then begin
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "ws_commits";
        Substrate.audit t.sub ~tid:n.tid ~action:Audit.Commit_ws
          ~rule:Audit.Slot_barrier ()
      end
    end
    else begin
      (* Stale reads: the workspace was discarded and the thread reset.
         Retry directly — the node sits at its own barrier (nothing older
         is live except parked elders), so the very next scan starts it
         against the committed state it just validated against. *)
      n.spec <- false;
      n.phase <- Waiting;
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "ws_aborts";
        Substrate.audit t.sub ~tid:n.tid ~action:Audit.Abort_ws
          ~rule:Audit.Stale_read ()
      end
    end
  | Reacquire (n, m) ->
    n.phase <- Running;
    t.woken <- t.woken - 1;
    ignore (refresh t n);
    ignore (dispatch t ~tid:n.tid);
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "grants";
      if Decision.Pool.saturated t.pool then
        Substrate.incr t.sub "oversubscribed";
      Substrate.audit t.sub ~tid:n.tid ~action:Audit.Grant_reacquire
        ~mutex:m ~rule:Audit.Fifo_head ()
    end;
    Substrate.perform t.sub (Substrate.thread t.sub n.tid)

(* Grants cascade synchronously (a dispatch runs interpreter steps that may
   terminate the thread and re-enter the scheduler), so the scan must not
   iterate across its own mutations: find one decision, perform it, rescan
   from the top.  The [scanning] guard turns re-entrant rescans into a
   pending [again] bit drained by the outer activation. *)
let rec drain t =
  match find_decision t with
  | None -> ()
  | Some d ->
    perform t d;
    drain t

and rescan t =
  if t.scanning then t.again <- true
  else begin
    t.scanning <- true;
    let rec loop () =
      t.again <- false;
      drain t;
      if t.again then loop ()
    in
    loop ();
    t.scanning <- false
  end

(* ------------------------------ callbacks ------------------------------ *)

let on_request t tid =
  ignore (Substrate.admit t.sub ~tid);
  let cls = classify t ~tid in
  (* Speculation eligibility is fixed at delivery: condvar-capable methods
     (including every fallback/unknown one — the bookkeeping reports those
     pessimistically) take the direct path, so wait/notify only ever reach
     a workspace through a prediction bug, where the replica aborts them. *)
  let spec =
    (match t.spec with
    | No_spec -> false
    | Spec_top -> cls = Top
    | Spec_all -> true)
    && not (Substrate.uses_condvars t.sub ~tid)
  in
  let n = { tid; cls; spec; phase = Waiting; held = Iset.empty;
            contrib = None }
  in
  Hashtbl.replace t.nodes tid n;
  rescan t;
  if n.phase = Waiting && Substrate.observing t.sub then begin
    Substrate.incr t.sub "deferrals";
    Substrate.audit t.sub ~tid ~action:Audit.Defer ~rule:Audit.Queue_wait ()
  end

(* Within one request the class owns its mutexes, so a lock is granted the
   moment it is requested.  The queue below is defensive only: it preserves
   per-mutex FIFO order if an unforeseen overlap ever materialises, rather
   than crashing the replica with a grant on a held mutex. *)
let on_lock t tid ~syncid:_ ~mutex =
  let th = Substrate.thread t.sub tid in
  Substrate.hold th Lock ~mutex;
  if (Substrate.actions t.sub).mutex_free_for ~tid ~mutex then begin
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "grants";
      Substrate.audit t.sub ~tid ~action:Audit.Grant_lock ~mutex
        ~rule:Audit.Mutex_free ()
    end;
    Substrate.perform t.sub th
  end
  else begin
    Waitq.push (Substrate.waitq t.sub) ~mutex tid;
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "deferrals";
      Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
        ~rule:Audit.Mutex_held
        ~candidates:
          (Option.to_list ((Substrate.actions t.sub).mutex_owner mutex))
        ()
    end
  end

let service_waitq t ~mutex =
  let a = Substrate.actions t.sub in
  match Waitq.head (Substrate.waitq t.sub) ~mutex with
  | Some tid when a.mutex_free_for ~tid ~mutex ->
    ignore (Waitq.pop (Substrate.waitq t.sub) ~mutex);
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "grants";
      Substrate.audit t.sub ~tid ~action:Audit.Grant_lock ~mutex
        ~rule:Audit.Fifo_head ()
    end;
    Substrate.perform t.sub (Substrate.thread t.sub tid)
  | _ -> ()

let on_acquired t tid ~syncid ~mutex =
  Substrate.bk_acquired t.sub ~tid ~syncid ~mutex;
  let n = node t tid in
  n.held <- Iset.add mutex n.held;
  if refresh t n then rescan t

let on_unlock t tid ~syncid:_ ~mutex ~freed =
  if freed then begin
    let n = node t tid in
    n.held <- Iset.remove mutex n.held;
    ignore (refresh t n);
    rescan t;
    service_waitq t ~mutex
  end

let on_wait t tid ~mutex =
  (* The wait released the monitor; the worker goes back to the pool. *)
  let n = node t tid in
  n.held <- Iset.remove mutex n.held;
  n.phase <- Parked mutex;
  ignore (refresh t n);
  complete t ~tid;
  if Substrate.observing t.sub then Substrate.incr t.sub "parks";
  rescan t;
  service_waitq t ~mutex

let on_wakeup t tid ~mutex =
  let n = node t tid in
  n.phase <- Woken mutex;
  t.woken <- t.woken + 1;
  ignore (refresh t n);
  Substrate.hold (Substrate.thread t.sub tid) Reacquire ~mutex;
  rescan t

let on_reacquired t tid ~mutex =
  let n = node t tid in
  n.held <- Iset.add mutex n.held;
  ignore (refresh t n)

let on_nested_reply t tid =
  (* The thread kept its worker across the nested invocation: resume. *)
  Substrate.perform t.sub (Substrate.thread t.sub tid)

let on_ws_event t tid ev =
  let n = node t tid in
  (match (ev : Sched_iface.ws_event) with
  | Ws_ready ->
    (* Speculation done; hold the workspace for the commit barrier but
       give the worker back so younger speculations can run. *)
    n.phase <- Spec_ready;
    t.ready <- t.ready + 1
  | Ws_unsafe ->
    (* The replica discarded the workspace (wait/notify/nested mid-
       speculation) and reset the thread; retry on the direct path under
       the ordinary graph rules. *)
    n.spec <- false;
    n.phase <- Waiting;
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "ws_aborts";
      Substrate.audit t.sub ~tid ~action:Audit.Abort_ws ~rule:Audit.Unsafe_op
        ()
    end);
  complete t ~tid;
  rescan t

let on_terminate t tid =
  (match Hashtbl.find_opt t.nodes tid with
  | None -> ()
  | Some n ->
    Option.iter (remove_contrib t) n.contrib;
    n.contrib <- None;
    Hashtbl.remove t.nodes tid);
  complete t ~tid;
  Substrate.retire t.sub ~tid;
  if Substrate.observing t.sub then Substrate.incr t.sub "commits";
  rescan t

let policy ?(spec = No_spec) ?(record_acq = false) ~early sub pool :
    Sched_iface.sched =
  let t =
    { sub; pool; workers = Hashtbl.create 16; early; spec; record_acq;
      nodes = Hashtbl.create 64;
      counts = Hashtbl.create 64; top_count = 0; inflight = 0; woken = 0;
      ready = 0; scanning = false; again = false }
  in
  let base =
    Sched_iface.no_op_sched ~name:(Substrate.name sub)
      ~on_request:(on_request t) ~on_lock:(on_lock t)
      ~on_wakeup:(on_wakeup t) ~on_nested_reply:(on_nested_reply t)
  in
  { base with
    on_ws_event = (fun tid ev -> on_ws_event t tid ev);
    on_acquired =
      (fun tid ~syncid ~mutex -> on_acquired t tid ~syncid ~mutex);
    on_unlock =
      (fun tid ~syncid ~mutex ~freed -> on_unlock t tid ~syncid ~mutex ~freed);
    on_wait = (fun tid ~mutex -> on_wait t tid ~mutex);
    on_reacquired = (fun tid ~mutex -> on_reacquired t tid ~mutex);
    on_terminate = on_terminate t;
    on_lockinfo =
      (fun tid ~syncid ~mutex ->
        Substrate.bk_lockinfo sub ~tid ~syncid ~mutex;
        if refresh t (node t tid) then rescan t);
    on_ignore =
      (fun tid ~syncid ->
        Substrate.bk_ignore sub ~tid ~syncid;
        if refresh t (node t tid) then rescan t);
    on_loop_enter =
      (fun tid ~loopid ->
        Substrate.bk_loop_enter sub ~tid ~loopid;
        if refresh t (node t tid) then rescan t);
    on_loop_exit =
      (fun tid ~loopid ->
        Substrate.bk_loop_exit sub ~tid ~loopid;
        if refresh t (node t tid) then rescan t) }

let cgs sub pool = policy ~early:false sub pool

let pcgs sub pool = policy ~early:true sub pool

let wss sub pool = policy ~spec:Spec_all ~record_acq:true ~early:false sub pool

let safety_net sub pool = policy ~spec:Spec_top ~early:false sub pool
