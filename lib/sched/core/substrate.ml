(* The shared scheduler substrate — the per-replica half of the paper's
   two-module architecture (section 4.3/5) that is policy-independent.

   It owns what every decision module used to hand-roll:
   - thread lifecycle: arrival-ordered registration (a monotone sequence
     number per admission), a {!Seq_index} over the live threads (no
     allocation per update, ascending iteration), O(1) tid lookup through a
     second, tid-keyed one, and thread records recycled at termination, so
     an admission allocates nothing once warmed;
   - the gate each thread is stopped at, and the one release path to the
     replica ([perform]);
   - per-mutex FIFO wait queues ({!Waitq});
   - the prediction plumbing: an optional {!Bookkeeping} instance,
     registered per request with the start method and updated from the
     injected calls, with the decision-module queries re-exported;
   - flight-recorder boilerplate: the scheduler-named audit/metric helpers.

   Decision policies ({!Decision.policy}) hold only policy state (who is
   primary, which round is open, where the token is) and consult the
   substrate for everything else. *)

open Detmt_runtime
module Recorder = Detmt_obs.Recorder
module Audit = Detmt_obs.Audit

(* The scheduler gate a thread is stopped at, [Open] when none.  [Resume]
   is a nested reply awaiting policy admission (SAT's queue, MAT's
   ex-primaries).  A constant constructor plus the [gate_mutex] field, so
   holding a thread allocates nothing. *)
type gate = Open | Lock | Reacquire | Resume

type thread = {
  mutable tid : int;
  mutable seq : int; (* admission order; re-admission gets a fresh one *)
  mutable is_primary : bool; (* MAT-family role flag *)
  mutable ex_primary : bool; (* suspended while primary; resumes as primary *)
  mutable suspended : bool;
  mutable gate : gate;
  mutable gate_mutex : int; (* the mutex of a [Lock] or [Reacquire] gate *)
  mutable released : bool; (* in the free stack: retired, not yet re-admitted *)
}

type t = {
  actions : Sched_iface.actions;
  name : string; (* the variant name, for metrics and the audit log *)
  config : Config.t;
  bookkeeping : Bookkeeping.t option;
  summary : Detmt_analysis.Predict.class_summary option;
      (* the raw §4.3 tables, for delivery-time conflict-class resolution
         (the conflict-graph family reads sync parameters straight from it) *)
  workers : int; (* pool width; 1 for every serial decision module *)
  mutable next_seq : int;
  by_tid : thread Seq_index.t; (* live threads keyed by [tid] *)
  order : thread Seq_index.t; (* live threads keyed by [seq] *)
  mutable free : thread array; (* records of terminated threads *)
  mutable nfree : int;
  waitq : Waitq.t; (* per-mutex FIFO wait queues *)
}

let create ?bookkeeping ?summary ?(workers = 1) ~name ~config
    (actions : Sched_iface.actions) =
  { actions; name; config; bookkeeping; summary; workers; next_seq = 0;
    by_tid = Seq_index.create (); order = Seq_index.create (); free = [||];
    nfree = 0; waitq = Waitq.create () }

let actions t = t.actions

let name t = t.name

let config t = t.config

let bookkeeping t = t.bookkeeping

let summary t = t.summary

let workers t = t.workers

let waitq t = t.waitq

(* ------------------------------ lifecycle ------------------------------ *)

(* Insert a thread at the tail of the admission order.  Used both for fresh
   requests and for re-admission (a pMAT waiter re-enters at the tail on its
   notification). *)
let enqueue t ~tid =
  let th =
    if t.nfree = 0 then
      { tid; seq = t.next_seq; is_primary = false; ex_primary = false;
        suspended = false; gate = Open; gate_mutex = -1; released = false }
    else begin
      t.nfree <- t.nfree - 1;
      let th = t.free.(t.nfree) in
      th.tid <- tid;
      th.seq <- t.next_seq;
      th.is_primary <- false;
      th.ex_primary <- false;
      th.suspended <- false;
      th.gate <- Open;
      th.gate_mutex <- -1;
      th.released <- false;
      th
    end
  in
  t.next_seq <- t.next_seq + 1;
  Seq_index.add t.by_tid tid th;
  Seq_index.add t.order th.seq th;
  th

(* Admission of a fresh request: registers the thread's start method with
   the bookkeeping module (when present) and enters it into the order. *)
let admit t ~tid =
  (match t.bookkeeping with
  | Some bk -> Bookkeeping.register bk ~tid ~meth:(t.actions.request_method tid)
  | None -> ());
  enqueue t ~tid

(* Leave the admission order but keep the bookkeeping table (pMAT waiters:
   the thread still exists and its prediction state must survive). *)
let remove t ~tid =
  if Seq_index.mem t.by_tid tid then begin
    Seq_index.remove t.order (Seq_index.get t.by_tid tid).seq;
    Seq_index.remove t.by_tid tid
  end

let release t th =
  if th.released then
    invalid_arg
      (Printf.sprintf "%s: thread record of t%d released twice" t.name th.tid);
  th.released <- true;
  if t.nfree = Array.length t.free then
    t.free <- Array.append t.free (Array.make (max 4 t.nfree) th);
  t.free.(t.nfree) <- th;
  t.nfree <- t.nfree + 1

(* Termination: leave the order, forget the bookkeeping table and recycle
   the record.  A policy may still read the record until its next
   admission, never after. *)
let retire t ~tid =
  if Seq_index.mem t.by_tid tid then begin
    let th = Seq_index.get t.by_tid tid in
    remove t ~tid;
    release t th
  end;
  match t.bookkeeping with
  | Some bk -> Bookkeeping.release bk ~tid
  | None -> ()

let lookup t tid =
  if Seq_index.mem t.by_tid tid then Seq_index.get t.by_tid tid
  else raise Not_found

let thread t tid =
  if Seq_index.mem t.by_tid tid then Seq_index.get t.by_tid tid
  else invalid_arg (Printf.sprintf "%s: unknown thread t%d" t.name tid)

let by_seq t seq = Seq_index.get t.order seq

(* Oldest-first views of the live threads (ascending admission order). *)

let fold t ~init ~f =
  let rec go seq acc =
    if seq < 0 then acc
    else go (Seq_index.next_above t.order seq) (f acc (by_seq t seq))
  in
  go (Seq_index.min_key t.order) init

let iter t ~f = fold t ~init:() ~f:(fun () th -> f th)

let threads t = List.rev (fold t ~init:[] ~f:(fun acc th -> th :: acc))

(* --------------------------- prediction plumbing ----------------------- *)

(* Queries degrade to the pessimistic answer without a bookkeeping module,
   matching what the pessimistic scheduler variants assumed. *)

let predicted t ~tid =
  match t.bookkeeping with
  | None -> false
  | Some bk -> Bookkeeping.predicted bk ~tid

let future_may_lock t ~tid ~mutex =
  match t.bookkeeping with
  | None -> true
  | Some bk -> Bookkeeping.future_may_lock bk ~tid ~mutex

let no_future_locks t ~tid =
  match t.bookkeeping with
  | None -> false
  | Some bk -> Bookkeeping.no_future_locks bk ~tid

let future_mutexes t ~tid =
  match t.bookkeeping with
  | None -> None
  | Some bk -> Bookkeeping.future_mutexes bk ~tid

let uses_condvars t ~tid =
  match t.bookkeeping with
  | None -> true
  | Some bk -> Bookkeeping.uses_condvars bk ~tid

(* Event forwarders, no-ops without a bookkeeping module — decision modules
   wire these into their scheduler record instead of repeating the match.
   They match on the option rather than pass a closure to [Option.iter],
   which would allocate one per event. *)

let bk_lockinfo t ~tid ~syncid ~mutex =
  match t.bookkeeping with
  | Some bk -> Bookkeeping.on_lockinfo bk ~tid ~syncid ~mutex
  | None -> ()

let bk_ignore t ~tid ~syncid =
  match t.bookkeeping with
  | Some bk -> Bookkeeping.on_ignore bk ~tid ~syncid
  | None -> ()

let bk_acquired t ~tid ~syncid ~mutex =
  match t.bookkeeping with
  | Some bk -> Bookkeeping.on_acquired bk ~tid ~syncid ~mutex
  | None -> ()

let bk_loop_enter t ~tid ~loopid =
  match t.bookkeeping with
  | Some bk -> Bookkeeping.on_loop_enter bk ~tid ~loopid
  | None -> ()

let bk_loop_exit t ~tid ~loopid =
  match t.bookkeeping with
  | Some bk -> Bookkeeping.on_loop_exit bk ~tid ~loopid
  | None -> ()

(* ----------------------------- observability --------------------------- *)

let observing t = Recorder.enabled t.actions.obs

let metric t suffix = "sched." ^ t.name ^ "." ^ suffix

let incr ?by t suffix = Recorder.incr ?by t.actions.obs (metric t suffix)

let observe t suffix v = Recorder.observe t.actions.obs (metric t suffix) v

let audit t ~tid ~action ?mutex ~rule ?candidates () =
  Recorder.decision t.actions.obs ~at:(t.actions.now ())
    ~replica:t.actions.replica_id ~scheduler:t.name ~tid ~action ?mutex ~rule
    ?candidates ()

(* ------------------------------- grants -------------------------------- *)

let hold th gate ~mutex =
  th.gate <- gate;
  th.gate_mutex <- mutex

let grant_action th =
  match th.gate with
  | Reacquire -> Audit.Grant_reacquire
  | Resume -> Audit.Resume_nested
  | Lock | Open -> Audit.Grant_lock

(* Every release a decision module performs flows through here — the only
   caller of [actions.proceed] — so this is the one place the profiler's
   Grant phase is timed.  The caller has decided the release; audit
   emission stays with it (rules differ per policy).  Releases can cascade
   (the resumed interpreter reports its next operation, which may be
   released again synchronously); the profiler times the outermost
   activation only. *)
let perform t th =
  th.gate <- Open;
  match Recorder.profiler t.actions.obs with
  | None -> t.actions.proceed th.tid
  | Some p ->
    Detmt_obs.Profile.phase_begin p Detmt_obs.Profile.Grant;
    t.actions.proceed th.tid;
    Detmt_obs.Profile.phase_end p Detmt_obs.Profile.Grant

module Testing = struct
  let release = release
end
