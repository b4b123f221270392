(* CGS — conflict-graph scheduling (parallel state-machine replication,
   "early scheduling" after Alchieri, Dotti and Pedone).

   The paper's five schedulers serialise lock acquisitions through a token
   (SAT's active thread, MAT's primary, PDS's rounds).  CGS instead decides
   {e at delivery time}: every request is assigned a conflict class — the
   set of mutexes its execution may acquire, resolved from the §4.3
   prediction summary against the request's own arguments — and the live
   requests form a conflict graph keyed by total-order slot.  Requests whose
   classes are disjoint from every older live request are dispatched
   concurrently onto a pool of [Sched_config.workers] simulated workers;
   requests that conflict wait until the conflicting predecessors commit
   (terminate).  Completions therefore retire in per-mutex slot order — the
   deterministic commit barrier — which makes reply tables, object states
   and per-mutex acquisition fingerprints independent of the worker count
   and of delivery timing skew across replicas.

   Class resolution, per start method of the summary:
   - [Sp_this]   -> the object monitor ([actions.self_mutex]);
   - [Sp_arg i]  -> the request's [i]-th argument when it is a mutex value
                    ([actions.request_mutex_arg]);
   - anything else (locals, fields, globals, call results, fallback or
     unknown methods) -> [Top], the opaque class that conflicts with
     everything, so unresolvable requests serialise exactly like SEQ.

   Determinism argument (the invariants DESIGN.md spells out):
   1. Two live requests whose classes share a mutex are never in flight
      together, except through the condvar hole below; among waiters the
      dispatch is slot-ordered FIFO, so the per-mutex acquisition order is
      the slot-order projection — a function of the total order only.
   2. A parked waiter (condvar wait on monitor [m]) releases its worker and
      stops blocking [m] — the hole that lets its future notifier run —
      but keeps blocking the rest of its class.
   3. A woken waiter re-acquires as soon as its monitor is free and no
      other live class member is in flight; it resumes on a transient
      oversubscribed worker, so wakeup order is a function of the
      per-mutex event order only, never of pool occupancy (which varies
      with delivery timing across replicas).
   4. Within one request, lock grants are immediate (its class owns its
      mutexes while it runs), so the intra-request order is program order.

   The {!pcgs} variant additionally shrinks a running request's
   in-flight blockset to [held ∪ future_mutexes] once the bookkeeping
   module proves the prediction exact — early release, Figure 2 style — so
   successors can start before the predecessor terminates.  Threads whose
   method may touch condition variables keep the static class (the pPDS
   exclusion rule: waits and notifies re-enter the grant machinery at
   timing-dependent points).

   Known limitation, documented like SEQ's wait deadlock: a [Top]-class
   request that executes a condvar wait keeps blocking everything while
   parked, so its notifier can never run.  Every condvar workload in the
   tree resolves its monitor ([Sp_this]), which keeps the hole open.

   Workspace speculation (the {!wss} and {!safety_net} variants).
   Instead of waiting for the graph to clear, a speculation-eligible request
   is dispatched immediately against a copy-on-write workspace
   ({!Detmt_runtime.Workspace}): reads page committed values in, writes stay
   in a private overlay, lock acquisitions are virtual.  When the
   speculation finishes it parks in [Spec_ready] (worker released) until its
   slot-order commit barrier — every older live request terminated or
   condvar-parked — where the workspace is validated value-by-value against
   the committed state and either merged ([ws_commit] true) or discarded and
   re-executed directly at the barrier.  Because the barrier admits exactly
   the slot-serial prefix, the commit-or-abort verdict and the re-execution
   are functions of the total order alone: replicas may disagree on abort
   {e counts} (torn reads depend on worker timing) but never on replies,
   states or per-mutex acquisition order.  Dispatch rules that keep this
   true:

   - a speculative dispatch needs only a free worker — it ignores the
     conflict graph and the pend prefix (validation subsumes them);
   - no younger request may start {e directly} (and no woken waiter may
     reacquire) while an older speculation is live — a direct execution
     writes committed state with nothing to validate it against, so it must
     stay behind every older uncommitted slot;
   - commits happen only at the head: one [Spec_ready] node commits per
     decision, and only when no older non-parked node is live.
     Condvar-parked elders do not block the barrier — in SEQ a parked
     request's continuation also runs after younger slots complete.

   Requests whose method may touch condition variables never speculate
   (wait/notify cannot be virtualised; hitting one anyway aborts the
   speculation defensively), and fallback/unknown methods are classified
   condvar-capable by the bookkeeping, so only statically analysed methods
   enter a workspace.  Mirror of the [Top]+wait limitation above: in a
   workload mixing condvar methods with speculation, a parked waiter whose
   notifier is younger than a live speculation delays that notifier until
   the speculation commits — safe, merely slower; no in-tree workload mixes
   the two.

   [wss] ({!wss}) speculates {e every} condvar-free request and
   replays the virtual acquisition log into the real acquisition
   fingerprints at commit, so its per-mutex order is the slot-order
   projection — differentially equal to SEQ.  [cgs+ws] ({!safety_net})
   keeps the conflict graph for resolvable classes and speculates only
   [Top]-class requests (the ones plain CGS would serialise), leaving
   acquisition fingerprints to the direct executions — differentially equal
   to CGS whenever predictions resolve every class.

   Cost.  Each decision is the least-slot live request that meets its
   kind's rule, the request a slot-ordered walk over the live set would
   stop at.  Instead of walking, the module keeps seq-keyed {!Seq_index}
   sets updated at every phase transition (see "decision indexes" and
   "decisions" below), so a decision costs a few set minima plus short
   scans of the pend-free waiters (at most one per mutex) and the woken
   ones, independent of how many requests queue behind them.  Nothing on
   the request path allocates once warmed: a class is [Top] or a sorted
   int array, resolved at delivery through a per-method plan of argument
   positions; held mutexes and the registered blockset are small sorted
   arrays on the node, with a kind code in place of an option; the graph's
   per-mutex counts keep their zero entries; a decision is a seq, not a
   variant; the index updates and the grant cascade are loops, not
   closures; and node records (with their arrays) and pool workers are
   recycled.  The walk survives as the test oracle
   [test/cgs_reference.ml]. *)

open Detmt_runtime
module Audit = Detmt_obs.Audit
module Predict = Detmt_analysis.Predict
module Slot_map = Detmt_sim.Slot_map

(* ---------------------------- small mutex sets -------------------------- *)

(* A set of mutexes: the sorted prefix of a growable int array.  Classes,
   held sets and blocksets have a handful of members, so membership is a
   scan and insertion a shift.  A set grows its buffer only past its
   largest size so far, so a warmed set allocates nothing. *)
module Mset = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let clear s = s.n <- 0

  let rec index s x i =
    if i >= s.n then -1
    else
      let y = s.a.(i) in
      if y = x then i else if y > x then -1 else index s x (i + 1)

  let mem s x = index s x 0 >= 0

  let reserve s n =
    if n > Array.length s.a then begin
      let a = Array.make (max n (2 * Array.length s.a)) 0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end

  let add s x =
    if not (mem s x) then begin
      reserve s (s.n + 1);
      let i = ref s.n in
      while !i > 0 && s.a.(!i - 1) > x do
        s.a.(!i) <- s.a.(!i - 1);
        decr i
      done;
      s.a.(!i) <- x;
      s.n <- s.n + 1
    end

  let remove s x =
    match index s x 0 with
    | -1 -> ()
    | i ->
      Array.blit s.a (i + 1) s.a i (s.n - i - 1);
      s.n <- s.n - 1

  let copy ~into s =
    reserve into s.n;
    Array.blit s.a 0 into.a 0 s.n;
    into.n <- s.n

  (* [into] := [into] ∪ [s] *)
  let union ~into s =
    for i = 0 to s.n - 1 do
      add into s.a.(i)
    done

  let rec equal_from x y i =
    i >= x.n || (x.a.(i) = y.a.(i) && equal_from x y (i + 1))

  let equal x y = x.n = y.n && equal_from x y 0
end

(* Which requests execute speculatively inside a copy-on-write workspace:
   none (cgs/pcgs), only [Top]-class ones (cgs+ws — the safety net for
   mispredictions), or every condvar-free one (wss). *)
type spec_mode = No_spec | Spec_top | Spec_all

(* Waiting: delivered, not yet dispatched.  Running: on a pool worker
   (nested invocations keep the worker).  Parked: condvar wait on the
   node's [monitor], worker released.  Woken: notified, needs the monitor
   back.  Spec: executing against a workspace on a pool worker.
   Spec_ready: speculation finished, worker released, workspace held for
   the slot-order commit barrier.  Committing: workspace merged, reply
   build in progress until the ordinary terminate. *)
type phase = Waiting | Running | Parked | Woken | Spec | Spec_ready | Committing

(* The kind of a blockset: none (not in flight), [Top] (everything), or the
   members of a set. *)
let bs_none = 0

let bs_top = 1

let bs_set = 2

(* A live request.  Records are recycled at termination, arrays included:
   every field is reset at delivery. *)
type node = {
  mutable tid : int; (* -1 once recycled *)
  mutable seq : int; (* admission order: the key of every decision index *)
  mutable top : bool; (* the opaque class, conflicting with everything *)
  cls : Mset.t; (* the static conflict class, fixed at delivery; empty for
                   [Top] *)
  mutable spec : bool; (* destined for workspace execution; cleared when an
                          abort forces the retry onto the direct path *)
  mutable phase : phase;
  mutable monitor : int; (* of a Parked or Woken node *)
  held : Mset.t; (* mutexes currently held *)
  mutable reg : int; (* the kind of the blockset registered in the graph *)
  reg_set : Mset.t; (* its members, for [bs_set] *)
  mutable worker : int; (* the pool worker running it, or -1 *)
}

(* How a start method's class resolves: [Top] for every request, or the
   sync parameters in summary order, [-1] for [this] and [i] for argument
   [i]. *)
type plan = Opaque | Params of int array

type t = {
  sub : Substrate.t;
  pool : Decision.Pool.t;
  early : bool; (* pcgs: prediction-shrunk in-flight blocksets *)
  spec : spec_mode;
  record_acq : bool; (* replay virtual acquisitions into the fingerprint at
                        commit (wss differentially matches SEQ) *)
  plans : (string, plan) Hashtbl.t; (* by start method, built on first use *)
  nodes : node Seq_index.t; (* live nodes by tid *)
  by_seq : node Seq_index.t;
  mutable free : node array; (* recycled nodes *)
  mutable nfree : int;
  next : Mset.t; (* scratch: a recomputed blockset *)
  (* The conflict graph's edge information, kept as a multiset: how many
     in-flight nodes block each mutex (an entry stays at zero once made),
     plus the count of opaque ([Top]) and total contributors.  Eligibility
     tests are O(|class|). *)
  mutexes : Slot_map.t;
      (* the replica's mutex slots, which key [counts] and [queues] *)
  mutable counts : int array; (* per mutex slot *)
  mutable top_count : int;
  mutable inflight : int;
  (* The decision indexes: sets of [seq]s kept in step with the phase
     transitions (see [reindex]). *)
  unparked : unit Seq_index.t; (* every node not condvar-parked *)
  specs : unit Seq_index.t; (* Spec, Spec_ready, Waiting speculations *)
  spec_waiting : unit Seq_index.t; (* Waiting speculations *)
  woken : unit Seq_index.t; (* Woken nodes *)
  tops : unit Seq_index.t; (* Waiting direct nodes of class [Top] *)
  mutable queues : unit Seq_index.t array;
      (* per mutex slot: the Waiting direct nodes whose class holds it,
         [unused] until the first; an emptied queue is kept for reuse *)
  heads : unit Seq_index.t;
      (* the pend-free Waiting direct [Mutexes] nodes: those at the head of
         every queue of their class (an empty class is always pend-free) *)
  mutable scanning : bool; (* re-entrancy guard for the grant cascade *)
  mutable again : bool;
}

(* --------------------------- class resolution -------------------------- *)

let plan_of summary meth =
  match Predict.find_method summary meth with
  | None -> Opaque
  | Some ms when ms.Predict.fallback -> Opaque
  | Some ms -> (
    let param (si : Predict.sid_info) =
      match si.Predict.param with
      | Detmt_lang.Ast.Sp_this -> -1
      | Detmt_lang.Ast.Sp_arg i when i >= 0 -> i
      | _ -> raise Exit
    in
    match List.map param ms.Predict.sids with
    | ps -> Params (Array.of_list ps)
    | exception Exit -> Opaque)

let plan t summary meth =
  match Hashtbl.find t.plans meth with
  | p -> p
  | exception Not_found ->
    let p = plan_of summary meth in
    Hashtbl.replace t.plans meth p;
    p

(* The class, into [n.top] and [n.cls]: [Top] unless every sync parameter
   of the start method resolves, [this] to the object monitor and an
   argument to the mutex it names. *)
let rec resolve (a : Sched_iface.actions) n ps i =
  if i < Array.length ps then
    match ps.(i) with
    | -1 ->
      Mset.add n.cls (a.self_mutex ());
      resolve a n ps (i + 1)
    | p -> (
      match a.request_mutex_arg ~tid:n.tid p with
      | -1 -> false
      | m ->
        Mset.add n.cls m;
        resolve a n ps (i + 1))
  else true

let classify t n =
  let a = Substrate.actions t.sub in
  Mset.clear n.cls;
  n.top <-
    (match Substrate.summary t.sub with
    | None -> true
    | Some summary -> (
      match plan t summary (a.request_method n.tid) with
      | Opaque -> true
      | Params ps ->
        Mset.reserve n.cls (Array.length ps);
        not (resolve a n ps 0)));
  if n.top then Mset.clear n.cls

(* --------------------------- graph bookkeeping ------------------------- *)

let unused = Seq_index.create_set ()

(* The replica interns mutexes too, so a slot may lie past these arrays:
   [slot] grows them, and a read past them is a zero count or an empty
   queue. *)
let slot t m =
  let s = Slot_map.intern t.mutexes m in
  if s >= Array.length t.counts then begin
    t.counts <- Slot_map.fit t.counts t.mutexes 0;
    t.queues <- Slot_map.fit t.queues t.mutexes unused
  end;
  s

let count t m =
  let s = Slot_map.find t.mutexes m in
  if s >= 0 && s < Array.length t.counts then t.counts.(s) else 0

let bump t m d =
  let s = slot t m in
  t.counts.(s) <- t.counts.(s) + d

(* Add ([d] = 1) or withdraw ([d] = -1) the node's registered blockset. *)
let contribute t n d =
  if n.reg = bs_top then begin
    t.top_count <- t.top_count + d;
    t.inflight <- t.inflight + d
  end
  else if n.reg = bs_set then begin
    for i = 0 to n.reg_set.n - 1 do
      bump t n.reg_set.a.(i) d
    done;
    t.inflight <- t.inflight + d
  end

(* The blockset an in-flight node imposes on the rest of the graph: its
   kind, the members of a [bs_set] one left in [into]. *)
let blockset t n into =
  Mset.clear into;
  match n.phase with
  | Waiting | Spec | Spec_ready | Committing ->
    (* Speculations never touch committed state or real mutexes before
       their commit barrier, so they impose nothing on the graph; the
       [specs] index is what holds younger direct starts back. *)
    bs_none
  | Running | Parked | Woken when n.top -> bs_top
  | Running ->
    (match Substrate.bookkeeping t.sub with
    | Some bk
      when t.early
           && (not (Substrate.uses_condvars t.sub ~tid:n.tid))
           && Substrate.predicted t.sub ~tid:n.tid ->
      (* early release: the held mutexes and the exact future set *)
      let tab = Bookkeeping.table bk ~tid:n.tid in
      Mset.copy ~into n.held;
      for i = 0 to Bookkeeping.future_length tab - 1 do
        Mset.add into (Bookkeeping.future_mutex tab i)
      done
    | _ ->
      Mset.copy ~into n.cls;
      Mset.union ~into n.held);
    bs_set
  | Parked ->
    (* The condvar hole: stop blocking the parked monitor so the future
       notifier can dispatch; keep blocking the rest of the class. *)
    Mset.copy ~into n.cls;
    Mset.remove into n.monitor;
    Mset.union ~into n.held;
    bs_set
  | Woken ->
    Mset.copy ~into n.cls;
    Mset.union ~into n.held;
    bs_set

(* Recompute and re-register a node's blockset; [true] when it changed. *)
let refresh t n =
  let kind = blockset t n t.next in
  if kind = n.reg && (kind <> bs_set || Mset.equal t.next n.reg_set) then
    false
  else begin
    contribute t n (-1);
    n.reg <- kind;
    Mset.copy ~into:n.reg_set t.next;
    contribute t n 1;
    true
  end

let node t tid =
  if Seq_index.mem t.nodes tid then Seq_index.get t.nodes tid
  else
    invalid_arg
      (Printf.sprintf "%s: unknown node t%d" (Substrate.name t.sub) tid)

(* ---------------------------- decision indexes ------------------------- *)

(* Index memberships, a function of a node's phase and speculation bit. *)
let in_unparked = 1

let in_specs = 2 (* Spec, Spec_ready or a Waiting speculation *)

let in_spec_waiting = 4

let in_woken = 8

let in_direct = 16 (* a Waiting direct node: [tops] or [queues] *)

let roles n =
  match n.phase with
  | Waiting when n.spec -> in_unparked lor in_specs lor in_spec_waiting
  | Waiting -> in_unparked lor in_direct
  | Running | Committing -> in_unparked
  | Spec | Spec_ready -> in_unparked lor in_specs
  | Woken -> in_unparked lor in_woken
  | Parked -> 0

let by_seq t seq = Seq_index.get t.by_seq seq

let min_seq set = match Seq_index.min_key set with -1 -> max_int | seq -> seq

let queue t m =
  let s = slot t m in
  if t.queues.(s) == unused then t.queues.(s) <- Seq_index.create_set ();
  t.queues.(s)

let queue_head t m =
  let s = Slot_map.find t.mutexes m in
  if s >= 0 && s < Array.length t.queues then min_seq t.queues.(s)
  else max_int

(* At the head of every queue of its class: no older direct waiter shares a
   mutex with it. *)
let rec heads_all t n i =
  i >= n.cls.n || (queue_head t n.cls.a.(i) = n.seq && heads_all t n (i + 1))

let pend_free t n = (not n.top) && heads_all t n 0

(* A node entering the direct waiting set may displace the heads of its
   queues (an aborted speculation retries with its original, older seq). *)
let add_direct t n =
  if n.top then Seq_index.add t.tops n.seq ()
  else begin
    for i = 0 to n.cls.n - 1 do
      let q = queue t n.cls.a.(i) in
      let head = min_seq q in
      if head > n.seq then Seq_index.remove t.heads head;
      Seq_index.add q n.seq ()
    done;
    if pend_free t n then Seq_index.add t.heads n.seq ()
  end

(* A node leaving it may promote the next waiter of each of its queues. *)
let remove_direct t n =
  if n.top then Seq_index.remove t.tops n.seq
  else begin
    Seq_index.remove t.heads n.seq;
    for i = 0 to n.cls.n - 1 do
      Seq_index.remove (queue t n.cls.a.(i)) n.seq
    done;
    for i = 0 to n.cls.n - 1 do
      let head = queue_head t n.cls.a.(i) in
      if head < max_int && pend_free t (by_seq t head) then
        Seq_index.add t.heads head ()
    done
  end

let toggle ~before ~after role seq set =
  if before land role <> after land role then
    if after land role <> 0 then Seq_index.add set seq ()
    else Seq_index.remove set seq

let reindex t n ~before ~after =
  toggle ~before ~after in_unparked n.seq t.unparked;
  toggle ~before ~after in_specs n.seq t.specs;
  toggle ~before ~after in_spec_waiting n.seq t.spec_waiting;
  toggle ~before ~after in_woken n.seq t.woken;
  if before land in_direct <> after land in_direct then
    if after land in_direct <> 0 then add_direct t n else remove_direct t n

(* Every phase change goes through here, so the indexes never lag. *)
let transition t n phase =
  let before = roles n in
  n.phase <- phase;
  reindex t n ~before ~after:(roles n)

(* An aborted speculation retries on the direct path. *)
let retry_direct t n =
  let before = roles n in
  n.spec <- false;
  n.phase <- Waiting;
  reindex t n ~before ~after:(roles n)

(* ------------------------------ workers -------------------------------- *)

let dispatch t n =
  if n.worker >= 0 then
    invalid_arg
      (Printf.sprintf "%s: t%d already on a worker" (Substrate.name t.sub)
         n.tid);
  let w = Decision.Pool.dispatch t.pool ~tid:n.tid in
  n.worker <- w;
  w

let release_worker t n =
  Decision.Pool.complete t.pool ~worker:n.worker ~tid:n.tid;
  n.worker <- -1

(* ------------------------------ decisions ------------------------------ *)

(* The decision is the least-seq live node that meets its kind's rule — the
   node a slot-ordered walk over the live requests would stop at — and each
   rule depends on the older nodes only through facts the indexes answer:

   - Commit: a [Spec_ready] node with no older non-parked node, i.e. the
     head of [unparked].  Condvar-parked elders do not block the barrier —
     in SEQ a parked request's continuation also runs after younger slots.
   - Start_spec: the oldest Waiting speculation, given a free worker.  A
     speculative dispatch ignores the conflict graph and the pend prefix
     (validation subsumes them).
   - Start: a Waiting direct node, given a free worker, with no older node in
     a speculation phase (a direct execution writes committed state with
     nothing to validate it against, so it must stay behind every older
     uncommitted slot), no older Waiting direct node whose class overlaps
     its own — the FIFO-per-class rule that pins the per-mutex acquisition
     order to the slot order; [Top] overlaps everything — and no in-flight
     conflict.  Only the oldest [Top] waiter and the pend-free [heads] can
     pass the overlap test, and the heads' classes are pairwise disjoint.
     The oldest [Top] waiter needs nothing in flight, so an older direct
     waiter is then a head without conflict and wins on seq: the
     candidate need not check it.
   - Reacquire: a [Woken] node with no older speculation-phase node, its
     monitor free and no other in-flight member of its class.  It skips
     the pend prefix (its class is disjoint from every older pending class
     by the dispatch invariant) and the capacity check (rule 3 above).  The
     speculation clause holds by construction: the node once started
     directly, which needed no older speculation-phase node, and no node
     enters a speculation phase after delivery.

   Each candidate is a set minimum or the first hit of a scan of [heads] /
   [woken] cut off at the best seq found so far; the winner's phase names
   the decision, so a decision is the winner's seq alone. *)

let rec none_in_flight t n i =
  i >= n.cls.n || (count t n.cls.a.(i) = 0 && none_in_flight t n (i + 1))

let no_inflight_conflict t n =
  if n.top then t.inflight = 0 else t.top_count = 0 && none_in_flight t n 0

(* No in-flight blockset other than the node's own holds a member of [s]. *)
let rec only_own t n (s : Mset.t) i =
  i >= s.n
  ||
  let m = s.a.(i) in
  count t m <= (if n.reg = bs_set && Mset.mem n.reg_set m then 1 else 0)
  && only_own t n s (i + 1)

let can_reacquire t n =
  n.phase = Woken
  && (Substrate.actions t.sub).mutex_free_for ~tid:n.tid ~mutex:n.monitor
  &&
  if n.top then t.inflight <= 1 (* only its own contribution *)
  else t.top_count = 0 && only_own t n n.held 0 && only_own t n n.cls 0

(* The least seq from [seq] on, below [bound], of a head that can start /
   a woken node that can reacquire, or [max_int]. *)
let rec first_head t seq ~bound =
  if seq < 0 || seq >= bound then max_int
  else if no_inflight_conflict t (by_seq t seq) then seq
  else first_head t (Seq_index.next_above t.heads seq) ~bound

let rec first_woken t seq ~bound =
  if seq < 0 || seq >= bound then max_int
  else if can_reacquire t (by_seq t seq) then seq
  else first_woken t (Seq_index.next_above t.woken seq) ~bound

(* The seq of the node the next decision concerns, or [max_int]. *)
let find_decision t =
  let commit =
    let head = min_seq t.unparked in
    if head < max_int && (by_seq t head).phase = Spec_ready then head
    else max_int
  in
  let best =
    if Decision.Pool.saturated t.pool then commit
    else begin
      let spec_min = min_seq t.specs and top_min = min_seq t.tops in
      let top =
        if top_min < spec_min && no_inflight_conflict t (by_seq t top_min)
        then top_min
        else max_int
      in
      let best = min commit (min (min_seq t.spec_waiting) top) in
      min best
        (first_head t (Seq_index.min_key t.heads)
           ~bound:(min best (min spec_min top_min)))
    end
  in
  min best (first_woken t (Seq_index.min_key t.woken) ~bound:best)

let start t n =
  transition t n Running;
  ignore (refresh t n);
  let w = dispatch t n in
  if Substrate.observing t.sub then begin
    Substrate.incr t.sub "dispatches";
    Substrate.observe t.sub "pool_busy"
      (float_of_int (Decision.Pool.busy t.pool));
    Substrate.audit t.sub ~tid:n.tid ~action:Audit.Start_thread
      ~rule:Audit.Predicted_no_conflict ~candidates:[ w ] ()
  end;
  (Substrate.actions t.sub).start_thread n.tid

let start_spec t n =
  transition t n Spec;
  let w = dispatch t n in
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

let commit t n =
  transition t n Committing;
  if (Substrate.actions t.sub).ws_commit ~tid:n.tid then begin
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "ws_commits";
      Substrate.audit t.sub ~tid:n.tid ~action:Audit.Commit_ws
        ~rule:Audit.Slot_barrier ()
    end
  end
  else begin
    (* Stale reads: the workspace was discarded and the thread reset.
       Retry directly — the node sits at its own barrier (nothing older is
       live except parked elders), so the very next decision starts it
       against the committed state it just validated against. *)
    retry_direct t n;
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "ws_aborts";
      Substrate.audit t.sub ~tid:n.tid ~action:Audit.Abort_ws
        ~rule:Audit.Stale_read ()
    end
  end

let reacquire t n =
  transition t n Running;
  ignore (refresh t n);
  ignore (dispatch t n);
  if Substrate.observing t.sub then begin
    Substrate.incr t.sub "grants";
    if Decision.Pool.saturated t.pool then
      Substrate.incr t.sub "oversubscribed";
    Substrate.audit t.sub ~tid:n.tid ~action:Audit.Grant_reacquire
      ~mutex:n.monitor ~rule:Audit.Fifo_head ()
  end;
  Substrate.perform t.sub (Substrate.thread t.sub n.tid)

let perform t n =
  match n.phase with
  | Spec_ready -> commit t n
  | Waiting when n.spec -> start_spec t n
  | Waiting -> start t n
  | Woken -> reacquire t n
  | Running | Parked | Spec | Committing -> assert false

(* Grants cascade synchronously (a dispatch runs interpreter steps that may
   terminate the thread and re-enter the scheduler), so a decision must not
   be taken against state its predecessor's cascade has since changed: find
   one decision, perform it, look again.  The [scanning] guard turns
   re-entrant rescans into a pending [again] bit drained by the outer
   activation. *)
let rec drain t =
  let seq = find_decision t in
  if seq < max_int then begin
    perform t (by_seq t seq);
    drain t
  end

let rescan t =
  if t.scanning then t.again <- true
  else begin
    t.scanning <- true;
    t.again <- true;
    while t.again do
      t.again <- false;
      drain t
    done;
    t.scanning <- false
  end

(* ------------------------------ callbacks ------------------------------ *)

let fresh_node t =
  if t.nfree = 0 then
    { tid = -1; seq = -1; top = true; cls = Mset.create (); spec = false;
      phase = Waiting; monitor = -1; held = Mset.create (); reg = bs_none;
      reg_set = Mset.create (); worker = -1 }
  else begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end

let recycle t n =
  n.tid <- -1;
  if t.nfree = Array.length t.free then
    t.free <- Array.append t.free (Array.make (max 4 t.nfree) n);
  t.free.(t.nfree) <- n;
  t.nfree <- t.nfree + 1

let on_request t tid =
  let th = Substrate.admit t.sub ~tid in
  let n = fresh_node t in
  n.tid <- tid;
  n.seq <- th.seq;
  classify t n;
  (* Speculation eligibility is fixed at delivery: condvar-capable methods
     (including every fallback/unknown one — the bookkeeping reports those
     pessimistically) take the direct path, so wait/notify only ever reach
     a workspace through a prediction bug, where the replica aborts them. *)
  n.spec <-
    (match t.spec with
    | No_spec -> false
    | Spec_top -> n.top
    | Spec_all -> true)
    && not (Substrate.uses_condvars t.sub ~tid);
  n.phase <- Waiting;
  n.monitor <- -1;
  Mset.clear n.held;
  n.reg <- bs_none;
  Mset.clear n.reg_set;
  n.worker <- -1;
  Seq_index.add t.nodes tid n;
  Seq_index.add t.by_seq n.seq n;
  reindex t n ~before:0 ~after:(roles n);
  rescan t;
  if Substrate.observing t.sub && n.tid = tid && n.phase = Waiting then begin
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
  Mset.add n.held mutex;
  if refresh t n then rescan t

let on_unlock t tid ~syncid:_ ~mutex ~freed =
  if freed then begin
    let n = node t tid in
    Mset.remove n.held mutex;
    ignore (refresh t n);
    rescan t;
    service_waitq t ~mutex
  end

let on_wait t tid ~mutex =
  (* The wait released the monitor; the worker goes back to the pool. *)
  let n = node t tid in
  Mset.remove n.held mutex;
  n.monitor <- mutex;
  transition t n Parked;
  ignore (refresh t n);
  release_worker t n;
  if Substrate.observing t.sub then Substrate.incr t.sub "parks";
  rescan t;
  service_waitq t ~mutex

let on_wakeup t tid ~mutex =
  let n = node t tid in
  n.monitor <- mutex;
  transition t n Woken;
  ignore (refresh t n);
  Substrate.hold (Substrate.thread t.sub tid) Reacquire ~mutex;
  rescan t

let on_reacquired t tid ~mutex =
  let n = node t tid in
  Mset.add n.held mutex;
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
    transition t n Spec_ready
  | Ws_unsafe ->
    (* The replica discarded the workspace (wait/notify/nested mid-
       speculation) and reset the thread; retry on the direct path under
       the ordinary graph rules. *)
    retry_direct t n;
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "ws_aborts";
      Substrate.audit t.sub ~tid ~action:Audit.Abort_ws ~rule:Audit.Unsafe_op
        ()
    end);
  release_worker t n;
  rescan t

let on_terminate t tid =
  if Seq_index.mem t.nodes tid then begin
    let n = Seq_index.get t.nodes tid in
    contribute t n (-1);
    n.reg <- bs_none;
    reindex t n ~before:(roles n) ~after:0;
    Seq_index.remove t.nodes tid;
    Seq_index.remove t.by_seq n.seq;
    release_worker t n;
    recycle t n
  end;
  Substrate.retire t.sub ~tid;
  if Substrate.observing t.sub then Substrate.incr t.sub "commits";
  rescan t

(* A bookkeeping event can move a blockset only through pcgs's early
   release; without it the blockset is a function of phase, class and held
   mutexes alone, so there is nothing to recompute. *)
let bk_refresh t tid = if t.early && refresh t (node t tid) then rescan t

let policy ?(spec = No_spec) ?(record_acq = false) ~early sub pool :
    Sched_iface.sched =
  let t =
    { sub; pool; early; spec; record_acq; plans = Hashtbl.create 8;
      nodes = Seq_index.create (); by_seq = Seq_index.create (); free = [||];
      nfree = 0; next = Mset.create ();
      mutexes = (Substrate.actions sub).mutex_slots; counts = [||];
      top_count = 0; inflight = 0; unparked = Seq_index.create_set ();
      specs = Seq_index.create_set (); spec_waiting = Seq_index.create_set ();
      woken = Seq_index.create_set (); tops = Seq_index.create_set ();
      queues = [||]; heads = Seq_index.create_set ();
      scanning = false; again = false }
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
        bk_refresh t tid);
    on_ignore =
      (fun tid ~syncid ->
        Substrate.bk_ignore sub ~tid ~syncid;
        bk_refresh t tid);
    on_loop_enter =
      (fun tid ~loopid ->
        Substrate.bk_loop_enter sub ~tid ~loopid;
        bk_refresh t tid);
    on_loop_exit =
      (fun tid ~loopid ->
        Substrate.bk_loop_exit sub ~tid ~loopid;
        bk_refresh t tid) }

let cgs sub pool = policy ~early:false sub pool

let pcgs sub pool = policy ~early:true sub pool

let wss sub pool = policy ~spec:Spec_all ~record_acq:true ~early:false sub pool

let safety_net sub pool = policy ~spec:Spec_top ~early:false sub pool
