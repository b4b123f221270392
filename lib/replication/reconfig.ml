open Detmt_sim
open Detmt_gcs
open Detmt_lang
module Recorder = Detmt_obs.Recorder

(* The multi-group runtime: a dynamic set of {!Active} groups behind an
   epoch-versioned routing table, with three totally-ordered operations —
   shard split, shard merge, scheduler hot swap — and a deterministic
   autoscaling controller.  With no command and no policy it is the static
   sharded layout: [initial_groups] groups that never change.

   The object (mutex) space is hashed onto a fixed set of SLOTS ({!route}
   over [slots], not over the group count), and an epoch is an assignment
   slot -> group.  Splits and merges move slots between groups, so the hash
   placement of an object never changes — only its slot's owner does.
   Requests whose lock closure lives on one group take the fast path; the
   rest run a two-phase ordered delivery over the epoch's group set.  Every
   transition runs the same protocol:

   1. a barrier is stamped into the coordinator group's total order
      ({!Active.order_barrier}), then spread to every other live group, so
      each replica observes the epoch change at a slot of its own order;
   2. admission freezes: new submissions (including client retries) queue;
   3. the in-flight window drains — every pending request (cross-group
      two-phase deliveries included) is answered and every live group
      reaches quiescence, the same invariant {!Active.recover_replica}'s
      donor sampling relies on;
   4. the command applies (groups created / retired / rebuilt, state moved
      via {!Active.bootstrap} / {!Active.absorb_state} /
      {!Active.merge_dedups}), the epoch increments, and every live group's
      membership is re-tagged ({!Detmt_gcs.Group.set_epoch});
   5. admission thaws and the held queue flushes in FIFO order, re-resolving
      every route under the new epoch.

   Every step is driven by seeded simulation events, so two runs of the same
   configuration transition at identical virtual times with identical
   barrier sequence numbers — which {!Active.barrier_fingerprints} and
   {!fingerprint} witness. *)

(* ----------------------------- the router --------------------------- *)

(* Stable hash of an object (mutex) id — a SplitMix64 finalizer, a pure
   function of the id alone: no run state, no seed, no group contents.
   Every client, every replica and every retry therefore agrees on the
   placement without communicating. *)
let route ~shards m =
  if shards <= 1 then 0
  else begin
    let z = Int64.add (Int64.of_int m) 0x9E3779B97F4A7C15L in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.unsigned_rem z (Int64.of_int shards))
  end

(* ------------------------- predicted lock closure -------------------- *)

(* Per start method: either the lock closure is exactly the mutexes carried
   in the listed argument positions (so the request's group set is a pure
   function of its arguments), or it is opaque and the request must be
   ordered on every group.  The positions are sorted and distinct. *)
type plan =
  | Args of int array
  | Everywhere

exception Opaque

let arg_of_param = function Ast.Sp_arg i -> i | _ -> raise Opaque

(* Syntactic closure for schedulers without a §4.3 summary: walk the source
   body (through same-class calls) and collect every synchronisation
   parameter; anything that is not a plain request argument — [this],
   fields, globals, locals, unresolvable calls — makes the method opaque. *)
let rec scan_block cls visited acc body =
  List.fold_left (scan_stmt cls visited) acc body

and scan_stmt cls visited acc = function
  | Ast.Sync (p, body) -> scan_block cls visited (arg_of_param p :: acc) body
  | Ast.Lock_acquire p | Ast.Lock_release p | Ast.Wait p ->
    arg_of_param p :: acc
  | Ast.Wait_until { param = p; _ } -> arg_of_param p :: acc
  | Ast.Notify { param = p; _ } -> arg_of_param p :: acc
  | Ast.If (_, a, b) -> scan_block cls visited (scan_block cls visited acc a) b
  | Ast.Loop { body; _ } -> scan_block cls visited acc body
  | Ast.Call name -> scan_call cls visited acc name
  | Ast.Virtual_call { candidates; _ } ->
    List.fold_left (scan_call cls visited) acc candidates
  | Ast.Compute _ | Ast.Assign _ | Ast.Assign_field _ | Ast.Nested _
  | Ast.State_update _ | Ast.Sched_lock _ | Ast.Sched_unlock _
  | Ast.Lockinfo _ | Ast.Ignore_sync _ | Ast.Loop_enter _ | Ast.Loop_exit _
    ->
    acc

and scan_call cls visited acc name =
  if List.mem name !visited then acc
  else begin
    visited := name :: !visited;
    match Class_def.find_method cls name with
    | None -> raise Opaque
    | Some m -> scan_block cls visited acc m.body
  end

let static_plan cls (m : Class_def.method_def) =
  match scan_block cls (ref [ m.name ]) [] m.body with
  | acc -> Args (Array.of_list (List.sort_uniq compare acc))
  | exception Opaque -> Everywhere

(* With a prediction summary the closure is already computed (inlining,
   loop scopes, classification); a method is argument-routable exactly when
   every syncid's parameter is a request argument. *)
let summary_plan (m : Detmt_analysis.Predict.method_summary) =
  if m.fallback then Everywhere
  else
    match
      List.map
        (fun (si : Detmt_analysis.Predict.sid_info) -> arg_of_param si.param)
        m.sids
    with
    | ps -> Args (Array.of_list (List.sort_uniq compare ps))
    | exception Opaque -> Everywhere

(* Every listed argument is a mutex: the request's routing is a function of
   those mutexes.  Otherwise (malformed arguments) it is ordered
   everywhere. *)
let rec mutex_args args positions i =
  i = Array.length positions
  || (let p = positions.(i) in
      p < Array.length args
      && (match args.(p) with Ast.Vmutex _ -> true | _ -> false)
      && mutex_args args positions (i + 1))

(* One plan per start method: from the §4.3 prediction summary when the
   scheduler uses one, otherwise a syntactic scan of the source body. *)
let plan_table ~summary cls =
  let plans = Hashtbl.create 8 in
  List.iter
    (fun (m : Class_def.method_def) ->
      let plan =
        match summary with
        | Some cs -> (
          match Detmt_analysis.Predict.find_method cs m.name with
          | Some ms -> summary_plan ms
          | None -> Everywhere)
        | None -> static_plan cls m
      in
      Hashtbl.replace plans m.name plan)
    (Class_def.start_methods cls);
  plans

(* Each incarnation gets its own deterministic network weather, derived
   from the base seed; incarnation 0 keeps the base seed untouched so a
   1-group system is byte-for-byte the unsharded one. *)
let salt_faults inc (spec : Faults.spec) =
  if inc = 0 then spec
  else
    { spec with
      Faults.seed =
        Int64.logxor spec.Faults.seed
          (Int64.mul (Int64.of_int inc) 0x9E3779B97F4A7C15L) }

(* ---------------------------- fingerprints --------------------------- *)

let fnv_mix h v = Int64.mul (Int64.logxor h v) 0x100000001b3L

(* FNV-1a over every group's live-replica ids, traces and states, then the
   reply count. *)
let fold_fingerprint groups ~replies =
  let h =
    List.fold_left
      (fun h sys ->
        List.fold_left
          (fun h r ->
            let h = fnv_mix h (Int64.of_int (Detmt_runtime.Replica.id r)) in
            let h =
              fnv_mix h (Trace.fingerprint (Detmt_runtime.Replica.trace r))
            in
            fnv_mix h (Detmt_runtime.Replica.state_fingerprint r))
          h (Active.live_replicas sys))
      0xcbf29ce484222325L groups
  in
  fnv_mix h (Int64.of_int replies)

type command =
  | Split of int
  | Merge of { from_g : int; into : int }
  | Hot_swap of { group : int; scheduler : string }

let command_to_string = function
  | Split g -> Printf.sprintf "split(%d)" g
  | Merge { from_g; into } -> Printf.sprintf "merge(%d->%d)" from_g into
  | Hot_swap { group; scheduler } ->
    Printf.sprintf "hot-swap(%d:%s)" group scheduler

type transition = {
  tr_epoch : int;
  tr_at_ms : float;
  tr_barrier_seq : int;
  tr_command : command;
  tr_groups : int; (* live groups after the transition *)
}

type params = {
  initial_groups : int;
  slots : int;
  max_groups : int;
  base : Active.params;
  drain_timeout_ms : float;
}

let default_params =
  { initial_groups = 1; slots = 64; max_groups = 16;
    base = Active.default_params; drain_timeout_ms = 2000.0 }

type policy = {
  interval_ms : float;
  split_above : int;
  merge_below : int;
  max_live : int;
}

type group = {
  index : int; (* stable group id; never reused *)
  mutable sys : Active.t; (* current incarnation (hot swap replaces it) *)
  mutable live : bool;
  mutable inflight : int; (* requests latched on this group right now *)
  g_reply : Active.on_reply;
      (* this group's one reply callback for every request it carries *)
}

type held = {
  h_client : int;
  h_client_req : int;
  h_meth : string;
  h_args : Ast.value array;
  h_on_reply : Active.on_reply;
  h_at : float; (* admission time: queue delay counts into the response *)
}

type t = {
  engine : Engine.t;
  params : params;
  obs : Recorder.t;
  cls : Class_def.t;
  mutable plans : (string, plan) Hashtbl.t;
  owner : int array; (* slot -> live group index; the epoch's routing table *)
  mutable groups : group array; (* by index; retired entries stay in place *)
  (* the live groups by ascending index, their indices and their count —
     recomputed only when a split or merge changes the group set *)
  mutable live_groups : group list;
  mutable live_idx : int list;
  mutable live_n : int;
  mutable retired : Active.t list; (* merged-away + pre-swap incarnations *)
  mutable incarnations : int; (* disjoint replica-id windows, never reused *)
  mutable epoch : int;
  mutable transitions : transition list; (* newest first *)
  (* transition machinery *)
  mutable frozen : bool;
  mutable busy : bool;
  held : held Queue.t;
  commands : command Queue.t;
  mutable aborted : int; (* drains that timed out; command dropped *)
  (* client-side bookkeeping *)
  (* A request waits for every involved group to answer; its latch fires
     the client callback exactly once.  A latch is a pooled slot: [pending]
     maps the request's [Dedup.key] to it, and the slot holds the answers
     still missing, the original submission (or hold-queue entry) time, so
     response times honestly include reconfiguration stalls, and the
     client callback. *)
  pending : Int_table.t;
  lt : Freelist.t;
  mutable lt_remaining : int array;
  mutable lt_sent_at : float array;
  mutable lt_on_reply : Active.on_reply array;
  answered : Dedup.t;
  response_times : Detmt_stats.Summary.t;
  mutable replies : int;
  mutable reply_times : float array; (* arrival times at clients, in order *)
  mutable n_reply_times : int;
  mutable fast_path : int;
  mutable cross_path : int;
  mutable held_total : int; (* submissions that queued behind a barrier *)
  (* autoscaling *)
  mutable policy : policy option;
  mutable armed : bool;
  mutable tick_h : Engine.handler_id;
      (* typed autoscale timer; reads [policy] at fire time *)
  on_group : (index:int -> Active.t -> unit) option;
  mutable involved : int array;
      (* scratch: the ascending live group indices of the request being
         routed, in [0, n_involved) *)
  mutable n_involved : int;
}

let refresh_live t =
  t.live_groups <- Array.to_list t.groups |> List.filter (fun g -> g.live);
  t.live_idx <- List.map (fun g -> g.index) t.live_groups;
  t.live_n <- List.length t.live_groups

let coordinator t =
  match t.live_groups with
  | g :: _ -> g
  | [] -> assert false (* at least one group is always live *)

let slots_of t index =
  let acc = ref [] in
  for s = Array.length t.owner - 1 downto 0 do
    if t.owner.(s) = index then acc := s :: !acc
  done;
  !acc

let find_group t index =
  if index < 0 || index >= Array.length t.groups then None
  else Some t.groups.(index)

let group_of t index =
  if index < 0 || index >= Array.length t.groups then
    invalid_arg (Printf.sprintf "Reconfig: no group %d" index)
  else t.groups.(index)

let client_arrival t =
  Engine.now t.engine +. t.params.base.Active.client_latency_ms

let note_reply t ~response_ms =
  t.replies <- t.replies + 1;
  Detmt_stats.Summary.add t.response_times response_ms;
  if t.n_reply_times = Array.length t.reply_times then begin
    let a = Array.make (max 64 (2 * t.n_reply_times)) 0.0 in
    Array.blit t.reply_times 0 a 0 t.n_reply_times;
    t.reply_times <- a
  end;
  t.reply_times.(t.n_reply_times) <- client_arrival t;
  t.n_reply_times <- t.n_reply_times + 1;
  if Recorder.enabled t.obs then begin
    Recorder.incr t.obs "reconfig.replies";
    Recorder.observe t.obs "reconfig.response_ms" response_ms
  end

(* A group answered a request: the latch fires the client callback once
   every involved group has answered.  Each group answers a key exactly
   once, and the latch outlives every answer but the last. *)
let group_reply t index ~client ~client_req ~response_ms:_ =
  let g = group_of t index in
  let key = Dedup.key ~client ~request:client_req in
  let l = Int_table.find t.pending key in
  if l < 0 then invalid_arg "Reconfig: a reply for no pending request";
  g.inflight <- g.inflight - 1;
  t.lt_remaining.(l) <- t.lt_remaining.(l) - 1;
  if t.lt_remaining.(l) = 0 then begin
    Int_table.remove t.pending key;
    let sent_at = t.lt_sent_at.(l) and on_reply = t.lt_on_reply.(l) in
    t.lt_on_reply.(l) <- Active.ignore_reply;
    Freelist.release t.lt l;
    ignore (Dedup.mark t.answered ~client ~request:client_req);
    let response_ms = client_arrival t -. sent_at in
    note_reply t ~response_ms;
    on_reply ~client ~client_req ~response_ms
  end

let new_group t ~index sys =
  { index; sys; live = true; inflight = 0; g_reply = group_reply t index }

(* Group [index]'s current incarnation gets a fresh disjoint replica-id
   window and its own fault seed; incarnation 0 (the initial group 0) keeps
   the base seed and ids untouched, so a 1-group epoch-0 system is
   byte-for-byte the unsharded {!Active} path. *)
let fresh_active t ~index ~scheduler =
  let inc = t.incarnations in
  t.incarnations <- inc + 1;
  (* The pool width belongs to the scheduler family, not the group: a swap
     onto a serial scheduler retires the pool (workers = 1), a swap back
     onto a parallel one restores the originally configured width.  Read
     the registry spec's [parallel] flag, not [parallel_decisions] — that
     list deliberately excludes the adaptive meta-scheduler, which would
     strand a swapped group on a clamped 1-worker pool. *)
  let workers =
    if (Detmt_sched.Registry.find_exn scheduler).Detmt_sched.Registry.parallel
    then t.params.base.Active.workers
    else 1
  in
  let base =
    { t.params.base with
      Active.scheduler; workers;
      replica_base = inc * t.params.base.Active.replicas;
      faults = Option.map (salt_faults inc) t.params.base.Active.faults }
  in
  let sys = Active.create ~obs:t.obs ~engine:t.engine ~cls:t.cls ~params:base () in
  Group.set_epoch (Active.group sys) t.epoch;
  (match t.on_group with Some f -> f ~index sys | None -> ());
  sys

let create ?(obs = Recorder.disabled) ?on_group ~engine ~cls
    ~(params : params) () =
  if params.slots < 1 then invalid_arg "Reconfig.create: slots < 1";
  if params.initial_groups < 1 then
    invalid_arg "Reconfig.create: initial_groups < 1";
  if params.initial_groups > params.max_groups then
    invalid_arg "Reconfig.create: initial_groups > max_groups";
  if params.initial_groups > params.slots then
    invalid_arg "Reconfig.create: more initial groups than slots";
  if params.base.Active.replica_base <> 0 then
    invalid_arg "Reconfig.create: base.replica_base must be 0";
  let scheduler = params.base.Active.scheduler in
  let t =
    { engine; params; obs; cls; plans = Hashtbl.create 0;
      owner = Array.init params.slots (fun s -> s mod params.initial_groups);
      groups = [||]; live_groups = []; live_idx = []; live_n = 0;
      retired = []; incarnations = 0; epoch = 0;
      transitions = []; frozen = false; busy = false; held = Queue.create ();
      commands = Queue.create (); aborted = 0;
      pending = Int_table.create (); lt = Freelist.create ();
      lt_remaining = [||]; lt_sent_at = [||]; lt_on_reply = [||];
      answered = Dedup.create ();
      response_times = Detmt_stats.Summary.create (); replies = 0;
      reply_times = [||]; n_reply_times = 0; fast_path = 0; cross_path = 0;
      held_total = 0; policy = None; armed = false; tick_h = 0; on_group;
      involved = [||]; n_involved = 0 }
  in
  t.groups <-
    Array.init params.initial_groups (fun index ->
        new_group t ~index (fresh_active t ~index ~scheduler));
  refresh_live t;
  (* Deterministic transformation: every group computed the same summary;
     group 0's copy drives the routing plans. *)
  t.plans <- plan_table ~summary:(Active.summary t.groups.(0).sys) cls;
  t

(* ------------------------------- routing ----------------------------- *)

let route_of t m = t.owner.(route ~shards:t.params.slots m)

(* Add a group index to the involved set, keeping it ascending and
   distinct. *)
let rec involved t gi i =
  i < t.n_involved && (t.involved.(i) = gi || involved t gi (i + 1))

let involve t gi =
  let n = t.n_involved in
  if not (involved t gi 0) then begin
    if n = Array.length t.involved then
      t.involved <- Array.append t.involved (Array.make (max 4 n) 0);
    let i = ref n in
    while !i > 0 && t.involved.(!i - 1) > gi do
      t.involved.(!i) <- t.involved.(!i - 1);
      decr i
    done;
    t.involved.(!i) <- gi;
    t.n_involved <- n + 1
  end

let rec involve_list t = function
  | [] -> ()
  | gi :: rest ->
    involve t gi;
    involve_list t rest

(* The live group indices a request involves under the current epoch —
   a pure function of (plan, arguments, owner table) — into [t.involved].
   Opaque closures are ordered everywhere; requests that lock nothing run
   on the coordinator.  Builds nothing. *)
let route_request t ~meth ~args =
  t.n_involved <- 0;
  if t.live_n = 1 then involve_list t t.live_idx
  else
    match Hashtbl.find t.plans meth with
    | Args ps when mutex_args args ps 0 ->
      if Array.length ps = 0 then involve t (coordinator t).index
      else
        for i = 0 to Array.length ps - 1 do
          match args.(ps.(i)) with
          | Ast.Vmutex m -> involve t (route_of t m)
          | _ -> ()
        done
    | Args _ | Everywhere | (exception Not_found) -> involve_list t t.live_idx

let group_set t ~meth ~args =
  route_request t ~meth ~args;
  Array.to_list (Array.sub t.involved 0 t.n_involved)

(* ---------------------- submission & transitions --------------------- *)

(* How often a draining barrier re-checks. *)
let drain_poll_ms = 0.5

let rec dispatch t ~sent_at ~client ~client_req ~meth ~args ~on_reply =
  route_request t ~meth ~args;
  let n = t.n_involved in
  let coordinator = t.involved.(0) in
  (* The latch survives client retries: a resubmission reuses it (each
     group answers a key exactly once, so a second latch could never
     drain).  Pending latches never straddle an epoch — the drain step
     empties [pending] before any transition applies — so the involved
     set resolved here is stable for the latch's whole lifetime. *)
  let key = Dedup.key ~client ~request:client_req in
  if not (Int_table.mem t.pending key) then begin
    let l = Freelist.alloc t.lt in
    t.lt_remaining <- Freelist.fit t.lt_remaining t.lt 0;
    t.lt_sent_at <- Freelist.fit t.lt_sent_at t.lt 0.0;
    t.lt_on_reply <- Freelist.fit t.lt_on_reply t.lt Active.ignore_reply;
    t.lt_remaining.(l) <- n;
    t.lt_sent_at.(l) <- sent_at;
    t.lt_on_reply.(l) <- on_reply;
    ignore (Int_table.add t.pending key l);
    for i = 0 to n - 1 do
      let gi = t.involved.(i) in
      let g = group_of t gi in
      g.inflight <- g.inflight + 1;
      if Recorder.enabled t.obs then
        Recorder.incr t.obs (Printf.sprintf "reconfig.%d.requests" gi)
    done;
    if n = 1 then t.fast_path <- t.fast_path + 1
    else t.cross_path <- t.cross_path + 1;
    if Recorder.enabled t.obs then
      Recorder.incr t.obs
        (if n = 1 then "reconfig.fast_path" else "reconfig.cross_path")
  end;
  (* Phase 1 orders the request on the coordinator (smallest involved
     group); phase 2 submits to the rest, in ascending order, the moment
     it holds a slot in the coordinator's total order.  Both phases run
     through the groups' ordinary total-order paths, so the outcome is a
     pure function of the seed. *)
  let on_ordered =
    if n = 1 then None
    else
      let followers = Array.to_list (Array.sub t.involved 1 (n - 1)) in
      Some
        (fun ~seq:_ ->
          List.iter
            (fun gi ->
              let g = group_of t gi in
              Active.submit g.sys ~client ~client_req ~meth ~args
                ~on_reply:g.g_reply)
            followers)
  in
  let co = group_of t coordinator in
  Active.submit ?on_ordered co.sys ~client ~client_req ~meth ~args
    ~on_reply:co.g_reply

and submit t ~client ~client_req ~meth ~args ~on_reply =
  if not (Dedup.seen t.answered ~client ~request:client_req) then begin
    if t.frozen then begin
      (* Admission is frozen behind a reconfiguration barrier: hold the
         submission (retries included) and re-resolve its route under the
         new epoch at flush time. *)
      Queue.add
        { h_client = client; h_client_req = client_req; h_meth = meth;
          h_args = args; h_on_reply = on_reply;
          h_at = Engine.now t.engine }
        t.held;
      t.held_total <- t.held_total + 1;
      if Recorder.enabled t.obs then begin
        Recorder.incr t.obs "reconfig.held";
        Recorder.set_gauge t.obs "reconfig.held_backlog"
          (float_of_int (Queue.length t.held))
      end
    end
    else
      dispatch t ~sent_at:(Engine.now t.engine) ~client ~client_req ~meth
        ~args ~on_reply;
    maybe_arm t
  end

(* ----- the transition protocol: barrier, freeze, drain, apply, thaw ----- *)

and begin_transition t cmd =
  t.busy <- true;
  let epoch' = t.epoch + 1 in
  let label = command_to_string cmd in
  let co = coordinator t in
  Active.order_barrier co.sys ~epoch:epoch' ~label
    ~on_ordered:(fun ~seq ->
      (* Spread the barrier so every replica of every live group observes
         the transition at a slot of its own total order. *)
      List.iter
        (fun g ->
          if g.index <> co.index then
            Active.order_barrier g.sys ~epoch:epoch' ~label
              ~on_ordered:(fun ~seq:_ -> ()))
        t.live_groups;
      t.frozen <- true;
      let deadline = Engine.now t.engine +. t.params.drain_timeout_ms in
      drain t ~deadline ~cmd ~barrier_seq:seq)

and drain t ~deadline ~cmd ~barrier_seq =
  if
    Int_table.length t.pending = 0
    && List.for_all (fun g -> Active.quiescent g.sys) t.live_groups
  then apply t ~cmd ~barrier_seq
  else if Engine.now t.engine >= deadline then begin
    (* The in-flight window would not drain (a stuck workload): drop the
       command rather than wedge the run.  Deterministic — the deadline is
       virtual time. *)
    t.aborted <- t.aborted + 1;
    Logs.warn (fun m ->
        m "reconfig: drain for %s timed out; command dropped"
          (command_to_string cmd));
    finish t
  end
  else
    Engine.schedule t.engine ~delay:drain_poll_ms (fun () ->
        drain t ~deadline ~cmd ~barrier_seq)

and apply t ~cmd ~barrier_seq =
  let applied =
    match cmd with
    | Split gi -> apply_split t gi
    | Merge { from_g; into } -> apply_merge t ~from_g ~into
    | Hot_swap { group; scheduler } -> apply_swap t ~gi:group ~scheduler
  in
  if applied then begin
    t.epoch <- t.epoch + 1;
    List.iter
      (fun g -> Group.set_epoch (Active.group g.sys) t.epoch)
      t.live_groups;
    t.transitions <-
      { tr_epoch = t.epoch; tr_at_ms = Engine.now t.engine;
        tr_barrier_seq = barrier_seq; tr_command = cmd;
        tr_groups = t.live_n }
      :: t.transitions;
    if Recorder.enabled t.obs then begin
      Recorder.incr t.obs "reconfig.transitions";
      Recorder.set_gauge t.obs "reconfig.epoch" (float_of_int t.epoch);
      Recorder.set_gauge t.obs "reconfig.groups"
        (float_of_int t.live_n);
      Recorder.series t.obs ~name:"reconfig.epoch"
        ~at:(Engine.now t.engine) ~value:(float_of_int t.epoch);
      Recorder.series t.obs ~name:"reconfig.groups"
        ~at:(Engine.now t.engine) ~value:(float_of_int t.live_n)
    end
  end
  else t.aborted <- t.aborted + 1;
  finish t

(* Split: the donor keeps every even-positioned slot it owns, a brand-new
   group takes the odd ones.  The new group bootstraps from the donor's
   quiescent snapshot — dedup ledger, mutex fields, per-offset aliveness —
   and starts its own per-group counters at zero (folded back at merge). *)
and apply_split t gi =
  match find_group t gi with
  | None -> false
  | Some g ->
  let owned = slots_of t gi in
  if (not g.live) || List.length owned < 2 || t.live_n >= t.params.max_groups
  then false
  else begin
    let index = Array.length t.groups in
    let sys =
      fresh_active t ~index ~scheduler:(Active.scheduler_name g.sys)
    in
    Active.bootstrap sys ~from:g.sys ~carry_state:false;
    t.groups <-
      Array.append t.groups [| new_group t ~index sys |];
    refresh_live t;
    List.iteri (fun k s -> if k mod 2 = 1 then t.owner.(s) <- index) owned;
    if Recorder.enabled t.obs then Recorder.incr t.obs "reconfig.splits";
    true
  end

(* Merge: the survivor absorbs the retiring group's state-field totals and
   its dedup ledger, then inherits its slots; the retired group stays in
   place, quiescent, for post-run consistency checks. *)
and apply_merge t ~from_g ~into =
  if from_g = into then false
  else
    match (find_group t from_g, find_group t into) with
    | None, _ | _, None -> false
    | Some d, Some s ->
    if (not d.live) || not s.live then false
    else begin
      Active.absorb_state s.sys ~delta:(Active.donor_state d.sys);
      Active.merge_dedups s.sys ~from:d.sys;
      Array.iteri
        (fun slot o -> if o = from_g then t.owner.(slot) <- into)
        t.owner;
      d.live <- false;
      refresh_live t;
      t.retired <- d.sys :: t.retired;
      if Recorder.enabled t.obs then Recorder.incr t.obs "reconfig.merges";
      true
    end

(* Hot swap: rebuild the group's decision module by reincarnating the whole
   group under the new scheduler, transplanting the quiescent substrate
   state (object fields, mutex fields, dedup ledger, completed counts,
   aliveness).  At quiescence no scheduler bookkeeping is live, so a fresh
   decision module is the carried-over state — identically on every
   replica. *)
and apply_swap t ~gi ~scheduler =
  match (find_group t gi, Detmt_sched.Registry.find scheduler) with
  | None, _ | _, None -> false
  | Some g, Some _ ->
  if (not g.live) || Active.scheduler_name g.sys = scheduler then false
  else begin
    let sys = fresh_active t ~index:gi ~scheduler in
    Active.bootstrap sys ~from:g.sys ~carry_state:true;
    t.retired <- g.sys :: t.retired;
    g.sys <- sys;
    if Recorder.enabled t.obs then Recorder.incr t.obs "reconfig.swaps";
    true
  end

and finish t =
  t.frozen <- false;
  t.busy <- false;
  (* Thaw: flush the held queue in FIFO order; every entry re-resolves its
     route under the new epoch, and entries answered in the meantime (a
     retry whose original was in the drained window) are dropped by the
     answered check. *)
  let flush = Queue.create () in
  Queue.transfer t.held flush;
  Queue.iter
    (fun h ->
      if not (Dedup.seen t.answered ~client:h.h_client ~request:h.h_client_req)
      then
        dispatch t ~sent_at:h.h_at ~client:h.h_client
          ~client_req:h.h_client_req ~meth:h.h_meth ~args:h.h_args
          ~on_reply:h.h_on_reply)
    flush;
  match Queue.take_opt t.commands with
  | Some cmd -> begin_transition t cmd
  | None -> ()

(* ------------------------------ commands ----------------------------- *)

and validate t = function
  | Split gi ->
    let g = group_of t gi in
    if not g.live then invalid_arg "Reconfig: split of a retired group";
    if t.live_n >= t.params.max_groups then
      invalid_arg "Reconfig: split would exceed max_groups";
    if List.length (slots_of t gi) < 2 then
      invalid_arg "Reconfig: split of a single-slot group"
  | Merge { from_g; into } ->
    if from_g = into then invalid_arg "Reconfig: merge of a group into itself";
    if not (group_of t from_g).live then
      invalid_arg "Reconfig: merge from a retired group";
    if not (group_of t into).live then
      invalid_arg "Reconfig: merge into a retired group"
  | Hot_swap { group; scheduler } ->
    if not (group_of t group).live then
      invalid_arg "Reconfig: hot swap of a retired group";
    ignore (Detmt_sched.Registry.find_exn scheduler)

and request t cmd =
  (* Commands queued behind a running transition are validated only when
     they reach the front (inside [apply], which treats a command the world
     has outrun as an aborted no-op) — the requester cannot know what the
     group set will look like by then. *)
  if t.busy then Queue.add cmd t.commands
  else begin
    validate t cmd;
    begin_transition t cmd
  end

(* ---------------------------- autoscaling ---------------------------- *)

(* A deterministic controller over the per-group queue depths the router
   already maintains (and exports as detmt.obs gauges): split the hottest
   group above the high watermark, merge cold groups below the low one.
   The merge arm needs two cold groups, so it never merges the last one.
   Ticks re-arm only while work is in flight, so the controller never
   keeps the simulation alive. *)

and decide t p =
  let live = t.live_groups in
  let hottest =
    List.fold_left
      (fun best g ->
        match best with
        | Some b when b.inflight >= g.inflight -> best
        | _ -> Some g)
      None live
  in
  match hottest with
  | None -> None
  | Some hot ->
    if
      hot.inflight >= p.split_above
      && t.live_n < min p.max_live t.params.max_groups
      && List.length (slots_of t hot.index) >= 2
    then Some (Split hot.index)
    else begin
      let cold = List.filter (fun g -> g.inflight <= p.merge_below) live in
      match cold with
      | c0 :: _ :: _ ->
        (* fold the highest-indexed cold group into the lowest-indexed one *)
        let from_g =
          List.fold_left (fun acc g -> max acc g.index) c0.index cold
        in
        if from_g <> c0.index then
          Some (Merge { from_g; into = c0.index })
        else None
      | _ -> None
    end

and tick t p =
  if Recorder.enabled t.obs then begin
    List.iter
      (fun g ->
        Recorder.set_gauge t.obs
          (Printf.sprintf "reconfig.%d.queue_depth" g.index)
          (float_of_int g.inflight))
      t.live_groups;
    Recorder.set_gauge t.obs "reconfig.groups" (float_of_int t.live_n)
  end;
  if (not t.busy) && not t.frozen then begin
    match decide t p with Some cmd -> request t cmd | None -> ()
  end;
  let inflight_total =
    List.fold_left (fun n g -> n + g.inflight) 0 t.live_groups
  in
  if
    inflight_total > 0 || t.busy || t.frozen
    || Queue.length t.held > 0
    || Queue.length t.commands > 0
  then Engine.post t.engine ~delay:p.interval_ms t.tick_h 0
  else t.armed <- false

and maybe_arm t =
  match t.policy with
  | Some p when not t.armed ->
    t.armed <- true;
    Engine.post t.engine ~delay:p.interval_ms t.tick_h 0
  | _ -> ()

let request_at t ~at cmd =
  (* A time-scheduled command races every transition before it: by [at] the
     group it names may not exist yet (a split still draining) or may be
     gone.  Like a queued command, it aborts instead of raising. *)
  Engine.schedule_at t.engine ~time:at (fun () ->
      match request t cmd with
      | () -> ()
      | exception Invalid_argument reason ->
        t.aborted <- t.aborted + 1;
        Logs.warn (fun m ->
            m "reconfig: scheduled %s dropped: %s" (command_to_string cmd)
              reason))

let set_autoscale t p =
  if p.interval_ms <= 0.0 then invalid_arg "Reconfig: interval_ms <= 0";
  if t.tick_h = 0 then
    t.tick_h <-
      Engine.register_handler t.engine (fun _ ->
          match t.policy with Some p -> tick t p | None -> ());
  t.policy <- Some p

(* -------------------------- faults & recovery ------------------------ *)

(* Kills and recoveries address (group, offset) and resolve the group's
   {e current} incarnation at fire time, so a recovery scheduled before a
   hot swap lands on whichever incarnation serves the group when it fires —
   the swap-racing-recovery chaos scenario. *)

let kill_replica t ~group ~offset =
  let g = group_of t group in
  Active.kill_replica g.sys
    ((Active.params g.sys).Active.replica_base + offset)

let recover_replica t ~group ~offset ~at =
  Engine.schedule_at t.engine ~time:at (fun () ->
      let g = group_of t group in
      Active.recover_replica g.sys
        ((Active.params g.sys).Active.replica_base + offset))

(* ------------------------------ clients ------------------------------ *)

let diagnose t ~stuck =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Client.stuck_header ~stuck);
  Buffer.add_string buf
    (Printf.sprintf "\n epoch %d%s" t.epoch
       (if t.frozen then " (frozen behind a reconfiguration barrier)" else ""));
  List.iter
    (fun g ->
      Buffer.add_string buf
        (Printf.sprintf "\n group %d (%s):" g.index
           (Active.scheduler_name g.sys));
      Buffer.add_string buf (Client.active_diagnostics g.sys))
    t.live_groups;
  Buffer.contents buf

let run_clients_stats t ~clients ~requests_per_client ~gen ?think_time_ms
    ?seed ?until_ms ?timeout_ms ?max_retries () =
  Client.run_clients_stats_on ~engine:t.engine
    ~submit:(fun ~client ~client_req ~meth ~args ~on_reply ->
      submit t ~client ~client_req ~meth ~args ~on_reply)
    ~diagnose:(fun ~stuck -> diagnose t ~stuck)
    ~clients ~requests_per_client ~gen ?think_time_ms ?seed ?until_ms
    ?timeout_ms ?max_retries ()

(* ----------------------------- accessors ----------------------------- *)

let epoch t = t.epoch

let transitions t = List.rev t.transitions

let live_systems t = List.map (fun g -> g.sys) t.live_groups

let group_count t = t.live_n

let groups_ever t = live_systems t @ List.rev t.retired

let replies_received t = t.replies

let reply_times t = List.init t.n_reply_times (Array.get t.reply_times)

let response_times t = t.response_times

let fast_path_requests t = t.fast_path

let cross_group_requests t = t.cross_path

let held_requests t = t.held_total

let aborted_transitions t = t.aborted

let splits t =
  List.length
    (List.filter (fun tr -> match tr.tr_command with Split _ -> true | _ -> false)
       t.transitions)

let merges t =
  List.length
    (List.filter (fun tr -> match tr.tr_command with Merge _ -> true | _ -> false)
       t.transitions)

let swaps t =
  List.length
    (List.filter
       (fun tr -> match tr.tr_command with Hot_swap _ -> true | _ -> false)
       t.transitions)

let recoveries t =
  List.fold_left (fun n g -> n + Active.recoveries g) 0 (groups_ever t)

let broadcasts t =
  List.fold_left (fun n g -> n + Active.broadcasts g) 0 (groups_ever t)

let duplicate_client_replies t =
  List.fold_left
    (fun n g -> n + Active.duplicate_client_replies g)
    0 (groups_ever t)

(* Aggregate state across live groups: with per-group commutative counters,
   the slot-preserving invariant — a split-then-merge cycle leaves the
   aggregate exactly where the static run put it. *)
let aggregate_state t =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun sys ->
      List.iter
        (fun (f, v) ->
          Hashtbl.replace acc f
            (v + Option.value ~default:0 (Hashtbl.find_opt acc f)))
        (Active.donor_state sys))
    (live_systems t);
  Hashtbl.fold (fun f v l -> (f, v) :: l) acc [] |> List.sort compare

let reports t =
  List.map
    (fun sys -> Consistency.check (Active.live_replicas sys))
    (groups_ever t)

let consistent t = List.for_all Consistency.consistent (reports t)

(* The recovery-tolerant oracle: a recovered replica's trace covers only
   its post-recovery suffix, so after crash-recovery only state (and
   acquisition order going forward) is comparable — the same contract
   {!Chaos} checks. *)
let states_agree t =
  List.for_all (fun r -> r.Consistency.states_agree) (reports t)

(* Bit-identical epoch observation: within each group, every live replica
   folded the same barriers at the same total-order slots. *)
let epochs_agree t =
  List.for_all
    (fun sys ->
      match Active.barrier_fingerprints sys with
      | [] -> true
      | (_, fp0, n0) :: rest ->
        List.for_all (fun (_, fp, n) -> Int64.equal fp fp0 && n = n0) rest)
    (groups_ever t)

(* Whole-run hash: every group's live replica traces and states, the reply
   count, and the transition log (epoch, barrier slot, time, command). *)
let fingerprint t =
  List.fold_left
    (fun h tr ->
      let h = fnv_mix h (Int64.of_int tr.tr_epoch) in
      let h = fnv_mix h (Int64.of_int tr.tr_barrier_seq) in
      let h = fnv_mix h (Int64.bits_of_float tr.tr_at_ms) in
      fnv_mix h (Int64.of_int (Hashtbl.hash tr.tr_command)))
    (fold_fingerprint (groups_ever t) ~replies:t.replies)
    (List.rev t.transitions)

(* Total-order hash: every incarnation's broadcast order, then the slot
   each transition was applied at — no replica state, reply or time. *)
let order_fingerprint t =
  let h =
    List.fold_left
      (fun h sys -> fnv_mix h (Active.order_fingerprint sys))
      0xcbf29ce484222325L (groups_ever t)
  in
  List.fold_left
    (fun h tr ->
      fnv_mix (fnv_mix h (Int64.of_int tr.tr_epoch))
        (Int64.of_int tr.tr_barrier_seq))
    h (List.rev t.transitions)
