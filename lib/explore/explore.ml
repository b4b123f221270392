(* Bounded model checking over the nondeterminism the simulator admits.

   The envelope: per-delivery latency skews (via the Totem delivery oracle),
   same-instant event orderings (via the engine's tie-break oracle), forced
   early batch flushes (via the Totem flush oracle) and crash/recovery
   points.  Every point in the envelope is an admissible execution — the
   per-subscriber FIFO floor and the broadcast-time sequence stamping are
   never violated — so a deterministic scheduler must produce equivalent
   behaviour at all of them, and any divergence is a real bug.

   The search is a budget-bounded DFS.  Candidates are regenerated at every
   node from that node's own run (delivery times shift as perturbations
   accumulate), ranked by how many events the perturbation window overlaps,
   and pruned sleep-set-style: a delay whose window contains no other event
   commutes with everything and cannot change any interleaving. *)

open Detmt_sim
open Detmt_replication

(* ------------------------------ one run ------------------------------- *)

type outcome = {
  o_replies : int;
  o_expected : int;
  o_outstanding : int;
  o_duplicate_replies : int;
  o_divergence : Consistency.divergence option;
  o_states_agree : bool;
  o_acquisitions_agree : bool;
  o_state_fps : (int * int64) list;
  o_recoveries : int;
  o_transitions : int; (* reconfiguration epochs applied; 0 on static runs *)
  o_epochs_agree : bool; (* vacuously true on static runs *)
  o_order_fp : int64;
  o_events : int;
  o_duration_ms : float;
}

(* What the canonical (or any observed) run exposes for candidate
   generation: every point-to-point delivery with its planned arrival, the
   width of every multi-way simultaneity, the executed-event journal and the
   number of total-order messages stamped. *)
type observation = {
  obs_deliveries : (int * int * float) list; (* seq, dest, planned_ms *)
  obs_ties : int list; (* count per multi-way tie instant *)
  obs_journal : float array;
  obs_broadcasts : int;
}

(* The fixed reconfiguration cycle an elastic schedule certifies: split the
   single group mid-run, merge it back while traffic is still flowing.  The
   window between the two commands (and the merge drain itself) is where
   crash candidates land. *)
let elastic_cycle =
  [ (6.0, Reconfig.Split 0);
    (20.0, Reconfig.Merge { from_g = 1; into = 0 }) ]

let elastic_window = (6.0, 20.0)

let entry_tables (s : Schedule.t) =
  let delays = Hashtbl.create 16
  and reorders = Hashtbl.create 16
  and flushes = Hashtbl.create 16 in
  List.iter
    (function
      | Schedule.Delay { seq; dest; extra_ms } ->
        Hashtbl.replace delays (seq, dest) extra_ms
      | Schedule.Reorder { at_index; pick } ->
        Hashtbl.replace reorders at_index pick
      | Schedule.Flush { after_seq } -> Hashtbl.replace flushes after_seq ()
      | Schedule.Crash _ -> ())
    s.Schedule.entries;
  (delays, reorders, flushes)

let tie_oracle engine ~observe ~reorders =
  let ties = ref [] and tie_index = ref 0 in
  if Hashtbl.length reorders > 0 || observe then
    Engine.set_order_oracle engine
      (Some
         (fun ~count ->
           let i = !tie_index in
           incr tie_index;
           if observe then ties := count :: !ties;
           match Hashtbl.find_opt reorders i with
           | Some pick when pick >= 0 && pick < count -> pick
           | _ -> 0));
  ties

let run_one_static ~replicas ~observe ~cls ~gen (s : Schedule.t) =
  let engine = Engine.create () in
  let params =
    { Active.default_params with
      scheduler = s.Schedule.scheduler; workers = s.Schedule.workers;
      replicas; batching = s.Schedule.batching }
  in
  let system = Active.create ~engine ~cls ~params () in
  let monitor = Consistency.create_monitor () in
  Active.set_checkpoint_sink system (fun ~replica ~seq ~hash ~state ->
      Consistency.observe monitor ~replica ~seq ~hash ~state);
  let delays, reorders, flushes = entry_tables s in
  List.iter
    (function
      | Schedule.Crash { replica; at_ms; recover_at_ms } ->
        Engine.schedule_at engine ~time:at_ms (fun () ->
            Active.kill_replica system replica);
        if recover_at_ms > at_ms then
          Active.recover_replica system ~at:recover_at_ms replica
      | _ -> ())
    s.Schedule.entries;
  let deliveries = ref [] in
  if Hashtbl.length delays > 0 || observe then
    Active.set_delivery_oracle system
      (Some
         (fun ~seq ~sender:_ ~dest ~planned_ms ->
           if observe then deliveries := (seq, dest, planned_ms) :: !deliveries;
           match Hashtbl.find_opt delays (seq, dest) with
           | Some extra -> extra
           | None -> 0.0));
  if Hashtbl.length flushes > 0 then
    Active.set_flush_oracle system
      (Some (fun ~seq ~pending:_ -> Hashtbl.mem flushes seq));
  let ties = tie_oracle engine ~observe ~reorders in
  if observe then Engine.set_journaling engine true;
  (* [until_ms = infinity] runs to queue drain but reports a stall through
     [run_outstanding] instead of raising: an introduced deadlock is a
     verdict here, not a harness failure. *)
  let stats =
    Client.run_clients_stats ~engine ~system ~clients:s.Schedule.clients
      ~requests_per_client:s.Schedule.requests ~gen
      ~seed:(Int64.of_int s.Schedule.seed) ~until_ms:Float.infinity ()
  in
  let report = Consistency.check (Active.live_replicas system) in
  let outcome =
    { o_replies = Active.replies_received system;
      o_expected = s.Schedule.clients * s.Schedule.requests;
      o_outstanding = stats.Client.run_outstanding;
      o_duplicate_replies = Active.duplicate_client_replies system;
      o_divergence = Consistency.first_divergence monitor;
      o_states_agree = report.Consistency.states_agree;
      o_acquisitions_agree = report.Consistency.acquisitions_agree;
      o_state_fps = report.Consistency.state_hashes;
      o_recoveries = Active.recoveries system;
      o_transitions = 0;
      o_epochs_agree = true;
      o_order_fp = Active.order_fingerprint system;
      o_events = Engine.events_executed engine;
      o_duration_ms = Engine.now engine }
  in
  let observation =
    { obs_deliveries = List.rev !deliveries;
      obs_ties = List.rev !ties;
      obs_journal = Engine.journal engine;
      obs_broadcasts = Active.broadcasts system }
  in
  (outcome, observation)

(* Elastic runs go through {!Reconfig} with the canonical split/merge cycle.
   Oracles and consistency monitors attach to every incarnation the run
   creates ([on_group]); delivery keys stay unambiguous across buses because
   each incarnation owns a distinct replica-id window.  Crash entries name
   offsets into group 0, which the cycle never retires. *)
let run_one_elastic ~replicas ~observe ~cls ~gen (s : Schedule.t) =
  let engine = Engine.create () in
  let delays, reorders, flushes = entry_tables s in
  let deliveries = ref [] and monitors = ref [] in
  let on_group ~index:_ sys =
    let monitor = Consistency.create_monitor () in
    monitors := !monitors @ [ monitor ];
    Active.set_checkpoint_sink sys (fun ~replica ~seq ~hash ~state ->
        Consistency.observe monitor ~replica ~seq ~hash ~state);
    if Hashtbl.length delays > 0 || observe then
      Active.set_delivery_oracle sys
        (Some
           (fun ~seq ~sender:_ ~dest ~planned_ms ->
             if observe then
               deliveries := (seq, dest, planned_ms) :: !deliveries;
             match Hashtbl.find_opt delays (seq, dest) with
             | Some extra -> extra
             | None -> 0.0));
    if Hashtbl.length flushes > 0 then
      Active.set_flush_oracle sys
        (Some (fun ~seq ~pending:_ -> Hashtbl.mem flushes seq))
  in
  let base =
    { Active.default_params with
      scheduler = s.Schedule.scheduler; workers = s.Schedule.workers;
      replicas; batching = s.Schedule.batching }
  in
  let system =
    Reconfig.create ~on_group ~engine ~cls
      ~params:{ Reconfig.default_params with base }
      ()
  in
  List.iter (fun (at, c) -> Reconfig.request_at system ~at c) elastic_cycle;
  List.iter
    (function
      | Schedule.Crash { replica; at_ms; recover_at_ms } ->
        Engine.schedule_at engine ~time:at_ms (fun () ->
            Reconfig.kill_replica system ~group:0 ~offset:replica);
        if recover_at_ms > at_ms then
          Reconfig.recover_replica system ~group:0 ~offset:replica
            ~at:recover_at_ms
      | _ -> ())
    s.Schedule.entries;
  let ties = tie_oracle engine ~observe ~reorders in
  if observe then Engine.set_journaling engine true;
  let stats =
    Reconfig.run_clients_stats system ~clients:s.Schedule.clients
      ~requests_per_client:s.Schedule.requests ~gen
      ~seed:(Int64.of_int s.Schedule.seed) ~until_ms:Float.infinity ()
  in
  let reports =
    List.map
      (fun sys -> Consistency.check (Active.live_replicas sys))
      (Reconfig.groups_ever system)
  in
  let outcome =
    { o_replies = Reconfig.replies_received system;
      o_expected = s.Schedule.clients * s.Schedule.requests;
      o_outstanding = stats.Client.run_outstanding;
      o_duplicate_replies = Reconfig.duplicate_client_replies system;
      o_divergence = List.find_map Consistency.first_divergence !monitors;
      o_states_agree =
        List.for_all (fun r -> r.Consistency.states_agree) reports;
      o_acquisitions_agree =
        List.for_all (fun r -> r.Consistency.acquisitions_agree) reports;
      o_state_fps =
        List.concat_map (fun r -> r.Consistency.state_hashes) reports;
      o_recoveries = Reconfig.recoveries system;
      o_transitions = Reconfig.epoch system;
      o_epochs_agree = Reconfig.epochs_agree system;
      o_order_fp = Reconfig.order_fingerprint system;
      o_events = Engine.events_executed engine;
      o_duration_ms = Engine.now engine }
  in
  let observation =
    { obs_deliveries = List.rev !deliveries;
      obs_ties = List.rev !ties;
      obs_journal = Engine.journal engine;
      obs_broadcasts = Reconfig.broadcasts system }
  in
  (outcome, observation)

let run_one ?(replicas = 3) ?(observe = false) ~cls ~gen (s : Schedule.t) =
  if s.Schedule.elastic then run_one_elastic ~replicas ~observe ~cls ~gen s
  else run_one_static ~replicas ~observe ~cls ~gen s

(* ------------------------------ verdicts ------------------------------ *)

type verdict = Equivalent | Order_shifted | Divergent of string

(* Two-tier check.  Replica-internal agreement (checkpoints, final states,
   acquisition orders, exactly-once replies, no introduced stall) must hold
   on EVERY admissible schedule — a violation indicts the scheduler
   directly.  Equality against the canonical run is only meaningful when the
   perturbation left the broadcast total order unchanged: closed-loop
   clients and scheduler control traffic feed delivery timing back into the
   order, so a shifted order legitimately yields different (internally
   consistent) results. *)
let classify ~canonical (o : outcome) =
  if o.o_divergence <> None then
    Divergent "replica checkpoint streams diverge"
  else if not o.o_states_agree then Divergent "final replica states diverge"
  else if o.o_recoveries = 0 && not o.o_acquisitions_agree then
    Divergent "per-mutex acquisition orders diverge"
  else if not o.o_epochs_agree then
    Divergent "epoch transitions diverge across replicas"
  else if o.o_transitions <> canonical.o_transitions then
    Divergent "reconfiguration did not apply"
  else if o.o_duplicate_replies > 0 then Divergent "duplicate client replies"
  else if o.o_outstanding > canonical.o_outstanding then
    Divergent "introduced client stall"
  else if o.o_order_fp = canonical.o_order_fp then
    if o.o_replies <> canonical.o_replies then
      Divergent "reply count differs under an identical total order"
    else if o.o_state_fps <> canonical.o_state_fps then
      Divergent "replica state differs under an identical total order"
    else Equivalent
  else Order_shifted

let verdict_to_string = function
  | Equivalent -> "equivalent"
  | Order_shifted -> "order-shifted"
  | Divergent r -> "DIVERGENT: " ^ r

(* -------------------------- candidate search -------------------------- *)

let default_skews = [ 0.3; 1.1 ]

let eps = 1e-9

(* Events strictly inside (from_ms, to_ms]: what a delay of that span could
   possibly interleave with differently. *)
let window_events journal ~from_ms ~to_ms =
  Array.fold_left
    (fun n t -> if t > from_ms +. eps && t <= to_ms +. eps then n + 1 else n)
    0 journal

let instant_events journal at =
  Array.fold_left
    (fun n t -> if Float.abs (t -. at) <= eps then n + 1 else n)
    0 journal

type search_stats = {
  explored : int; (* schedules actually run, canonical included *)
  pruned : int; (* candidates discarded by the empty-window rule *)
  order_shifted : int;
  max_frontier_depth : int;
}

type result = {
  stats : search_stats;
  divergent : (Schedule.t * string) list; (* unshrunk counterexamples *)
}

(* Candidates reachable in one step from a node, generated from the node's
   own observation (accumulated perturbations shift every later delivery, so
   parent-run candidates would dangle).  Ranked by window population:
   perturbations overlapping busy windows have the most interleavings to
   flip.  Returns (score, entry) pairs, best first, with prune accounting. *)
let candidates ?(skews = default_skews) ~pruned obs (s : Schedule.t) =
  let delayed = Hashtbl.create 16
  and reordered = Hashtbl.create 16
  and flushed = Hashtbl.create 16 in
  List.iter
    (function
      | Schedule.Delay { seq; dest; _ } ->
        Hashtbl.replace delayed (seq, dest) ()
      | Schedule.Reorder { at_index; _ } ->
        Hashtbl.replace reordered at_index ()
      | Schedule.Flush { after_seq } -> Hashtbl.replace flushed after_seq ()
      | Schedule.Crash _ -> ())
    s.Schedule.entries;
  let cands = ref [] in
  List.iter
    (fun (seq, dest, planned) ->
      if not (Hashtbl.mem delayed (seq, dest)) then
        List.iter
          (fun extra_ms ->
            let busy =
              window_events obs.obs_journal ~from_ms:planned
                ~to_ms:(planned +. extra_ms)
            in
            (* Empty-window pruning: exactly one event at the planned
               instant (this delivery) and none inside the skew window
               means the move commutes with every event in the run —
               admissible but incapable of changing any interleaving. *)
            if busy = 0 && instant_events obs.obs_journal planned <= 1 then
              incr pruned
            else
              cands :=
                (busy, Schedule.Delay { seq; dest; extra_ms }) :: !cands)
          skews)
    obs.obs_deliveries;
  List.iteri
    (fun i count ->
      if not (Hashtbl.mem reordered i) then
        (* Every non-canonical pick at a multi-way tie is a distinct
           interleaving by construction; score by tie width. *)
        for pick = 1 to min (count - 1) 2 do
          cands := (count, Schedule.Reorder { at_index = i; pick }) :: !cands
        done)
    obs.obs_ties;
  (match s.Schedule.batching with
  | None -> ()
  | Some _ ->
    for seq = 0 to obs.obs_broadcasts - 1 do
      if not (Hashtbl.mem flushed seq) then
        cands := (1, Schedule.Flush { after_seq = seq }) :: !cands
    done);
  (* Elastic runs also enumerate crash points inside the reconfiguration
     window — right after the split command lands, mid-epoch, and during
     the merge drain — each with a post-merge recovery.  One crash per
     schedule: a second one would leave group 0 without a live majority of
     history to transfer from. *)
  if
    s.Schedule.elastic
    && not
         (List.exists
            (function Schedule.Crash _ -> true | _ -> false)
            s.Schedule.entries)
  then begin
    let w_open, w_close = elastic_window in
    List.iter
      (fun at_ms ->
        List.iter
          (fun offset ->
            cands :=
              (2,
               Schedule.Crash
                 { replica = offset; at_ms; recover_at_ms = w_close +. 20.0 })
              :: !cands)
          [ 1; 2 ])
      [ w_open +. 1.0; (w_open +. w_close) /. 2.0; w_close -. 1.0 ]
  end;
  List.stable_sort (fun (a, _) (b, _) -> compare b a) !cands

let explore ?(skews = default_skews) ?(max_depth = 2) ?(max_width = 32)
    ~budget (base : Schedule.t) =
  let cls, gen = Detmt_workload.Catalog.find base.Schedule.workload in
  let root = Schedule.with_entries base [] in
  let canonical, root_obs = run_one ~observe:true ~cls ~gen root in
  let explored = ref 1
  and pruned = ref 0
  and shifted = ref 0
  and max_depth_seen = ref 0 in
  let divergent = ref [] in
  let rec truncate k = function
    | x :: rest when k > 0 -> x :: truncate (k - 1) rest
    | _ -> []
  in
  let push stack sched obs =
    let depth = Schedule.size sched + 1 in
    let cands = truncate max_width (candidates ~skews ~pruned obs sched) in
    (* fold over the reversed (worst-first) list so the best-ranked
       candidate is prepended last and ends up on top of the stack *)
    List.fold_left
      (fun acc (_, entry) ->
        (depth,
         Schedule.with_entries sched (sched.Schedule.entries @ [ entry ]))
        :: acc)
      stack (List.rev cands)
  in
  let stack = ref (push [] root root_obs) in
  let stop = ref false in
  while (not !stop) && !explored < budget && !stack <> [] do
    match !stack with
    | [] -> ()
    | (depth, sched) :: rest ->
      stack := rest;
      let outcome, obs = run_one ~observe:true ~cls ~gen sched in
      incr explored;
      if depth > !max_depth_seen then max_depth_seen := depth;
      (match classify ~canonical outcome with
      | Divergent reason ->
        divergent := (sched, reason) :: !divergent;
        stop := true
      | Order_shifted ->
        incr shifted;
        if depth < max_depth then stack := push !stack sched obs
      | Equivalent ->
        if depth < max_depth then stack := push !stack sched obs)
  done;
  { stats =
      { explored = !explored; pruned = !pruned; order_shifted = !shifted;
        max_frontier_depth = !max_depth_seen };
    divergent = List.rev !divergent }

(* ------------------------------ shrinking ----------------------------- *)

(* Classic ddmin over the entry list: find a 1-minimal subset that still
   diverges.  Every probe is one full run, so the count is reported. *)
let shrink ?replicas (s : Schedule.t) =
  let cls, gen = Detmt_workload.Catalog.find s.Schedule.workload in
  let canonical, _ = run_one ?replicas ~cls ~gen (Schedule.with_entries s []) in
  let probes = ref 0 in
  let diverges entries =
    incr probes;
    let o, _ = run_one ?replicas ~cls ~gen (Schedule.with_entries s entries) in
    match classify ~canonical o with Divergent _ -> true | _ -> false
  in
  let rec take k = function
    | [] -> ([], [])
    | x :: rest when k > 0 ->
      let a, b = take (k - 1) rest in
      (x :: a, b)
    | rest -> ([], rest)
  in
  let rec chunks n lst =
    if n <= 0 || lst = [] then []
    else
      let size = (List.length lst + n - 1) / n in
      let a, b = take size lst in
      a :: chunks (n - 1) b
  in
  let rec ddmin entries n =
    let len = List.length entries in
    if len <= 1 then entries
    else
      let parts = List.filter (fun c -> c <> []) (chunks n entries) in
      let complement i =
        List.concat (List.filteri (fun j _ -> j <> i) parts)
      in
      let rec try_subsets i = function
        | [] -> None
        | part :: rest ->
          if diverges part then Some (`Subset part)
          else if List.length parts > 2 && diverges (complement i) then
            Some (`Complement (complement i))
          else try_subsets (i + 1) rest
      in
      match try_subsets 0 parts with
      | Some (`Subset part) -> ddmin part 2
      | Some (`Complement c) -> ddmin c (max (n - 1) 2)
      | None ->
        if n < len then ddmin entries (min (2 * n) len) else entries
  in
  if not (diverges s.Schedule.entries) then (s, !probes, false)
  else
    let minimal = ddmin s.Schedule.entries 2 in
    (Schedule.with_entries s minimal, !probes, true)

(* ------------------------------- replay ------------------------------- *)

let replay ?replicas (s : Schedule.t) =
  let cls, gen = Detmt_workload.Catalog.find s.Schedule.workload in
  let canonical, _ = run_one ?replicas ~cls ~gen (Schedule.with_entries s []) in
  let outcome, _ = run_one ?replicas ~cls ~gen s in
  (classify ~canonical outcome, canonical, outcome)
