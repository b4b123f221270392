(* Tests for deterministic elastic reconfiguration: the epoch-versioned
   router, the 1-group epoch-0 ≡ Active contract, split / merge / hot
   swap at drained barriers, retry re-routing across epochs, the
   autoscaling controller, and the determinism oracles. *)

open Detmt_sim
open Detmt_replication

let b = Alcotest.bool
let i = Alcotest.int

let wl cross_ratio =
  { Detmt_workload.Sharded.default with Detmt_workload.Sharded.cross_ratio }

let make ?(scheduler = "mat") ?(initial_groups = 1) ?(slots = 64)
    ?(cross = 0.0) ?(drain_timeout_ms = 2000.0) ?obs ?on_group () =
  let workload = wl cross in
  let engine = Engine.create () in
  let base = { Active.default_params with Active.scheduler } in
  let system =
    Reconfig.create ?obs ?on_group ~engine
      ~cls:(Detmt_workload.Sharded.cls workload)
      ~params:
        { Reconfig.default_params with
          Reconfig.initial_groups; slots; drain_timeout_ms; base }
      ()
  in
  (engine, system, Detmt_workload.Sharded.gen workload)

let drive ?(clients = 8) ?(requests = 6) ?(seed = 7L) ?timeout_ms
    ?max_retries system gen =
  Reconfig.run_clients_stats system ~clients ~requests_per_client:requests
    ~gen ~seed ?timeout_ms ?max_retries ()

let total ~clients ~requests = clients * requests

let aggregate system = List.assoc "state" (Reconfig.aggregate_state system)

(* -------------------- 1-group epoch-0 equivalence -------------------- *)

(* A Reconfig with one group and no commands must be byte-for-byte the
   unsharded Active path: same total order, same replica states, same
   client-visible replies. *)
let test_one_group_equals_one_shard () =
  let workload = wl 0.3 in
  let gen = Detmt_workload.Sharded.gen workload in
  let run_active () =
    let engine = Engine.create () in
    let system =
      Active.create ~engine
        ~cls:(Detmt_workload.Sharded.cls workload)
        ~params:Active.default_params ()
    in
    Client.run_clients ~engine ~system ~clients:8 ~requests_per_client:5 ~gen
      ~seed:3L ();
    ( Active.replies_received system,
      Active.reply_times system,
      Active.order_fingerprint system )
  in
  let run_elastic () =
    let _, system, _ = make ~cross:0.3 () in
    ignore
      (Reconfig.run_clients_stats system ~clients:8 ~requests_per_client:5
         ~gen ~seed:3L ());
    ( Reconfig.replies_received system,
      Reconfig.reply_times system,
      Active.order_fingerprint (List.hd (Reconfig.live_systems system)) )
  in
  let sr, st, sf = run_active () in
  let rr, rt, rf = run_elastic () in
  Alcotest.check i "same replies" sr rr;
  Alcotest.(check (list (float 1e-9))) "same reply times" st rt;
  Alcotest.check b "same total order" true (Int64.equal sf rf)

(* ------------------------------ routing ------------------------------ *)

let test_routing_follows_owner_table () =
  let _, system, _ = make ~initial_groups:2 ~cross:0.0 () in
  for m = 0 to 99 do
    let gs =
      Reconfig.group_set system ~meth:"update"
        ~args:[| Detmt_lang.Ast.Vmutex m |]
    in
    Alcotest.(check (list int)) "update routes to its slot's owner"
      [ Reconfig.route_of system m ] gs
  done

let test_validation () =
  let _, system, _ = make ~initial_groups:2 () in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.check b "merge into itself rejected" true
    (raises (fun () ->
         Reconfig.request system (Reconfig.Merge { from_g = 0; into = 0 })));
  Alcotest.check b "unknown scheduler rejected" true
    (raises (fun () ->
         Reconfig.request system
           (Reconfig.Hot_swap { group = 0; scheduler = "nope" })));
  Alcotest.check b "out-of-range group rejected" true
    (raises (fun () -> Reconfig.request system (Reconfig.Split 7)))

(* --------------------------- split / merge --------------------------- *)

let test_split_mid_run () =
  let _, system, gen = make () in
  Reconfig.request_at system ~at:8.0 (Reconfig.Split 0);
  let stats = drive ~clients:8 ~requests:8 system gen in
  Alcotest.check i "all replies" (total ~clients:8 ~requests:8)
    stats.Client.run_completed;
  Alcotest.check i "epoch advanced" 1 (Reconfig.epoch system);
  Alcotest.check i "two live groups" 2 (Reconfig.group_count system);
  Alcotest.check i "one split" 1 (Reconfig.splits system);
  Alcotest.check b "both groups saw traffic" true
    (List.for_all
       (fun sys -> Active.replies_received sys > 0)
       (Reconfig.live_systems system));
  Alcotest.check b "replicas agree everywhere" true
    (Reconfig.consistent system);
  Alcotest.check b "barrier fingerprints agree" true
    (Reconfig.epochs_agree system);
  Alcotest.check i "aggregate state = executed requests"
    (total ~clients:8 ~requests:8)
    (aggregate system)

(* Split then merge back into the donor restores the static routing table,
   and — update-only workload, commutative counters — the aggregate state
   lands exactly where a static run puts it. *)
let test_split_then_merge_restores_static () =
  let clients = 8 and requests = 10 in
  let static () =
    let _, system, gen = make () in
    let stats = drive ~clients ~requests system gen in
    (stats.Client.run_completed, aggregate system,
     List.init 64 (Reconfig.route_of system))
  in
  let elastic () =
    let _, system, gen = make () in
    Reconfig.request_at system ~at:6.0 (Reconfig.Split 0);
    Reconfig.request_at system ~at:20.0
      (Reconfig.Merge { from_g = 1; into = 0 });
    let stats = drive ~clients ~requests system gen in
    Alcotest.check i "two transitions" 2 (Reconfig.epoch system);
    Alcotest.check i "one live group again" 1 (Reconfig.group_count system);
    Alcotest.check b "whole history consistent" true
      (Reconfig.consistent system);
    Alcotest.check b "epochs observed bit-identically" true
      (Reconfig.epochs_agree system);
    (stats.Client.run_completed, aggregate system,
     List.init 64 (Reconfig.route_of system))
  in
  let sr, ss, sroute = static () in
  let er, es, eroute = elastic () in
  Alcotest.check i "same replies" sr er;
  Alcotest.check i "same aggregate state" ss es;
  Alcotest.(check (list int)) "routing table restored" sroute eroute

let test_merge_carries_dedup_and_state () =
  let _, system, gen = make ~initial_groups:2 () in
  Reconfig.request_at system ~at:10.0
    (Reconfig.Merge { from_g = 1; into = 0 });
  let stats = drive ~clients:8 ~requests:8 system gen in
  Alcotest.check i "all replies" (total ~clients:8 ~requests:8)
    stats.Client.run_completed;
  Alcotest.check i "one live group" 1 (Reconfig.group_count system);
  Alcotest.check i "aggregate preserved across the merge"
    (total ~clients:8 ~requests:8)
    (aggregate system);
  Alcotest.check i "no duplicate replies" 0
    (Reconfig.duplicate_client_replies system);
  Alcotest.check b "retired group still consistent" true
    (Reconfig.consistent system)

(* ------------------------------ hot swap ----------------------------- *)

let test_hot_swap_mid_run () =
  let _, system, gen = make ~scheduler:"sat" () in
  Reconfig.request_at system ~at:8.0
    (Reconfig.Hot_swap { group = 0; scheduler = "pds" });
  let stats = drive ~clients:8 ~requests:8 system gen in
  Alcotest.check i "all replies" (total ~clients:8 ~requests:8)
    stats.Client.run_completed;
  Alcotest.check i "one swap" 1 (Reconfig.swaps system);
  Alcotest.(check string)
    "group now runs the new scheduler" "pds"
    (Active.scheduler_name (List.hd (Reconfig.live_systems system)));
  Alcotest.check i "state carried across the swap"
    (total ~clients:8 ~requests:8)
    (aggregate system);
  Alcotest.check b "old and new incarnations consistent" true
    (Reconfig.consistent system)

(* Regression: reincarnating under a serial scheduler clamps the pool to 1
   worker; swapping back onto a conflict-graph scheduler must restore the
   originally configured width, not inherit the clamp. *)
let test_hot_swap_restores_pool_width () =
  let workload = wl 0.0 in
  let engine = Engine.create () in
  let base =
    { Active.default_params with Active.scheduler = "cgs"; workers = 4 }
  in
  let system =
    Reconfig.create ~engine
      ~cls:(Detmt_workload.Sharded.cls workload)
      ~params:{ Reconfig.default_params with Reconfig.base }
      ()
  in
  let gen = Detmt_workload.Sharded.gen workload in
  Reconfig.request_at system ~at:8.0
    (Reconfig.Hot_swap { group = 0; scheduler = "seq" });
  Reconfig.request_at system ~at:60.0
    (Reconfig.Hot_swap { group = 0; scheduler = "cgs" });
  let stats = drive ~clients:8 ~requests:8 system gen in
  Alcotest.check i "all replies" (total ~clients:8 ~requests:8)
    stats.Client.run_completed;
  Alcotest.check i "two swaps" 2 (Reconfig.swaps system);
  let sys = List.hd (Reconfig.live_systems system) in
  Alcotest.(check string) "back on cgs" "cgs" (Active.scheduler_name sys);
  Alcotest.check i "configured pool width restored" 4
    (Active.params sys).Active.workers;
  Alcotest.check b "all incarnations consistent" true
    (Reconfig.consistent system)

let test_hot_swap_same_scheduler_is_noop () =
  let _, system, gen = make ~scheduler:"mat" () in
  Reconfig.request_at system ~at:8.0
    (Reconfig.Hot_swap { group = 0; scheduler = "mat" });
  ignore (drive system gen);
  Alcotest.check i "no swap applied" 0 (Reconfig.swaps system);
  Alcotest.check i "transition aborted instead" 1
    (Reconfig.aborted_transitions system);
  Alcotest.check i "epoch unchanged" 0 (Reconfig.epoch system)

(* A hot swap racing a crash and a scheduled recovery: the swap must not
   resurrect the dead replica, and the recovery lands on the group's
   current incarnation when it fires. *)
let test_hot_swap_races_recovery () =
  let engine, system, gen = make ~scheduler:"mat" () in
  Engine.schedule_at engine ~time:5.0 (fun () ->
      Reconfig.kill_replica system ~group:0 ~offset:2);
  Reconfig.request_at system ~at:10.0
    (Reconfig.Hot_swap { group = 0; scheduler = "lsa" });
  Reconfig.recover_replica system ~group:0 ~offset:2 ~at:60.0;
  let stats = drive ~clients:8 ~requests:10 system gen in
  Alcotest.check i "all replies" (total ~clients:8 ~requests:10)
    stats.Client.run_completed;
  Alcotest.check i "swap applied" 1 (Reconfig.swaps system);
  Alcotest.check i "recovery completed in the new incarnation" 1
    (Reconfig.recoveries system);
  let sys = List.hd (Reconfig.live_systems system) in
  Alcotest.check i "all replicas live again" 3
    (List.length (Active.live_replicas sys));
  (* a recovered replica's trace covers only its suffix; state agreement is
     the post-recovery contract, as in the chaos harness *)
  Alcotest.check b "states agree after the race" true
    (Reconfig.states_agree system)

(* -------------------- retries across the barrier --------------------- *)

(* Client retries with a timeout short enough to fire during the drain
   window: the retry is held, re-routed under the new epoch, and the dedup
   ledger the split group inherited keeps execution exactly-once. *)
let test_retry_straddles_split () =
  let _, system, gen = make () in
  Reconfig.request_at system ~at:6.0 (Reconfig.Split 0);
  Reconfig.request_at system ~at:30.0 (Reconfig.Split 1);
  let stats =
    drive ~clients:12 ~requests:8 ~timeout_ms:3.0 ~max_retries:40 system gen
  in
  Alcotest.check i "all replies exactly once" (total ~clients:12 ~requests:8)
    stats.Client.run_completed;
  Alcotest.check b "timeouts actually fired" true
    (stats.Client.run_retries > 0);
  Alcotest.check b "some submissions queued behind a barrier" true
    (Reconfig.held_requests system > 0);
  Alcotest.check i "no duplicate replies" 0
    (Reconfig.duplicate_client_replies system);
  Alcotest.check i "every request executed exactly once"
    (total ~clients:12 ~requests:8)
    (aggregate system);
  Alcotest.check i "three live groups" 3 (Reconfig.group_count system)

(* ------------------------- drain timeout ----------------------------- *)

let test_drain_timeout_aborts () =
  let _, system, gen = make ~drain_timeout_ms:0.0 () in
  (* with a zero budget, any in-flight traffic at the barrier aborts *)
  Reconfig.request_at system ~at:5.0 (Reconfig.Split 0);
  let stats = drive ~clients:8 ~requests:8 system gen in
  Alcotest.check i "all replies" (total ~clients:8 ~requests:8)
    stats.Client.run_completed;
  Alcotest.check i "command aborted" 1 (Reconfig.aborted_transitions system);
  Alcotest.check i "epoch unchanged" 0 (Reconfig.epoch system);
  Alcotest.check i "still one group" 1 (Reconfig.group_count system)

(* --------------------------- autoscaling ----------------------------- *)

let hotspot_make ?(scheduler = "mat") () =
  (* update-only so the aggregate counter counts executions exactly once
     per request (a transfer bumps it twice on every involved group) *)
  let workload =
    { Detmt_workload.Hotspot.default with
      Detmt_workload.Hotspot.cross_ratio = 0.0 }
  in
  let engine = Engine.create () in
  let base = { Active.default_params with Active.scheduler } in
  let system =
    Reconfig.create ~engine
      ~cls:(Detmt_workload.Hotspot.cls workload)
      ~params:{ Reconfig.default_params with Reconfig.base }
      ()
  in
  (engine, system, Detmt_workload.Hotspot.gen workload)

let autoscaled_run () =
  let _, system, gen = hotspot_make () in
  Reconfig.set_autoscale system
    { Reconfig.interval_ms = 5.0; split_above = 8; merge_below = 2;
      max_live = 4 };
  let stats =
    Reconfig.run_clients_stats system ~clients:48 ~requests_per_client:6 ~gen
      ~seed:11L ()
  in
  (system, stats)

let test_autoscaler_splits_under_load () =
  let system, stats = autoscaled_run () in
  Alcotest.check i "all replies" (48 * 6) stats.Client.run_completed;
  Alcotest.check b "controller split at least once" true
    (Reconfig.splits system >= 1);
  Alcotest.check b "never above the policy ceiling" true
    (Reconfig.group_count system <= 4);
  Alcotest.check b "consistent" true (Reconfig.consistent system);
  Alcotest.check b "epochs agree" true (Reconfig.epochs_agree system);
  Alcotest.check i "exactly-once under elasticity" (48 * 6)
    (aggregate system)

let test_autoscaled_run_is_reproducible () =
  let s1, _ = autoscaled_run () in
  let s2, _ = autoscaled_run () in
  Alcotest.check b "same fingerprint" true
    (Int64.equal (Reconfig.fingerprint s1) (Reconfig.fingerprint s2));
  Alcotest.(check (list Alcotest.(pair int int)))
    "same transition schedule"
    (List.map
       (fun tr -> (tr.Reconfig.tr_epoch, tr.Reconfig.tr_barrier_seq))
       (Reconfig.transitions s1))
    (List.map
       (fun tr -> (tr.Reconfig.tr_epoch, tr.Reconfig.tr_barrier_seq))
       (Reconfig.transitions s2))

(* Elastic runs stay deterministic under every registered deterministic
   scheduler: same seed, same command schedule → same fingerprint. *)
let test_deterministic_across_schedulers () =
  List.iter
    (fun scheduler ->
      let run () =
        let _, system, gen = make ~scheduler () in
        Reconfig.request_at system ~at:6.0 (Reconfig.Split 0);
        Reconfig.request_at system ~at:20.0
          (Reconfig.Merge { from_g = 1; into = 0 });
        ignore (drive system gen);
        system
      in
      let s1 = run () and s2 = run () in
      Alcotest.check b
        (scheduler ^ ": equal-seed elastic runs identical")
        true
        (Int64.equal (Reconfig.fingerprint s1) (Reconfig.fingerprint s2));
      Alcotest.check b
        (scheduler ^ ": epochs agree")
        true (Reconfig.epochs_agree s1))
    Chaos.default_schedulers

(* ------------------------- pooled latches -------------------------- *)

(* One request's submit -> reply round through a warmed single-group
   Reconfig (three MAT replicas) allocates what the same round through
   {!Active} does (132 words; see test_replication) plus 12 words of boxed
   floats in its own reply accounting: the response time, its statistics
   and the client arrival time.  The latch is a pooled slot behind an int
   table and adds nothing: its record and Hashtbl bucket, with the Active
   tables that were not pooled either, cost 171 words per round before. *)
let test_round_words () =
  let cls =
    let open Detmt_lang.Builder in
    cls ~cname:"Counter" ~state_fields:[ "st" ] ~mutex_fields:[]
      [ meth "incr" ~params:0 [ sync this [ state_incr "st" 1 ] ] ]
  in
  let engine = Engine.create () in
  let system =
    Reconfig.create ~engine ~cls ~params:Reconfig.default_params ()
  in
  let next = ref 0 and replies = ref 0 in
  let on_reply ~client:_ ~client_req:_ ~response_ms:_ = incr replies in
  let round () =
    Reconfig.submit system ~client:0 ~client_req:!next ~meth:"incr"
      ~args:[||] ~on_reply;
    incr next;
    Engine.run engine
  in
  (* the warm-up grows the per-request ledgers past the 27 100 entries the
     check reaches *)
  for _ = 1 to 17_000 do
    round ()
  done;
  No_alloc.check_words "minor words per submit/reply round" ~words:144 round;
  Alcotest.(check int) "every request answered once" 27_100 !replies;
  Alcotest.(check int) "every latch drained" 27_100
    (Reconfig.replies_received system)

let () =
  Alcotest.run "reconfig"
    [ ( "equivalence",
        [ Alcotest.test_case "one group epoch 0 = one shard" `Quick
            test_one_group_equals_one_shard ] );
      ( "routing",
        [ Alcotest.test_case "owner table drives routing" `Quick
            test_routing_follows_owner_table;
          Alcotest.test_case "command validation" `Quick test_validation ] );
      ( "split-merge",
        [ Alcotest.test_case "split mid-run" `Quick test_split_mid_run;
          Alcotest.test_case "split then merge = static" `Quick
            test_split_then_merge_restores_static;
          Alcotest.test_case "merge carries dedup and state" `Quick
            test_merge_carries_dedup_and_state ] );
      ( "hot-swap",
        [ Alcotest.test_case "swap mid-run" `Quick test_hot_swap_mid_run;
          Alcotest.test_case "swap back restores pool width" `Quick
            test_hot_swap_restores_pool_width;
          Alcotest.test_case "same scheduler is a no-op" `Quick
            test_hot_swap_same_scheduler_is_noop;
          Alcotest.test_case "swap races recovery" `Quick
            test_hot_swap_races_recovery ] );
      ( "retries",
        [ Alcotest.test_case "retry straddles a split" `Quick
            test_retry_straddles_split ] );
      ( "drain",
        [ Alcotest.test_case "timeout aborts the command" `Quick
            test_drain_timeout_aborts ] );
      ( "latches",
        [ Alcotest.test_case "a warmed submit/reply round allocates nothing \
                              in its latches" `Quick test_round_words ] );
      ( "autoscale",
        [ Alcotest.test_case "splits under load" `Quick
            test_autoscaler_splits_under_load;
          Alcotest.test_case "reproducible" `Quick
            test_autoscaled_run_is_reproducible;
          Alcotest.test_case "deterministic across schedulers" `Quick
            test_deterministic_across_schedulers ] );
    ]
