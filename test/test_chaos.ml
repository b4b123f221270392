(* Chaos layer tests: seeded fault injection, crash-recovery with state
   transfer, the runtime divergence detector, client retries and the
   deadlock diagnostics. *)

open Detmt_lang
open Detmt_gcs
open Detmt_replication

let b = Alcotest.bool

let cls = Detmt_workload.Figure1.cls Detmt_workload.Figure1.default
let gen = Detmt_workload.Figure1.gen Detmt_workload.Figure1.default

let run ?seed ?clients ?requests_per_client ?timeout_ms ~scenario ~scheduler
    () =
  match Chaos.find_scenario scenario with
  | None -> Alcotest.failf "unknown scenario %s" scenario
  | Some scenario ->
    Chaos.run ?seed ?clients ?requests_per_client ?timeout_ms ~scenario
      ~scheduler ~cls ~gen ()

(* Faults are a pure function of (seed, seq, sender, dest): planning the
   same transmission twice gives the same fate, whatever happened between
   the calls. *)
let test_fault_plan_replays () =
  let spec =
    { Faults.none with seed = 7L; jitter_ms = 0.5; loss_prob = 0.3;
      rto_ms = 2.0; max_retransmits = 3; dup_prob = 0.4; dup_extra_ms = 1.0 }
  in
  let f = Faults.create spec in
  for seq = 1 to 50 do
    let plan () =
      Faults.plan f ~seq ~sender:(seq mod 3) ~dest:((seq + 1) mod 3)
        ~sent_at:(float_of_int seq) ~base_latency_ms:0.5
    in
    let a = plan () and b' = plan () in
    Alcotest.check b "same transmission, same fate" true (a = b')
  done

(* The GCS contract survives a duplicating, jittery transport: every
   subscriber sees the sequence numbers in order, exactly once. *)
let test_totem_order_under_faults () =
  let engine = Detmt_sim.Engine.create () in
  let faults =
    Faults.create
      { Faults.none with seed = 11L; jitter_ms = 0.4; dup_prob = 0.6;
        dup_extra_ms = 1.0 }
  in
  let bus = Totem.create ~faults engine in
  let seen = Array.make 2 [] in
  for id = 0 to 1 do
    Totem.subscribe bus ~id (fun m ->
        seen.(id) <- m.Message.seq :: seen.(id))
  done;
  for _ = 1 to 40 do
    ignore (Totem.broadcast bus ~sender:0 "m")
  done;
  Detmt_sim.Engine.run engine;
  let expect = List.init 40 (fun i -> i) in
  for id = 0 to 1 do
    Alcotest.(check (list int))
      "in sequence order, exactly once" expect
      (List.rev seen.(id))
  done;
  Alcotest.check b "duplicates were injected and suppressed" true
    (Totem.suppressed_duplicates bus > 0)

(* A rejoining member never steals leadership from a survivor. *)
let test_group_rejoin_seniority () =
  let engine = Detmt_sim.Engine.create () in
  let grp = Group.create engine ~members:[ 0; 1; 2 ] ~detection_timeout_ms:5.0 in
  Group.kill grp 0;
  Detmt_sim.Engine.run engine;
  Alcotest.(check int) "leadership moved" 1 (Group.leader grp);
  Group.join grp 0;
  let view = Group.current_view grp in
  Alcotest.check b "join view installed" true (view.Group.cause = Group.Join 0);
  Alcotest.(check (list int)) "rejoiner back in the view" [ 0; 1; 2 ]
    view.Group.members;
  (* Seniority, not id order, decides leadership: the rejoiner re-enters at
     the back and must not reclaim the lead. *)
  Alcotest.(check int) "leadership kept by the survivor" 1 (Group.leader grp)

(* The divergence monitor pins the first mismatching checkpoint and names
   the differing fields. *)
let test_divergence_monitor () =
  let monitor = Consistency.create_monitor () in
  let fired = ref 0 in
  Consistency.set_on_divergence monitor (fun _ -> incr fired);
  Consistency.observe monitor ~replica:0 ~seq:1 ~hash:10L
    ~state:[ ("acc", 3) ];
  Consistency.observe monitor ~replica:1 ~seq:1 ~hash:10L
    ~state:[ ("acc", 3) ];
  Alcotest.(check (option reject)) "consistent checkpoints" None
    (Consistency.first_divergence monitor);
  Consistency.observe monitor ~replica:0 ~seq:2 ~hash:20L
    ~state:[ ("acc", 5) ];
  Consistency.observe monitor ~replica:2 ~seq:2 ~hash:21L
    ~state:[ ("acc", 6) ];
  (match Consistency.first_divergence monitor with
  | None -> Alcotest.fail "divergence not detected"
  | Some d ->
    Alcotest.(check int) "pinned to the first bad seq" 2 d.Consistency.seq;
    Alcotest.check b "differing field named" true
      (List.mem ("acc", 5, 6) d.Consistency.differing_fields));
  Alcotest.(check int) "hook fired once" 1 !fired;
  Alcotest.check b "comparisons counted" true
    (Consistency.checkpoints_compared monitor >= 2)

(* Aggressive client timeouts cause resubmissions; the dedup layer keeps the
   end-to-end exactly-once contract anyway. *)
let test_retries_stay_exactly_once () =
  let o =
    run ~clients:2 ~requests_per_client:3 ~timeout_ms:5.0 ~scenario:"lossy"
      ~scheduler:"sat" ()
  in
  let r = o.Chaos.o_run in
  Alcotest.check b "timeouts forced retries" true (r.o_retries > 0);
  Alcotest.(check int) "every request answered" r.o_expected r.o_replies;
  Alcotest.(check int) "no request answered twice" 0 r.o_duplicate_replies;
  Alcotest.check b "all invariants hold" true (Chaos.ok o)

(* A killed replica rejoins via state transfer and converges with the
   survivors. *)
let test_recovery_converges () =
  List.iter
    (fun scheduler ->
      let o =
        run ~clients:2 ~requests_per_client:3 ~scenario:"crash-recover"
          ~scheduler ()
      in
      Alcotest.(check int)
        (scheduler ^ ": recovery completed")
        1 o.Chaos.o_run.o_recoveries;
      Alcotest.check b
        (scheduler ^ ": recovered state agrees")
        true
        (List.for_all
           (fun r -> r.Consistency.states_agree)
           o.Chaos.o_run.o_reports);
      Alcotest.check b (scheduler ^ ": invariants hold") true (Chaos.ok o))
    [ "seq"; "lsa"; "pds" ]

(* Recovery from the trimmed broadcast log.  A figure1 MAT group loses a
   replica once 512 requests are answered; the replica rejoins from a
   quiescent donor and replays the donor's missed suffix.  Every delivery
   to replica 0, the donor, lands 20 ms late, so the other survivor has
   delivered messages the donor has not: trimming the log at any watermark
   above the lowest live one would drop part of the suffix the recovered
   replica needs.  The log holds only messages some live replica has not
   delivered, so it stays within two messages per client (one request, one
   nested reply) for the whole run and drains at the end.  The replayed
   count, the recovered incarnation's completions and its acquisition
   fingerprint are pinned to the values of the untrimmed log that kept
   every broadcast; the recovered replica's acquisitions cover only its
   second incarnation, so they are pinned rather than compared with the
   survivors'. *)
let test_recovery_from_trimmed_log () =
  let module Engine = Detmt_sim.Engine in
  let module Replica = Detmt_runtime.Replica in
  let clients = 10 in
  let engine = Engine.create () in
  let obs = Detmt_obs.Recorder.create () in
  let system =
    Active.create ~obs ~engine ~cls
      ~params:{ Active.default_params with scheduler = "mat" }
      ()
  in
  Active.set_delivery_oracle system
    (Some
       (fun ~seq:_ ~sender:_ ~dest ~planned_ms:_ ->
         if dest = 0 then 20.0 else 0.0));
  let killed_after = ref 0 and peak_log = ref 0 in
  let rec poll () =
    peak_log := max !peak_log (Active.logged_messages system);
    if !killed_after = 0 && Active.replies_received system >= 512 then begin
      killed_after := Active.replies_received system;
      Active.kill_replica system 2;
      Active.recover_replica system ~at:(Engine.now engine +. 20.0) 2
    end;
    if Active.replies_received system < clients * 103 then
      Engine.schedule engine ~delay:5.0 poll
  in
  Engine.schedule engine ~delay:5.0 poll;
  Client.run_clients ~engine ~system ~clients ~requests_per_client:103
    ~think_time_ms:120.0 ~gen ();
  let replayed =
    match
      Detmt_obs.Metrics.view
        (Detmt_obs.Recorder.metrics obs)
        "active.recovery.replayed_msgs"
    with
    | Some (Detmt_obs.Metrics.Hist_view h) -> Detmt_obs.Hdr.total h
    | _ -> Alcotest.fail "no recovery observed"
  in
  Alcotest.check b "crashed after 512 replies" true (!killed_after >= 512);
  Alcotest.(check int) "one recovery" 1 (Active.recoveries system);
  Alcotest.(check int) "every request answered" (clients * 103)
    (Active.replies_received system);
  Alcotest.(check (float 0.0)) "replayed suffix as with the full log" 3.0
    replayed;
  Alcotest.check b "log bounded by the messages in flight" true
    (!peak_log <= 2 * clients);
  Alcotest.(check int) "log drained" 0 (Active.logged_messages system);
  match Active.replicas system with
  | [ r0; r1; r2 ] ->
    List.iter
      (fun r ->
        Alcotest.check b
          (Printf.sprintf "replica %d alive" (Replica.id r))
          true (Replica.alive r))
      [ r0; r1; r2 ];
    Alcotest.(check (list (pair string int))) "recovered state agrees"
      (Replica.state_snapshot r0) (Replica.state_snapshot r2);
    Alcotest.(check (list (pair string int))) "survivor states agree"
      (Replica.state_snapshot r0) (Replica.state_snapshot r1);
    Alcotest.(check int64) "survivor acquisitions agree"
      (Replica.mutex_acquisition_fingerprint r0)
      (Replica.mutex_acquisition_fingerprint r1);
    Alcotest.(check int) "recovered incarnation's completions" 344
      (Replica.completed_requests r2);
    Alcotest.(check int64) "recovered acquisitions as with the full log"
      0xe4466a17015af865L
      (Replica.mutex_acquisition_fingerprint r2)
  | _ -> Alcotest.fail "three replicas expected"

(* The full quick sweep: every scenario crossed with every deterministic
   scheduler upholds the robustness invariants. *)
let test_sweep_invariants () =
  let outcomes =
    Chaos.sweep ~clients:2 ~requests_per_client:3 ~cls ~gen ()
  in
  Alcotest.(check int) "full cross product"
    (List.length Chaos.scenarios * List.length Chaos.default_schedulers)
    (List.length outcomes);
  List.iter
    (fun o ->
      Alcotest.check b
        (Printf.sprintf "%s/%s ok" o.Chaos.o_scenario o.Chaos.o_scheduler)
        true (Chaos.ok o))
    outcomes

(* Same seed, same run — the fingerprint folds every replica's state and
   acquisition trace with the run shape, so equality means the whole run
   replayed bit for bit. *)
let test_seeded_determinism () =
  List.iter
    (fun (scenario, scheduler) ->
      let once () =
        run ~seed:99L ~clients:2 ~requests_per_client:3 ~scenario ~scheduler ()
      in
      let a = once () and b' = once () in
      Alcotest.check b
        (Printf.sprintf "%s/%s replays bit-identically" scenario scheduler)
        true
        (Int64.equal a.Chaos.o_fingerprint b'.Chaos.o_fingerprint
        && a.Chaos.o_run.o_retries = b'.Chaos.o_run.o_retries
        && a.Chaos.o_losses = b'.Chaos.o_losses
        && a.Chaos.o_run.o_duration_ms = b'.Chaos.o_run.o_duration_ms))
    [ ("lossy", "pds"); ("dup-storm", "lsa"); ("lossy-crash-recover", "mat") ]

(* A request that parks on a condvar nobody notifies must surface as a
   deadlock report naming the stuck client, the unanswered request and the
   blocked thread — not as a silent hang. *)
let test_deadlock_diagnostics () =
  let open Builder in
  let cls =
    Builder.cls ~cname:"Stuck" ~state_fields:[ "f" ]
      [ meth "stall" ~params:1 [ sync this [ wait this ] ] ]
  in
  let engine = Detmt_sim.Engine.create () in
  let system = Active.create ~engine ~cls ~params:Active.default_params () in
  let gen ~client:_ ~seq:_ _rng = ("stall", [| Ast.Vint 0 |]) in
  match
    Client.run_clients_stats ~engine ~system ~clients:1
      ~requests_per_client:1 ~gen ()
  with
  | _ -> Alcotest.fail "deadlock not reported"
  | exception Failure msg ->
    let has needle =
      let n = String.length needle and m = String.length msg in
      let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
      at 0
    in
    List.iter
      (fun needle ->
        Alcotest.check b (Printf.sprintf "mentions %S" needle) true
          (has needle))
      [ "still waiting"; "stuck clients: client 0"; "client 0 req 0";
        "replica 0"; "waiting(mutex" ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chaos"
    [ ( "chaos",
        [ tc "fault plans replay" `Quick test_fault_plan_replays;
          tc "totem order survives faults" `Quick
            test_totem_order_under_faults;
          tc "rejoin keeps seniority" `Quick test_group_rejoin_seniority;
          tc "divergence monitor" `Quick test_divergence_monitor;
          tc "retries stay exactly-once" `Quick
            test_retries_stay_exactly_once;
          tc "recovery converges" `Quick test_recovery_converges;
          tc "recovery from the trimmed log" `Quick
            test_recovery_from_trimmed_log;
          tc "sweep invariants" `Slow test_sweep_invariants;
          tc "seeded determinism" `Quick test_seeded_determinism;
          tc "deadlock diagnostics" `Quick test_deadlock_diagnostics ] ) ]
