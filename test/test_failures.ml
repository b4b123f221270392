(* Failure-injection tests beyond the basic failover scenarios: failures
   during nested invocations, double failures, and duplicate-request
   suppression under client retry. *)

open Detmt_sim
open Detmt_replication

let b = Alcotest.bool

let figure1_cls = Detmt_workload.Figure1.cls Detmt_workload.Figure1.default

let figure1_gen = Detmt_workload.Figure1.gen Detmt_workload.Figure1.default

let build ?(scheduler = "mat") () =
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls:figure1_cls
      ~params:{ Active.default_params with scheduler }
      ()
  in
  (engine, system)

let survivors_consistent system =
  let r = Consistency.check (Active.live_replicas system) in
  r.Consistency.states_agree && r.Consistency.acquisitions_agree

let test_invoker_dies_mid_nested_call () =
  (* Replica 0 performs the nested invocations; killing it while calls are
     outstanding forces the new leader to re-issue them. *)
  let engine, system = build () in
  (* The very first nested call of the workload starts within a few ms;
     kill at t=5 to hit the in-flight window. *)
  Failover.kill_and_measure ~system ~replica:0 ~at:5.0;
  Client.run_clients ~engine ~system ~clients:4 ~requests_per_client:5
    ~gen:figure1_gen ~until_ms:60_000.0 ();
  Alcotest.(check int) "all requests answered" 20
    (Active.replies_received system);
  Alcotest.check b "survivors consistent" true (survivors_consistent system)

let test_two_failures () =
  let engine, system = build () in
  Failover.kill_and_measure ~system ~replica:0 ~at:30.0;
  Failover.kill_and_measure ~system ~replica:1 ~at:90.0;
  Client.run_clients ~engine ~system ~clients:4 ~requests_per_client:5
    ~gen:figure1_gen ~until_ms:60_000.0 ();
  Alcotest.(check int) "the last replica answers everything" 20
    (Active.replies_received system);
  Alcotest.(check int) "one survivor" 1
    (List.length (Active.live_replicas system))

let test_lsa_two_failures () =
  (* Two successive leader take-overs. *)
  let engine, system = build ~scheduler:"lsa" () in
  Failover.kill_and_measure ~system ~replica:0 ~at:40.0;
  Failover.kill_and_measure ~system ~replica:1 ~at:160.0;
  Client.run_clients ~engine ~system ~clients:4 ~requests_per_client:5
    ~gen:figure1_gen ~until_ms:60_000.0 ();
  Alcotest.(check int) "all requests answered" 20
    (Active.replies_received system)

let test_duplicate_requests_suppressed () =
  (* A client that re-submits (retry after a suspected failure) must not
     make the object state advance twice. *)
  let engine, system = build ~scheduler:"seq" () in
  let cls = Detmt_workload.Disjoint.cls Detmt_workload.Disjoint.default in
  ignore cls;
  let meth, args = figure1_gen ~client:0 ~seq:0 (Rng.create 5L) in
  let replies = ref 0 in
  for _attempt = 1 to 3 do
    Active.submit system ~client:0 ~client_req:0 ~meth ~args
      ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> incr replies)
  done;
  Engine.run engine;
  Alcotest.(check int) "one reply for one logical request" 1 !replies;
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d executed it once" (Detmt_runtime.Replica.id r))
        Detmt_workload.Figure1.default.iterations
        (List.assoc "state" (Detmt_runtime.Replica.state_snapshot r)))
    (Active.replicas system)

let test_dead_replica_state_frozen () =
  let engine, system = build () in
  Failover.kill_and_measure ~system ~replica:2 ~at:40.0;
  Client.run_clients ~engine ~system ~clients:4 ~requests_per_client:5
    ~gen:figure1_gen ~until_ms:60_000.0 ();
  let dead =
    List.find
      (fun r -> not (Detmt_runtime.Replica.alive r))
      (Active.replicas system)
  in
  let live = List.hd (Active.live_replicas system) in
  Alcotest.check b "dead replica stopped early" true
    (Detmt_runtime.Replica.completed_requests dead
    < Detmt_runtime.Replica.completed_requests live)

let test_failover_analysis_monotone () =
  (* Sanity of the take-over analysis: killing nothing yields no take-over. *)
  let engine, system = build () in
  Client.run_clients ~engine ~system ~clients:4 ~requests_per_client:5
    ~gen:figure1_gen ();
  let a = Failover.analyze ~kill_at:50.0 (Active.reply_times system) in
  Alcotest.check b "gaps are finite" true (a.Failover.gap_after_ms >= 0.0)

let suite =
  [ ("invoker dies mid nested call", `Quick,
     test_invoker_dies_mid_nested_call);
    ("two failures", `Quick, test_two_failures);
    ("lsa two failures", `Quick, test_lsa_two_failures);
    ("duplicate requests suppressed", `Quick,
     test_duplicate_requests_suppressed);
    ("dead replica state frozen", `Quick, test_dead_replica_state_frozen);
    ("failover analysis sane", `Quick, test_failover_analysis_monotone);
  ]

let () = Alcotest.run "failures" [ ("failures", suite) ]
