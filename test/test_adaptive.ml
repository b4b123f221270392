(* Tests for the adaptive scheduler (section 5: the runtime request
   analyser). *)

open Detmt_sim
open Detmt_replication

let b = Alcotest.bool

let test_recommend () =
  let predictable =
    Some
      { Detmt_analysis.Predict.class_name = "C";
        methods =
          [ { Detmt_analysis.Predict.mname = "m"; fallback = false;
              fallback_reason = None; sids = []; loops = [];
              uses_condvars = false } ] }
  in
  let fallback =
    Some
      { Detmt_analysis.Predict.class_name = "C";
        methods =
          [ Detmt_analysis.Predict.fallback_summary ~mname:"m"
              ~reason:"recursion" ] }
  in
  Alcotest.(check string) "sequential clients -> seq" "seq"
    (Detmt_sched.Adaptive.recommend ~workers:1 ~conflict_rate:1.0
       ~summary:predictable
       ~avg_concurrency:1.0);
  Alcotest.(check string) "predictable + marginal overlap -> psat" "psat"
    (Detmt_sched.Adaptive.recommend ~workers:1 ~conflict_rate:1.0
       ~summary:predictable
       ~avg_concurrency:1.5);
  Alcotest.(check string) "predictable + concurrent -> pmat" "pmat"
    (Detmt_sched.Adaptive.recommend ~workers:1 ~conflict_rate:1.0
       ~summary:predictable
       ~avg_concurrency:4.0);
  Alcotest.(check string) "predictable + heavy fan-in -> ppds" "ppds"
    (Detmt_sched.Adaptive.recommend ~workers:1 ~conflict_rate:1.0
       ~summary:predictable
       ~avg_concurrency:64.0);
  Alcotest.(check string) "unpredictable + marginal overlap -> mat" "mat"
    (Detmt_sched.Adaptive.recommend ~workers:1 ~conflict_rate:1.0
       ~summary:fallback ~avg_concurrency:1.5);
  Alcotest.(check string) "unpredictable + concurrent -> mat" "mat"
    (Detmt_sched.Adaptive.recommend ~workers:1 ~conflict_rate:1.0
       ~summary:fallback ~avg_concurrency:4.0);
  Alcotest.(check string) "no summary -> mat" "mat"
    (Detmt_sched.Adaptive.recommend ~workers:1 ~conflict_rate:1.0
       ~summary:None ~avg_concurrency:4.0);
  Alcotest.(check string) "pool + low conflict -> cgs" "cgs"
    (Detmt_sched.Adaptive.recommend ~workers:4 ~conflict_rate:0.0
       ~summary:predictable ~avg_concurrency:4.0);
  Alcotest.(check string) "no pool keeps pmat despite low conflict" "pmat"
    (Detmt_sched.Adaptive.recommend ~workers:1 ~conflict_rate:0.0
       ~summary:predictable ~avg_concurrency:4.0);
  Alcotest.(check string) "pool + contended locks keeps pmat" "pmat"
    (Detmt_sched.Adaptive.recommend ~workers:4 ~conflict_rate:0.5
       ~summary:predictable ~avg_concurrency:4.0);
  Alcotest.(check string) "pool + unpredictable -> mat, never cgs" "mat"
    (Detmt_sched.Adaptive.recommend ~workers:4 ~conflict_rate:0.0
       ~summary:fallback ~avg_concurrency:4.0)

let run_adaptive ~clients ~requests =
  let wl = Detmt_workload.Disjoint.default in
  let cls = Detmt_workload.Disjoint.cls wl in
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls
      ~params:{ Active.default_params with scheduler = "adaptive" }
      ()
  in
  Client.run_clients ~engine ~system ~clients ~requests_per_client:requests
    ~gen:Detmt_workload.Disjoint.gen ();
  system

let test_completes_and_consistent () =
  let system = run_adaptive ~clients:6 ~requests:10 in
  Alcotest.(check int) "all replies" 60 (Active.replies_received system);
  let r = Consistency.check (Active.live_replicas system) in
  Alcotest.check b "replicas agree" true (Consistency.consistent r)

let test_switches_deterministically () =
  let fp () =
    let system = run_adaptive ~clients:6 ~requests:10 in
    List.map
      (fun r -> Trace.fingerprint (Detmt_runtime.Replica.trace r))
      (Active.replicas system)
  in
  Alcotest.check b "same run twice" true (fp () = fp ())

let test_single_client_switches_to_seq () =
  (* One closed-loop client: observed concurrency is 1, so after the first
     window the analyser must pick SEQ. *)
  let switches = ref [] in
  let wl = Detmt_workload.Disjoint.default in
  let cls = Detmt_workload.Disjoint.cls wl in
  let instrumented, summary = Detmt_transform.Transform.predictive cls in
  ignore instrumented;
  (* Drive the decision function the way the wrapper does: 1 alive thread at
     every delivery. *)
  let name =
    Detmt_sched.Adaptive.recommend ~workers:1 ~conflict_rate:1.0
       ~summary:(Some summary)
      ~avg_concurrency:1.0
  in
  switches := [ name ];
  Alcotest.(check (list string)) "seq picked" [ "seq" ] !switches

let test_on_switch_fires () =
  (* End-to-end: a concurrent, fully predictable workload must run under
     pmat.  The meta-scheduler books under its children's names, so the
     chosen child shows in the recorder's sched.<child>.* counters. *)
  let wl = Detmt_workload.Disjoint.default in
  let cls = Detmt_workload.Disjoint.cls wl in
  let instrumented, summary = Detmt_transform.Transform.predictive cls in
  let engine = Engine.create () in
  let obs = Detmt_obs.Recorder.create () in
  let callbacks =
    { Detmt_runtime.Replica.send_reply = (fun _ -> ());
      do_nested = (fun ~tid:_ ~call_index:_ ~service:_ ~duration:_ -> ());
      broadcast_control = (fun _ -> ());
      inject_dummy = (fun () -> ());
      is_leader = (fun () -> true) }
  in
  let make_sched actions =
    Detmt_sched.Adaptive.of_config
      ~instantiate:Detmt_sched.Registry.instantiate
      (Detmt_sched.Sched_config.make ~summary "adaptive")
      actions
  in
  let replica =
    Detmt_runtime.Replica.create ~engine ~id:0 ~cls:instrumented
      ~config:Detmt_runtime.Config.default ~obs ~callbacks ~make_sched ()
  in
  (* Deliver requests in overlapping bursts so concurrency > 1. *)
  for i = 0 to 11 do
    let meth, args =
      Detmt_workload.Disjoint.gen ~client:(i mod 3) ~seq:i (Rng.create 1L)
    in
    Detmt_runtime.Replica.deliver_request replica
      (Detmt_runtime.Request.make ~uid:i ~client:(i mod 3) ~client_req:i
         ~meth ~args ~sent_at:0.0)
  done;
  Engine.run engine;
  Alcotest.(check int) "all processed" 12
    (Detmt_runtime.Replica.completed_requests replica);
  let grants =
    Detmt_obs.Metrics.counter_value
      (Detmt_obs.Recorder.metrics obs)
      "sched.pmat.grants"
  in
  Alcotest.check b "initial choice was pmat (predictable class)" true
    (grants > 0)

let suite =
  [ ("recommend", `Quick, test_recommend);
    ("completes and consistent", `Quick, test_completes_and_consistent);
    ("deterministic switches", `Quick, test_switches_deterministically);
    ("single client -> seq", `Quick, test_single_client_switches_to_seq);
    ("on_switch fires", `Quick, test_on_switch_fires);
  ]

let () = Alcotest.run "adaptive" [ ("adaptive", suite) ]
