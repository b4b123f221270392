(* Robustness and stress tests: configuration validation, deep programs,
   large request volumes and misuse errors. *)

open Detmt_lang
open Detmt_replication

let b = Alcotest.bool

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_config_validation () =
  let base = Detmt_runtime.Config.default in
  List.iter
    (fun (what, cfg) ->
      Alcotest.check b what true
        (raises_invalid (fun () -> Detmt_runtime.Config.validate cfg)))
    [ ("zero cores", { base with cores = 0 });
      ("negative lock overhead", { base with lock_overhead_ms = -1.0 });
      ("negative bookkeeping",
       { base with bookkeeping_overhead_ms = -0.1 });
      ("negative reply build", { base with reply_build_ms = -0.1 });
      ("zero batch", { base with pds_batch = 0 });
      ("zero dummy timeout", { base with pds_dummy_timeout_ms = 0.0 });
    ];
  Detmt_runtime.Config.validate base

let test_unknown_scheduler_rejected () =
  let cls = Detmt_workload.Disjoint.cls Detmt_workload.Disjoint.default in
  Alcotest.check b "unknown scheduler raises" true
    (raises_invalid (fun () ->
         ignore
           (Active.create
              ~engine:(Detmt_sim.Engine.create ())
              ~cls
              ~params:{ Active.default_params with scheduler = "nope" }
              ())))

let test_deep_program_no_stack_overflow () =
  (* 2000 zero-cost statements advance synchronously through the CPS
     interpreter: must not blow the stack. *)
  let open Builder in
  let body =
    List.concat
      (List.init 1000 (fun _ ->
           [ sync this [ state_incr "st" 1 ]; assign "v" (marg 0) ]))
  in
  let cls =
    Builder.cls ~cname:"Deep" ~state_fields:[ "st" ]
      [ meth "m" ~params:1 body ]
  in
  let engine = Detmt_sim.Engine.create () in
  let config =
    { Detmt_runtime.Config.default with
      lock_overhead_ms = 0.0; bookkeeping_overhead_ms = 0.0;
      reply_build_ms = 0.0 }
  in
  let system =
    Active.create ~engine ~cls
      ~params:
        { Active.default_params with replicas = 1; scheduler = "mat"; config }
      ()
  in
  Active.submit system ~client:0 ~client_req:0 ~meth:"m"
    ~args:[| Ast.Vmutex 1 |] ~on_reply:Active.ignore_reply;
  Detmt_sim.Engine.run engine;
  match Active.replicas system with
  | [ r ] ->
    Alcotest.(check int) "1000 updates" 1000
      (List.assoc "st" (Detmt_runtime.Replica.state_snapshot r))
  | _ -> Alcotest.fail "one replica expected"

let test_large_volume () =
  (* 50 clients x 20 requests through three replicas under pmat. *)
  let wl = Detmt_workload.Disjoint.default in
  let engine = Detmt_sim.Engine.create () in
  let system =
    Active.create ~engine
      ~cls:(Detmt_workload.Disjoint.cls wl)
      ~params:{ Active.default_params with scheduler = "pmat" }
      ()
  in
  Client.run_clients ~engine ~system ~clients:50 ~requests_per_client:20
    ~gen:Detmt_workload.Disjoint.gen ();
  Alcotest.(check int) "1000 replies" 1000 (Active.replies_received system);
  let report = Consistency.check (Active.live_replicas system) in
  Alcotest.check b "consistent at volume" true (Consistency.consistent report)

let test_duplicate_request_uid_rejected () =
  let cls = Detmt_workload.Disjoint.cls Detmt_workload.Disjoint.default in
  let instrumented = Detmt_transform.Transform.basic cls in
  let engine = Detmt_sim.Engine.create () in
  let callbacks =
    { Detmt_runtime.Replica.send_reply = (fun _ -> ());
      do_nested = (fun ~tid:_ ~call_index:_ ~service:_ ~duration:_ -> ());
      broadcast_control = (fun _ -> ());
      inject_dummy = (fun () -> ());
      is_leader = (fun () -> true) }
  in
  let replica =
    Detmt_runtime.Replica.create ~engine ~id:0 ~cls:instrumented
      ~config:Detmt_runtime.Config.default ~callbacks
      ~make_sched:
        (Detmt_sched.Registry.instantiate (Detmt_sched.Sched_config.make "seq"))
      ()
  in
  let req =
    Detmt_runtime.Request.make ~uid:1 ~client:0 ~client_req:0
      ~meth:Detmt_workload.Disjoint.method_name ~args:[| Ast.Vmutex 0 |]
      ~sent_at:0.0
  in
  Detmt_runtime.Replica.deliver_request replica req;
  Alcotest.check b "same uid twice raises" true
    (raises_invalid (fun () ->
         Detmt_runtime.Replica.deliver_request replica req))

let test_cpu_invalid_args () =
  let engine = Detmt_sim.Engine.create () in
  Alcotest.check b "zero cores rejected" true
    (raises_invalid (fun () -> ignore (Detmt_sim.Cpu.create engine ~cores:0)));
  let cpu = Detmt_sim.Cpu.create engine ~cores:1 in
  Alcotest.check b "negative duration rejected" true
    (raises_invalid (fun () ->
         Detmt_sim.Cpu.exec cpu ~duration:(-1.0) (fun () -> ())))

let test_many_waiters_stress () =
  (* 30 consumers block before a burst of 30 producers arrives. *)
  let cls = Detmt_workload.Prodcons.cls Detmt_workload.Prodcons.default in
  let engine = Detmt_sim.Engine.create () in
  let system =
    Active.create ~engine ~cls
      ~params:{ Active.default_params with scheduler = "mat" }
      ()
  in
  for i = 0 to 29 do
    Active.submit system ~client:1 ~client_req:i
      ~meth:Detmt_workload.Prodcons.consume_method ~args:[||]
      ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> ())
  done;
  Detmt_sim.Engine.schedule engine ~delay:50.0 (fun () ->
      for i = 0 to 29 do
        Active.submit system ~client:2 ~client_req:i
          ~meth:Detmt_workload.Prodcons.produce_method ~args:[||]
          ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> ())
      done);
  Detmt_sim.Engine.run engine;
  Alcotest.(check int) "all 60 answered" 60 (Active.replies_received system);
  List.iter
    (fun r ->
      Alcotest.(check int) "buffer drained" 0
        (List.assoc "items" (Detmt_runtime.Replica.state_snapshot r)))
    (Active.replicas system)

let suite =
  [ ("config validation", `Quick, test_config_validation);
    ("unknown scheduler rejected", `Quick, test_unknown_scheduler_rejected);
    ("deep program, no stack overflow", `Quick,
     test_deep_program_no_stack_overflow);
    ("large volume", `Quick, test_large_volume);
    ("duplicate request uid rejected", `Quick,
     test_duplicate_request_uid_rejected);
    ("cpu invalid arguments", `Quick, test_cpu_invalid_args);
    ("many waiters stress", `Quick, test_many_waiters_stress);
  ]

let () = Alcotest.run "robustness" [ ("robustness", suite) ]
