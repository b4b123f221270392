(* Fine-grained semantic tests for each decision module, driven through a
   small (1- or 3-replica) system with hand-submitted requests. *)

open Detmt_sim
open Detmt_lang
open Detmt_replication

let b = Alcotest.bool

(* A class with three start methods used by most scenarios:
   - "locked":    lock(arg0) { compute 10 }            — work under a lock
   - "pure":      compute 10                           — no locks at all
   - "remote":    nested call, 10 ms                   — idle time only
   - "tail":      lock(arg0) { compute 1 }; compute 10 — Figure 2 shape *)
let scenario_cls =
  let open Builder in
  Builder.cls ~cname:"S" ~state_fields:[ "st" ]
    [ meth "locked" ~params:1
        [ sync (arg 0) [ compute 10.0; state_incr "st" 1 ] ];
      meth "pure" [ compute 10.0 ];
      meth "remote" [ nested ~service:0 10.0 ];
      meth "tail" ~params:1
        [ sync (arg 0) [ compute 1.0; state_incr "st" 1 ]; compute 10.0 ];
    ]

(* Build a system, submit the given requests at t=0, run to completion and
   return (makespan, system).  Zero scheduling overheads keep the arithmetic
   of the assertions exact; the trace keeps its events for the order
   assertions. *)
let run_requests ?(replicas = 1) ~scheduler reqs =
  let engine = Engine.create () in
  let config =
    { Detmt_runtime.Config.default with
      lock_overhead_ms = 0.0; bookkeeping_overhead_ms = 0.0;
      reply_build_ms = 0.0; trace_events = true }
  in
  let params =
    { Active.default_params with
      replicas; scheduler; config; net_latency_ms = 0.0;
      client_latency_ms = 0.0 }
  in
  let system = Active.create ~engine ~cls:scenario_cls ~params () in
  let last_reply = ref 0.0 in
  List.iteri
    (fun i (meth, args) ->
      Active.submit system ~client:0 ~client_req:i ~meth ~args
        ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms ->
          last_reply := Float.max !last_reply response_ms))
    reqs;
  Engine.run engine;
  (!last_reply, system)

let locked m = ("locked", [| Ast.Vmutex m |])

let tail m = ("tail", [| Ast.Vmutex m |])

let feq = Alcotest.(check (float 1e-6))

(* ------------------------------- SEQ -------------------------------- *)

let test_seq_serialises_everything () =
  let makespan, _ = run_requests ~scheduler:"seq" [ locked 1; locked 2 ] in
  feq "two disjoint requests run back to back" 20.0 makespan

let test_seq_wastes_nested_idle () =
  let makespan, _ =
    run_requests ~scheduler:"seq" [ ("remote", [||]); ("remote", [||]) ]
  in
  feq "idle time not reused" 20.0 makespan

(* ------------------------------- SAT -------------------------------- *)

let test_sat_single_active_thread () =
  let makespan, _ =
    run_requests ~scheduler:"sat" [ ("pure", [||]); ("pure", [||]) ]
  in
  feq "pure computations serialise under SAT" 20.0 makespan

let test_sat_uses_nested_idle () =
  let makespan, _ =
    run_requests ~scheduler:"sat" [ ("remote", [||]); ("remote", [||]) ]
  in
  feq "nested idle time reused" 10.0 makespan

(* ------------------------------- MAT -------------------------------- *)

let test_mat_parallel_pure_computations () =
  let makespan, _ =
    run_requests ~scheduler:"mat" [ ("pure", [||]); ("pure", [||]) ]
  in
  feq "secondaries compute in parallel" 10.0 makespan

let test_mat_pessimism_on_disjoint_locks () =
  (* The paper's criticism: the secondary blocks although the mutexes do not
     conflict. *)
  let makespan, _ = run_requests ~scheduler:"mat" [ locked 1; locked 2 ] in
  feq "disjoint locks still serialise" 20.0 makespan

let test_mat_holds_primacy_through_tail () =
  (* Figure 2(a): primacy is only handed over at termination. *)
  let makespan, _ = run_requests ~scheduler:"mat" [ tail 1; tail 2 ] in
  feq "second request waits for the first one's tail" 22.0 makespan

(* ----------------------------- MAT-LL ------------------------------- *)

let test_mat_ll_hands_over_after_last_lock () =
  (* Figure 2(b): primacy moves right after the last unlock; the 10 ms
     tails overlap. *)
  let makespan, _ = run_requests ~scheduler:"mat-ll" [ tail 1; tail 2 ] in
  feq "tails overlap" 12.0 makespan

let test_mat_ll_no_worse_when_shared () =
  let makespan, _ = run_requests ~scheduler:"mat-ll" [ tail 1; tail 1 ] in
  feq "shared mutex still serialises the critical sections" 12.0 makespan

(* ------------------------------ PMAT -------------------------------- *)

let test_pmat_parallel_disjoint_locks () =
  (* Figure 3(b): announced, non-conflicting locks are granted
     concurrently. *)
  let makespan, _ = run_requests ~scheduler:"pmat" [ locked 1; locked 2 ] in
  feq "disjoint locks run in parallel" 10.0 makespan

let test_pmat_serialises_conflicts () =
  let makespan, _ = run_requests ~scheduler:"pmat" [ locked 1; locked 1 ] in
  feq "conflicting locks serialise" 20.0 makespan

let test_pmat_conflict_order_is_queue_order () =
  let _, system = run_requests ~scheduler:"pmat" [ locked 5; locked 5 ] in
  match Active.replicas system with
  | [ r ] ->
    let locks =
      List.filter_map
        (function
          | Trace.Lock_granted { tid; _ } -> Some tid
          | _ -> None)
        (Trace.events (Detmt_runtime.Replica.trace r))
    in
    Alcotest.(check (list int)) "queue (arrival) order" [ 0; 1 ] locks
  | _ -> Alcotest.fail "one replica expected"

(* ------------------------------- PDS -------------------------------- *)

let test_pds_round_opens_when_batch_arrives () =
  let engine = Engine.create () in
  let config =
    { Detmt_runtime.Config.default with
      lock_overhead_ms = 0.0; bookkeeping_overhead_ms = 0.0;
      reply_build_ms = 0.0; pds_batch = 2; pds_dummy_timeout_ms = 100.0 }
  in
  let params =
    { Active.default_params with
      replicas = 1; scheduler = "pds"; config; net_latency_ms = 0.0;
      client_latency_ms = 0.0 }
  in
  let system = Active.create ~engine ~cls:scenario_cls ~params () in
  let replies = ref [] in
  List.iteri
    (fun i req ->
      Active.submit system ~client:0 ~client_req:i ~meth:(fst req)
        ~args:(snd req) ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms ->
          replies := response_ms :: !replies))
    [ locked 1; locked 2 ];
  Engine.run engine;
  (* Both arrive instantly; the round grants both (no conflict) in
     parallel: makespan 10, no dummies. *)
  feq "batch of two decides immediately" 10.0
    (List.fold_left Float.max 0.0 !replies);
  Alcotest.check b "no dummies needed" true
    (List.assoc_opt "pds-dummy" (Active.message_stats system) = None)

let test_pds_dummy_fills_partial_batch () =
  let engine = Engine.create () in
  let config =
    { Detmt_runtime.Config.default with
      pds_batch = 4; pds_dummy_timeout_ms = 5.0 }
  in
  let params =
    { Active.default_params with replicas = 1; scheduler = "pds"; config;
      net_latency_ms = 0.0; client_latency_ms = 0.0 }
  in
  let system = Active.create ~engine ~cls:scenario_cls ~params () in
  let done_ = ref false in
  Active.submit system ~client:0 ~client_req:0 ~meth:"locked"
    ~args:[| Ast.Vmutex 1 |]
    ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> done_ := true);
  Engine.run engine;
  Alcotest.check b "request eventually processed" true !done_;
  Alcotest.check b "dummies were broadcast" true
    (match List.assoc_opt "pds-dummy" (Active.message_stats system) with
    | Some n -> n > 0
    | None -> false)

(* ------------------------------- LSA -------------------------------- *)

let test_lsa_leader_broadcasts_grants () =
  let _, system =
    run_requests ~replicas:3 ~scheduler:"lsa" [ locked 1; locked 1 ]
  in
  match List.assoc_opt "control" (Active.message_stats system) with
  | Some n -> Alcotest.(check int) "one grant message per acquisition" 2 n
  | None -> Alcotest.fail "no control messages broadcast"

let test_lsa_followers_apply_leader_order () =
  let _, system =
    run_requests ~replicas:3 ~scheduler:"lsa"
      [ locked 7; locked 7; locked 7 ]
  in
  let owners r =
    List.filter_map
      (function
        | Trace.Lock_granted { tid; mutex = 7; _ } -> Some tid
        | _ -> None)
      (Trace.events (Detmt_runtime.Replica.trace r))
  in
  match Active.replicas system with
  | [ leader; f1; f2 ] ->
    Alcotest.(check (list int)) "follower 1 matches leader" (owners leader)
      (owners f1);
    Alcotest.(check (list int)) "follower 2 matches leader" (owners leader)
      (owners f2)
  | _ -> Alcotest.fail "three replicas expected"

let test_lsa_greedy_beats_mat_on_disjoint () =
  let lsa, _ = run_requests ~replicas:3 ~scheduler:"lsa" [ locked 1; locked 2 ] in
  let mat, _ = run_requests ~replicas:3 ~scheduler:"mat" [ locked 1; locked 2 ] in
  Alcotest.check b "leader schedules without restrictions" true (lsa < mat)

(* ------------------------------ Freefall ---------------------------- *)

let test_freefall_completes () =
  let makespan, _ =
    run_requests ~scheduler:"freefall" [ locked 1; locked 1; locked 1 ]
  in
  feq "contended locks serialise" 30.0 makespan

(* ------------------------------ Registry ---------------------------- *)

(* Inert replica actions: every mutex is free, every call a no-op. *)
let dummy_actions =
  { Detmt_runtime.Sched_iface.replica_id = 0;
    start_thread = ignore; proceed = ignore;
    ws_begin = (fun ~tid:_ ~record_acquisitions:_ -> ());
    ws_commit = (fun ~tid:_ -> true);
    mutex_owner = (fun _ -> None);
    mutex_free_for = (fun ~tid:_ ~mutex:_ -> true);
    holds_any_mutex = (fun _ -> false);
    request_method = (fun _ -> "m");
    request_mutex_arg = (fun ~tid:_ _ -> -1);
    self_mutex = (fun () -> 1_000_000);
    pool_dispatch = (fun ~worker:_ ~tid:_ -> ());
    pool_complete = (fun ~worker:_ ~tid:_ -> ());
    broadcast_control = ignore;
    inject_dummy = (fun () -> ());
    schedule = (fun ~delay:_ _ -> ());
    now = (fun () -> 0.0);
    is_leader = (fun () -> true);
    obs = Detmt_obs.Recorder.disabled }

let test_registry () =
  Alcotest.(check int) "fifteen schedulers" 15
    (List.length Detmt_sched.Registry.all);
  Alcotest.(check (list string)) "figure 1 set"
    [ "seq"; "sat"; "lsa"; "pds"; "mat" ]
    Detmt_sched.Registry.paper_figure1;
  Alcotest.check b "predictive flags" true
    (let spec name = Detmt_sched.Registry.find_exn name in
     (spec "pmat").needs_prediction
     && (spec "mat-ll").needs_prediction
     && (spec "psat").needs_prediction
     && (spec "ppds").needs_prediction
     && (spec "cgs").needs_prediction
     && (spec "pcgs").needs_prediction
     && (spec "wss").needs_prediction
     && (spec "cgs+ws").needs_prediction
     && (not (spec "mat").needs_prediction)
     && (not (spec "sat").needs_prediction)
     && not (spec "pds").needs_prediction);
  Alcotest.(check (list string)) "parallel decision modules"
    [ "cgs"; "pcgs"; "wss"; "cgs+ws" ]
    Detmt_sched.Registry.parallel_decisions;
  Alcotest.check b "predicted variants are deterministic" true
    ((Detmt_sched.Registry.find_exn "psat").deterministic
    && (Detmt_sched.Registry.find_exn "ppds").deterministic);
  Alcotest.check b "freefall flagged nondeterministic" false
    (Detmt_sched.Registry.find_exn "freefall").deterministic;
  Alcotest.check b "unknown name raises" true
    (try
       ignore (Detmt_sched.Registry.find_exn "nope");
       false
     with Invalid_argument _ -> true)

(* The unified construction API: Sched_config.make defaults and validation,
   the deterministic_decisions set, and Registry.instantiate over every
   entry: each builds with a figure1 predictive summary at width 1 (the
   parallel ones also at width 4) under its own name, and the up-front
   checks reject an unknown name, a serial entry at width 4 and a
   predictive entry without a summary. *)
let test_config_api () =
  let cfg = Detmt_sched.Sched_config.make "mat" in
  Alcotest.(check string) "name carried" "mat"
    cfg.Detmt_sched.Sched_config.scheduler;
  Alcotest.check b "default summary empty" true
    (cfg.Detmt_sched.Sched_config.summary = None);
  Alcotest.(check (list string)) "deterministic decision modules"
    [ "seq"; "sat"; "psat"; "lsa"; "pds"; "ppds"; "mat"; "mat-ll"; "pmat";
      "cgs"; "pcgs"; "wss"; "cgs+ws" ]
    Detmt_sched.Registry.deterministic_decisions;
  let raises_invalid f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  (* no entry touches the actions while it is built, so inert stubs do *)
  Alcotest.check b "instantiate rejects unknown names" true
    (raises_invalid (fun () ->
         Detmt_sched.Registry.instantiate
           (Detmt_sched.Sched_config.make "nope")
           dummy_actions));
  let _, summary =
    Detmt_transform.Transform.predictive
      (Detmt_workload.Figure1.cls Detmt_workload.Figure1.default)
  in
  let build ?summary ~workers name =
    Detmt_sched.Registry.instantiate
      (Detmt_sched.Sched_config.make ?summary ~workers name)
      dummy_actions
  in
  List.iter
    (fun (spec : Detmt_sched.Registry.spec) ->
      let name = spec.name in
      Alcotest.(check string) (name ^ " builds at width 1") name
        (build ~summary ~workers:1 name).name;
      if List.mem name Detmt_sched.Registry.parallel_decisions then
        Alcotest.(check string) (name ^ " builds at width 4") name
          (build ~summary ~workers:4 name).name;
      if not spec.parallel then
        Alcotest.check b (name ^ " is serial: width 4 rejected") true
          (raises_invalid (fun () -> build ~summary ~workers:4 name));
      if spec.needs_prediction then
        Alcotest.check b (name ^ " without a summary rejected") true
          (raises_invalid (fun () -> build ~workers:1 name)))
    Detmt_sched.Registry.all;
  Alcotest.check_raises "workers < 1 rejected by the config"
    (Invalid_argument "Sched_config.make: workers < 1") (fun () ->
      ignore (Detmt_sched.Sched_config.make ~workers:0 "cgs"));
  Alcotest.(check int) "default workers" 1
    (Detmt_sched.Sched_config.make "cgs").Detmt_sched.Sched_config.workers

(* pMAT's claim refresh after each bookkeeping event: the stamp test, and
   the merge of the old and new future sets into the per-mutex claims,
   allocate nothing once the claim records and per-mutex indexes exist.
   One queued thread announces a mutex, loses its prediction in an unknown
   scope, regains it, and re-announces another mutex. *)
let test_pmat_refresh_no_allocation () =
  let cls =
    let open Builder in
    Builder.cls ~cname:"L" ~state_fields:[ "st" ]
      [ meth "go" ~params:1
          [ assign "m" (marg 0);
            for_ 3 [ sync (local "m") [ state_incr "st" 1 ] ] ] ]
  in
  let _, summary = Detmt_transform.Transform.predictive cls in
  let actions =
    { dummy_actions with
      Detmt_runtime.Sched_iface.request_method = (fun _ -> "go") }
  in
  let s =
    Detmt_sched.Registry.instantiate
      (Detmt_sched.Sched_config.make ~summary "pmat")
      actions
  in
  s.on_request 1;
  s.on_request 2;
  No_alloc.check "minor words per pMAT claim refresh" (fun () ->
      s.on_lockinfo 1 ~syncid:1 ~mutex:5;
      s.on_loop_enter 1 ~loopid:99;
      s.on_loop_exit 1 ~loopid:99;
      s.on_lockinfo 1 ~syncid:1 ~mutex:6)

(* Holding a thread at a lock gate and releasing it through the substrate
   allocates nothing: the gate is a constant constructor and a mutex int. *)
let test_gate_no_allocation () =
  let module Substrate = Detmt_sched.Substrate in
  let sub =
    Substrate.create ~name:"gate" ~config:Detmt_runtime.Config.default
      dummy_actions
  in
  let th = Substrate.admit sub ~tid:1 in
  No_alloc.check "minor words per held and performed lock" (fun () ->
      Substrate.hold th Lock ~mutex:3;
      Substrate.perform sub th)

(* A retired thread's record goes back to the substrate's free stack once:
   releasing it again while it is free raises, and the next admission takes
   it, so it is live again. *)
let test_substrate_double_release () =
  let module Substrate = Detmt_sched.Substrate in
  let sub =
    Substrate.create ~name:"pool" ~config:Detmt_runtime.Config.default
      dummy_actions
  in
  let th = Substrate.admit sub ~tid:1 in
  Substrate.retire sub ~tid:1;
  Alcotest.(check bool) "retire frees the record" true th.released;
  Alcotest.check_raises "a second release"
    (Invalid_argument "pool: thread record of t1 released twice") (fun () ->
      Substrate.Testing.release sub th);
  let th' = Substrate.admit sub ~tid:2 in
  Alcotest.(check bool) "the next admission reuses it" true (th' == th);
  Alcotest.(check bool) "and it is live again" false th.released;
  Alcotest.(check int) "under its new tid" 2 th.tid

(* A request's whole life in the conflict-graph scheduler allocates nothing
   once warmed: delivery (admission, bookkeeping registration, the class
   resolved through the method's plan into a recycled node), the decision
   that starts it on a pool worker, an immediately granted lock, the unlock
   and the termination that recycles the node and frees the worker.  cgs
   runs a request of a resolved class directly; cgs+ws speculates one of an
   opaque class and commits it at its barrier. *)
let test_cgs_round_no_allocation () =
  let cls =
    let open Builder in
    Builder.cls ~cname:"G" ~state_fields:[ "st" ]
      [ meth "m" ~params:1 [ sync (arg 0) [ state_incr "st" 1 ] ] ]
  in
  let _, summary = Detmt_transform.Transform.predictive cls in
  let round name ~mutex_arg ~speculative =
    let started = ref 0 and committed = ref 0 in
    let actions =
      { dummy_actions with
        Detmt_runtime.Sched_iface.request_method = (fun _ -> "m");
        request_mutex_arg = (fun ~tid:_ _ -> mutex_arg);
        start_thread = (fun _ -> incr started);
        ws_commit =
          (fun ~tid:_ ->
            incr committed;
            true) }
    in
    let s =
      Detmt_sched.Registry.instantiate
        (Detmt_sched.Sched_config.make ~summary ~workers:4 name)
        actions
    in
    let tid = ref 0 in
    No_alloc.check (Printf.sprintf "minor words per %s request" name)
      (fun () ->
        incr tid;
        let tid = !tid in
        s.on_request tid;
        if speculative then begin
          s.on_ws_event tid Detmt_runtime.Sched_iface.Ws_ready;
          s.on_terminate tid
        end
        else begin
          s.on_lock tid ~syncid:1 ~mutex:5;
          s.on_acquired tid ~syncid:1 ~mutex:5;
          s.on_unlock tid ~syncid:1 ~mutex:5 ~freed:true;
          s.on_terminate tid
        end);
    Alcotest.(check int) (name ^ ": every request started") !tid !started;
    Alcotest.(check int)
      (name ^ ": commits")
      (if speculative then !tid else 0)
      !committed
  in
  round "cgs" ~mutex_arg:5 ~speculative:false;
  round "cgs+ws" ~mutex_arg:(-1) ~speculative:true

let suite =
  [ ("seq serialises everything", `Quick, test_seq_serialises_everything);
    ("seq wastes nested idle", `Quick, test_seq_wastes_nested_idle);
    ("sat single active thread", `Quick, test_sat_single_active_thread);
    ("sat uses nested idle", `Quick, test_sat_uses_nested_idle);
    ("mat parallel pure computations", `Quick,
     test_mat_parallel_pure_computations);
    ("mat pessimism on disjoint locks", `Quick,
     test_mat_pessimism_on_disjoint_locks);
    ("mat holds primacy through tail", `Quick,
     test_mat_holds_primacy_through_tail);
    ("mat-ll hands over after last lock", `Quick,
     test_mat_ll_hands_over_after_last_lock);
    ("mat-ll shared mutex", `Quick, test_mat_ll_no_worse_when_shared);
    ("pmat parallel disjoint locks", `Quick,
     test_pmat_parallel_disjoint_locks);
    ("pmat serialises conflicts", `Quick, test_pmat_serialises_conflicts);
    ("pmat conflict order", `Quick, test_pmat_conflict_order_is_queue_order);
    ("pds round opens on full batch", `Quick,
     test_pds_round_opens_when_batch_arrives);
    ("pds dummies fill partial batch", `Quick,
     test_pds_dummy_fills_partial_batch);
    ("lsa leader broadcasts grants", `Quick,
     test_lsa_leader_broadcasts_grants);
    ("lsa followers apply leader order", `Quick,
     test_lsa_followers_apply_leader_order);
    ("lsa greedy beats mat on disjoint", `Quick,
     test_lsa_greedy_beats_mat_on_disjoint);
    ("freefall completes", `Quick, test_freefall_completes);
    ("registry", `Quick, test_registry);
    ("config api", `Quick, test_config_api);
    ("pmat: claim refresh allocates nothing", `Quick,
     test_pmat_refresh_no_allocation);
    ("substrate: a record released twice raises", `Quick,
     test_substrate_double_release);
    ("substrate: a held lock gate allocates nothing", `Quick,
     test_gate_no_allocation);
    ("cgs: a request round allocates nothing", `Quick,
     test_cgs_round_no_allocation);
  ]

let () = Alcotest.run "sched" [ ("sched", suite) ]
