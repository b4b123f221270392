(* Cross-cutting scenario tests: condition-variable interplay per scheduler,
   re-entrant monitors, open-loop load, adaptive phase switching and the
   loop-bound analysis. *)

open Detmt_sim
open Detmt_lang
open Detmt_replication

let b = Alcotest.bool

let zero_overhead =
  { Detmt_runtime.Config.default with
    lock_overhead_ms = 0.0; bookkeeping_overhead_ms = 0.0;
    reply_build_ms = 0.0 }

let build ?(scheduler = "mat") ?(replicas = 1) cls =
  let engine = Engine.create () in
  let params =
    { Active.default_params with
      replicas; scheduler;
      (* the scenarios read the event list, not just its hash *)
      config = { zero_overhead with trace_events = true };
      net_latency_ms = 0.0; client_latency_ms = 0.0 }
  in
  (engine, Active.create ~engine ~cls ~params ())

(* --------------------- re-entrant monitors -------------------------- *)

let reentrant_cls =
  let open Builder in
  Builder.cls ~cname:"Reentrant" ~state_fields:[ "st" ]
    [ meth "outer" ~params:1
        [ sync (arg 0)
            [ compute 1.0;
              sync (arg 0) [ state_incr "st" 1 ];
              compute 1.0;
            ];
        ];
    ]

let test_reentrant_all_schedulers () =
  List.iter
    (fun scheduler ->
      let engine, system = build ~scheduler reentrant_cls in
      let gen ~client:_ ~seq:_ _ = ("outer", [| Ast.Vmutex 3 |]) in
      Client.run_clients ~engine ~system ~clients:3 ~requests_per_client:4
        ~gen ();
      Alcotest.(check int) (scheduler ^ ": replies") 12
        (Active.replies_received system);
      List.iter
        (fun r ->
          Alcotest.(check int)
            (scheduler ^ ": state")
            12
            (List.assoc "st" (Detmt_runtime.Replica.state_snapshot r)))
        (Active.replicas system))
    [ "seq"; "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat" ]

(* -------------------- notify ordering (FIFO) ------------------------ *)

(* Waiters are woken in wait order: three waiters, one notifier with
   notifyAll, trace must show the reacquisitions in wait order. *)
let notify_cls =
  let open Builder in
  Builder.cls ~cname:"Notify" ~state_fields:[ "ready"; "woken" ]
    [ meth "waiter"
        [ sync this
            [ wait_until this ~field:"ready" ~min:1; state_incr "woken" 1 ];
        ];
      meth "release_all" [ sync this [ state_incr "ready" 1; notify_all this ] ];
    ]

let test_notify_fifo_order () =
  let engine, system = build ~scheduler:"mat" notify_cls in
  List.iteri
    (fun i meth ->
      Active.submit system ~client:0 ~client_req:i ~meth ~args:[||]
        ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> ()))
    [ "waiter"; "waiter"; "waiter"; "release_all" ];
  Engine.run engine;
  match Active.replicas system with
  | [ r ] ->
    let wakeups =
      List.filter_map
        (function
          | Trace.Wait_end { tid; _ } -> Some tid
          | _ -> None)
        (Trace.events (Detmt_runtime.Replica.trace r))
    in
    Alcotest.(check (list int)) "woken in wait order" [ 0; 1; 2 ] wakeups;
    Alcotest.(check int) "all three woke up" 3
      (List.assoc "woken" (Detmt_runtime.Replica.state_snapshot r))
  | _ -> Alcotest.fail "one replica expected"

(* The MAT rule: a notified waiter resumes with ex-primary priority, before
   plain secondaries blocked on locks. *)
let test_mat_waiter_priority () =
  let engine, system = build ~scheduler:"mat" notify_cls in
  List.iteri
    (fun i meth ->
      Active.submit system ~client:0 ~client_req:i ~meth ~args:[||]
        ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> ()))
    [ "waiter"; "release_all"; "release_all" ];
  Engine.run engine;
  match Active.replicas system with
  | [ r ] ->
    (* The waiter (t0) must reacquire before the second notifier (t2) gets
       the monitor: find positions in the trace. *)
    let events = Trace.events (Detmt_runtime.Replica.trace r) in
    let pos p =
      let rec go i = function
        | [] -> max_int
        | e :: rest -> if p e then i else go (i + 1) rest
      in
      go 0 events
    in
    let wait_end_t0 =
      pos (function Trace.Wait_end { tid = 0; _ } -> true | _ -> false)
    in
    let t2_lock =
      pos (function
        | Trace.Lock_granted { tid = 2; _ } -> true
        | _ -> false)
    in
    Alcotest.check b "woken ex-primary beats younger secondary" true
      (wait_end_t0 < t2_lock)
  | _ -> Alcotest.fail "one replica expected"

(* ------------------------ open-loop clients ------------------------- *)

let test_open_loop_completes () =
  let wl = Detmt_workload.Disjoint.default in
  let engine, system = build ~scheduler:"pmat" (Detmt_workload.Disjoint.cls wl) in
  Client.run_open_loop ~engine ~submit:(Active.submit system)
    ~rate_per_s:100.0 ~requests:50 ~gen:Detmt_workload.Disjoint.gen ();
  Alcotest.(check int) "all answered" 50 (Active.replies_received system)

let test_open_loop_deterministic () =
  let fp () =
    let wl = Detmt_workload.Disjoint.default in
    let engine, system =
      build ~scheduler:"mat" ~replicas:3 (Detmt_workload.Disjoint.cls wl)
    in
    Client.run_open_loop ~engine ~submit:(Active.submit system)
      ~rate_per_s:200.0 ~requests:30 ~gen:Detmt_workload.Disjoint.gen
      ~seed:11L ();
    List.map
      (fun r -> Trace.fingerprint (Detmt_runtime.Replica.trace r))
      (Active.replicas system)
  in
  Alcotest.check b "same seed, same run" true (fp () = fp ())

let test_open_loop_backlog_grows_when_saturated () =
  (* SEQ at 10x its capacity: responses must keep growing with position. *)
  let wl = Detmt_workload.Disjoint.default in
  let engine, system = build ~scheduler:"seq" (Detmt_workload.Disjoint.cls wl) in
  let times = ref [] in
  let rng = Rng.create 3L in
  let rec arrive seq at =
    if seq < 20 then
      Engine.schedule_at engine ~time:at (fun () ->
          let meth, args = Detmt_workload.Disjoint.gen ~client:0 ~seq rng in
          Active.submit system ~client:0 ~client_req:seq ~meth ~args
            ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms ->
              times := response_ms :: !times);
          arrive (seq + 1) (at +. 1.0))
  in
  (* service time ~7 ms, arrivals every 1 ms: heavy overload *)
  arrive 0 0.0;
  Engine.run engine;
  match (List.rev !times : float list) with
  | first :: rest ->
    let last = List.fold_left (fun _ x -> x) first rest in
    Alcotest.check b "waiting time accumulates" true (last > 5.0 *. first)
  | [] -> Alcotest.fail "no replies"

(* ---------------------- adaptive phase switch ----------------------- *)

let test_adaptive_phase_switch () =
  (* Phase 1: strictly sequential deliveries (drain between requests) ->
     the analyser picks SEQ.  Phase 2: concurrent bursts -> it picks PMAT
     (the class is fully predictable).  The analyser re-decides after every
     20 requests, so each phase spans a window and then runs some requests
     under its choice; the meta-scheduler books under its children's names,
     so the recorder's sched.<child>.* counters show which child ran. *)
  let wl = Detmt_workload.Disjoint.default in
  let cls = Detmt_workload.Disjoint.cls wl in
  let instrumented, summary = Detmt_transform.Transform.predictive cls in
  let engine = Engine.create () in
  let obs = Detmt_obs.Recorder.create () in
  let counters () =
    let m = Detmt_obs.Recorder.metrics obs in
    List.map
      (fun name -> (name, Detmt_obs.Metrics.counter_value m name))
      (Detmt_obs.Metrics.names m)
  in
  (* the children that booked a counter since the [before] snapshot *)
  let ran_since before =
    List.sort_uniq compare
      (List.filter_map
         (fun (name, v) ->
           match String.split_on_char '.' name with
           | "sched" :: child :: _
             when v > Option.value ~default:0 (List.assoc_opt name before) ->
             Some child
           | _ -> None)
         (counters ()))
  in
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
      (Detmt_sched.Sched_config.make ~runtime:zero_overhead ~summary
         "adaptive")
      actions
  in
  let replica =
    Detmt_runtime.Replica.create ~engine ~id:0 ~cls:instrumented
      ~config:zero_overhead ~obs ~callbacks ~make_sched ()
  in
  let rng = Rng.create 1L in
  let uid = ref 0 in
  let deliver () =
    let meth, args = Detmt_workload.Disjoint.gen ~client:0 ~seq:!uid rng in
    Detmt_runtime.Replica.deliver_request replica
      (Detmt_runtime.Request.make ~uid:!uid ~client:0 ~client_req:!uid ~meth
         ~args ~sent_at:(Engine.now engine));
    incr uid
  in
  let burst n =
    for _ = 1 to n do
      deliver ()
    done;
    Engine.run engine
  in
  (* phase 1: one at a time *)
  for _ = 1 to 24 do
    burst 1
  done;
  let phase1 = ran_since [] in
  (* phase 2: bursts of six *)
  for _ = 1 to 3 do
    burst 6
  done;
  let before = counters () in
  burst 6;
  Alcotest.check b "sequential phase selected seq" true
    (List.mem "seq" phase1);
  Alcotest.(check string) "concurrent phase selected pmat" "pmat"
    (String.concat "," (ran_since before));
  Alcotest.(check int) "everything processed" !uid
    (Detmt_runtime.Replica.completed_requests replica)

(* -------- wait re-entry position: MAT vs PMAT design decision -------- *)

(* A woken waiter resumes with ex-primary priority under MAT, but re-enters
   the queue at the tail under PMAT (the DESIGN.md resolution of the
   paper's open question): with a third thread already queued on the same
   monitor, the two algorithms order the post-notify acquisitions
   differently — both deterministically. *)
let reentry_cls =
  let open Builder in
  Builder.cls ~cname:"Reentry" ~state_fields:[ "go"; "touch" ]
    [ meth "waiter" [ sync this [ wait_until this ~field:"go" ~min:1 ] ];
      meth "notifier"
        [ compute 5.0; sync this [ state_incr "go" 1; notify_all this ] ];
      meth "third" [ compute 1.0; sync this [ state_incr "touch" 1 ] ];
    ]

let reentry_order scheduler =
  let engine, system = build ~scheduler reentry_cls in
  List.iteri
    (fun i meth ->
      Active.submit system ~client:0 ~client_req:i ~meth ~args:[||]
        ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> ()))
    [ "waiter"; "notifier"; "third" ];
  Engine.run engine;
  match Active.replicas system with
  | [ r ] ->
    let events = Trace.events (Detmt_runtime.Replica.trace r) in
    let pos p =
      let rec go i = function
        | [] -> max_int
        | e :: rest -> if p e then i else go (i + 1) rest
      in
      go 0 events
    in
    let wakeup =
      pos (function Trace.Wait_end { tid = 0; _ } -> true | _ -> false)
    in
    let third_lock =
      pos (function Trace.Lock_granted { tid = 2; _ } -> true | _ -> false)
    in
    Alcotest.(check int) (scheduler ^ ": all three done") 3
      (Detmt_runtime.Replica.completed_requests r);
    (wakeup, third_lock)
  | _ -> Alcotest.fail "one replica expected"

let test_wait_reentry_mat_priority () =
  let wakeup, third_lock = reentry_order "mat" in
  Alcotest.check b "MAT: ex-primary waiter beats the queued third" true
    (wakeup < third_lock)

let test_wait_reentry_pmat_tail () =
  let wakeup, third_lock = reentry_order "pmat" in
  Alcotest.check b "PMAT: waiter re-enters at the tail, third goes first"
    true (third_lock < wakeup)

(* ------------------------- loop bounds ------------------------------ *)

let test_loop_bounds () =
  let open Builder in
  let cls =
    Builder.cls ~cname:"Bounds" ~state_fields:[ "st" ]
      [ meth "fixed" ~params:1
          [ for_ 7 [ sync (arg 0) [ state_incr "st" 1 ] ] ];
        meth "dynamic" ~params:2
          [ for_arg 1 [ sync (arg 0) [ state_incr "st" 1 ] ] ];
      ]
  in
  let _, summary = Detmt_transform.Transform.predictive cls in
  let bound meth =
    let ms = Option.get (Detmt_analysis.Predict.find_method summary meth) in
    (List.hd ms.Detmt_analysis.Predict.loops).Detmt_analysis.Predict.bound
  in
  Alcotest.check b "constant count bounded" true (bound "fixed" = Some 7);
  Alcotest.check b "request-supplied count unbounded" true
    (bound "dynamic" = None)

let suite =
  [ ("reentrant monitors everywhere", `Quick, test_reentrant_all_schedulers);
    ("notify wakes in FIFO order", `Quick, test_notify_fifo_order);
    ("mat waiter priority", `Quick, test_mat_waiter_priority);
    ("open loop completes", `Quick, test_open_loop_completes);
    ("open loop deterministic", `Quick, test_open_loop_deterministic);
    ("open loop saturation backlog", `Quick,
     test_open_loop_backlog_grows_when_saturated);
    ("adaptive phase switch", `Quick, test_adaptive_phase_switch);
    ("wait re-entry: mat priority", `Quick, test_wait_reentry_mat_priority);
    ("wait re-entry: pmat tail", `Quick, test_wait_reentry_pmat_tail);
    ("loop bounds", `Quick, test_loop_bounds);
  ]

let () = Alcotest.run "scenarios" [ ("scenarios", suite) ]
