(* Flight-recorder tests.

   The load-bearing property is the determinism contract: observability is
   strictly read-only, so running with the recorder on must leave the reply
   table and every replica's trace fingerprint bit-identical to a run with
   recording off.  The rest checks the exporters: per-request latency
   breakdowns sum exactly to the measured response time, the Chrome
   trace-event JSON parses and follows the schema (golden file), and the
   metrics registry covers every scheduler, Totem and the chaos layer. *)

open Detmt_sim
open Detmt_replication
module Recorder = Detmt_obs.Recorder
module Metrics = Detmt_obs.Metrics
module Json = Detmt_obs.Json
module Chrome = Detmt_obs.Chrome
module Hdr = Detmt_obs.Hdr
module Timeseries = Detmt_obs.Timeseries
module Profile = Detmt_obs.Profile
module Critical_path = Detmt_obs.Critical_path
module Openmetrics = Detmt_obs.Openmetrics

let figure1_cls = Detmt_workload.Figure1.cls Detmt_workload.Figure1.default

let figure1_gen = Detmt_workload.Figure1.gen Detmt_workload.Figure1.default

let prodcons_cls = Detmt_workload.Prodcons.cls Detmt_workload.Prodcons.default

let prodcons_gen = Detmt_workload.Prodcons.gen

let run ?(scheduler = "mat") ?(clients = 4) ?(requests = 3)
    ?(cls = figure1_cls) ?(gen = figure1_gen) ?(obs = Recorder.disabled) () =
  let engine = Engine.create () in
  let params = { Active.default_params with Active.scheduler } in
  let system = Active.create ~obs ~engine ~cls ~params () in
  Client.run_clients ~engine ~system ~clients ~requests_per_client:requests
    ~gen ();
  system

type witness = {
  w_replies : int;
  w_reply_times : float list;
  w_mean : float;
  w_traces : (int * int64) list; (* per-replica trace fingerprints *)
  w_states : (int * int64) list;
}

let witness system =
  { w_replies = Active.replies_received system;
    w_reply_times = Active.reply_times system;
    w_mean = Detmt_stats.Summary.mean (Active.response_times system);
    w_traces =
      List.map
        (fun r ->
          ( Detmt_runtime.Replica.id r,
            Trace.fingerprint (Detmt_runtime.Replica.trace r) ))
        (Active.live_replicas system);
    w_states =
      List.map
        (fun r ->
          ( Detmt_runtime.Replica.id r,
            Detmt_runtime.Replica.state_fingerprint r ))
        (Active.live_replicas system) }

let fp = Alcotest.testable (Fmt.fmt "%Lx") Int64.equal

(* All schedulers; seq deadlocks on prodcons (a consumer that waits blocks
   the whole one-at-a-time pipeline), so the prodcons matrix skips it. *)
let all_schedulers =
  [ "seq"; "sat"; "psat"; "lsa"; "pds"; "ppds"; "mat"; "mat-ll"; "pmat";
    "freefall" ]

let test_on_off_identical ~scheduler ~cls ~gen () =
  let off = witness (run ~scheduler ~cls ~gen ()) in
  (* Full telemetry stack: metrics, windowed series (the clock installs in
     [Active.create]) and the hot-path profiler — the strongest on-side. *)
  let obs = Recorder.create ~profile:(Profile.create ()) () in
  let on = witness (run ~scheduler ~cls ~gen ~obs ()) in
  Alcotest.(check int) "replies" off.w_replies on.w_replies;
  Alcotest.(check (list (float 0.0))) "reply times" off.w_reply_times
    on.w_reply_times;
  Alcotest.(check (float 0.0)) "mean response" off.w_mean on.w_mean;
  Alcotest.(check (list (pair int fp))) "trace fingerprints" off.w_traces
    on.w_traces;
  Alcotest.(check (list (pair int fp))) "state fingerprints" off.w_states
    on.w_states;
  (* The recorder did record: spans, metrics, windowed series and the
     profiler's phase timers are all non-empty. *)
  Alcotest.(check bool) "recorded spans" true (Recorder.spans obs <> []);
  Alcotest.(check bool) "recorded metrics" true
    (Metrics.names (Recorder.metrics obs) <> []);
  Alcotest.(check bool) "recorded series windows" true
    (Timeseries.point_count (Recorder.timeseries obs) > 0);
  (match Recorder.profiler obs with
  | None -> Alcotest.fail "profiler not attached"
  | Some p ->
    let dispatch =
      List.find
        (fun r -> r.Profile.p_phase = "dispatch")
        (Profile.phase_rows p)
    in
    Alcotest.(check bool) "profiler timed dispatches" true
      (dispatch.Profile.p_calls > 0))

let determinism_tests =
  List.map
    (fun s ->
      Alcotest.test_case (Printf.sprintf "obs on/off identical: %s/figure1" s)
        `Quick
        (test_on_off_identical ~scheduler:s ~cls:figure1_cls ~gen:figure1_gen))
    all_schedulers
  @ List.map
      (fun s ->
        Alcotest.test_case
          (Printf.sprintf "obs on/off identical: %s/prodcons" s)
          `Quick
          (test_on_off_identical ~scheduler:s ~cls:prodcons_cls
             ~gen:prodcons_gen))
      (List.filter (fun s -> s <> "seq") all_schedulers)

(* ------------------------- latency breakdowns ----------------------- *)

let sum_columns (b : Recorder.breakdown) =
  b.client_queue +. b.broadcast +. b.sched_start +. b.lock_wait
  +. b.policy_wait +. b.reacquire_wait +. b.condvar_wait +. b.nested_idle
  +. b.resume_hold +. b.commit_hold +. b.exec +. b.reply_net

(* [replies] runs the system with [obs] on and returns its answered
   requests; the result is the checked breakdowns. *)
let check_breakdown_sums replies =
  let obs = Recorder.create () in
  let replies = replies obs in
  let bs = Recorder.breakdowns obs in
  Alcotest.(check int) "one breakdown per answered request" replies
    (List.length bs);
  List.iter
    (fun (b : Recorder.breakdown) ->
      if Float.abs (sum_columns b -. b.total) > 1e-6 then
        Alcotest.failf "req %d: columns sum to %.9f, total %.9f" b.uid
          (sum_columns b) b.total;
      List.iter
        (fun (what, v) ->
          if v < -.1e-9 then
            Alcotest.failf "req %d: negative %s (%.9f)" b.uid what v)
        [ ("client_queue", b.client_queue); ("broadcast", b.broadcast);
          ("sched_start", b.sched_start); ("lock_wait", b.lock_wait);
          ("policy_wait", b.policy_wait);
          ("reacquire_wait", b.reacquire_wait);
          ("condvar_wait", b.condvar_wait); ("nested_idle", b.nested_idle);
          ("resume_hold", b.resume_hold); ("commit_hold", b.commit_hold);
          ("exec", b.exec); ("reply_net", b.reply_net) ])
    bs;
  bs

let test_breakdown_sums scheduler () =
  ignore
    (check_breakdown_sums (fun obs ->
         Active.replies_received (run ~scheduler ~obs ())))

(* The parallel family under the commit barrier: wss@4 on sharded-opaque
   holds some requests at commit (3 of them commit-dominated). *)
let test_breakdown_sums_commit_hold () =
  let bs =
    check_breakdown_sums (fun obs ->
        let row =
          Detmt.Experiment.run ~obs
            { Detmt.Experiment.base with
              workload = Detmt.Experiment.workload "sharded-opaque";
              scheduler = "wss"; workers = 4; clients = 32; requests = 2 }
        in
        row.outcome.replies)
  in
  Alcotest.(check bool) "the commit barrier holds some request" true
    (List.exists (fun (b : Recorder.breakdown) -> b.commit_hold > 0.0) bs)

let breakdown_tests =
  List.map
    (fun s ->
      Alcotest.test_case (Printf.sprintf "breakdowns sum to total: %s" s)
        `Quick (test_breakdown_sums s))
    [ "seq"; "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat" ]
  @ [ Alcotest.test_case "breakdowns sum to total: wss@4 sharded-opaque"
        `Quick test_breakdown_sums_commit_hold ]

(* --------------------------- Chrome export -------------------------- *)

let export_json () =
  let obs = Recorder.create () in
  let _system = run ~scheduler:"mat" ~clients:2 ~requests:2 ~obs () in
  match Readers.json (Chrome.to_string obs) with
  | Error msg -> Alcotest.failf "chrome export does not parse: %s" msg
  | Ok json -> json

let test_chrome_schema () =
  let json = export_json () in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let phases = ref [] in
  List.iter
    (fun ev ->
      let str name =
        match Json.member name ev with
        | Some (Json.String s) -> s
        | _ -> Alcotest.failf "event without string %S" name
      in
      let num name =
        match Json.member name ev with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "event without int %S" name
      in
      let ph = str "ph" in
      if not (List.mem ph !phases) then phases := ph :: !phases;
      ignore (str "name");
      match ph with
      | "M" -> ignore (Json.member "args" ev)
      | "X" ->
        ignore (num "ts");
        ignore (num "dur");
        ignore (num "pid");
        ignore (num "tid")
      | "i" | "C" -> ignore (num "ts")
      | other -> Alcotest.failf "unexpected phase %S" other)
    events;
  (* Request spans ("X") and per-process metadata ("M") are always there. *)
  Alcotest.(check bool) "has X events" true (List.mem "X" !phases);
  Alcotest.(check bool) "has M events" true (List.mem "M" !phases)

let test_chrome_golden () =
  (* Chrome exporter output for a fixed small run, compared byte for byte
     against the committed golden file.  Regenerate after an intentional
     schema change with:
       dune exec bin/detmt_cli.exe -- trace --scheduler mat \
         --workload figure1 --clients 2 --requests 1 --format chrome \
         -o test/chrome_golden.json *)
  let obs = Recorder.create () in
  let _system = run ~scheduler:"mat" ~clients:2 ~requests:1 ~obs () in
  let got = Chrome.to_string obs in
  let ic = open_in "chrome_golden.json" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "golden chrome trace" (String.trim want)
    (String.trim got)

(* ---------------------------- metrics ------------------------------- *)

let test_metrics_coverage () =
  let names_for scheduler =
    let obs = Recorder.create () in
    ignore (run ~scheduler ~clients:2 ~requests:2 ~obs ());
    Metrics.names (Recorder.metrics obs)
  in
  let expect scheduler needles =
    let names = names_for scheduler in
    List.iter
      (fun n ->
        if not (List.mem n names) then
          Alcotest.failf "%s: metric %S missing (have: %s)" scheduler n
            (String.concat ", " names))
      needles
  in
  expect "seq" [ "sched.seq.grants"; "sched.seq.starts"; "totem.broadcasts";
                 "totem.deliveries"; "replica.requests_completed" ];
  expect "sat" [ "sched.sat.grants"; "sched.sat.activations" ];
  expect "lsa" [ "sched.lsa.grant_broadcasts"; "sched.lsa.follower_grants" ];
  expect "pds" [ "sched.pds.grants"; "sched.pds.rounds" ];
  expect "mat" [ "sched.mat.grants"; "sched.mat.promotions" ];
  expect "mat-ll" [ "sched.mat-ll.grants"; "sched.mat-ll.handoffs" ];
  expect "pmat" [ "sched.pmat.grants" ]

let test_metrics_render () =
  let obs = Recorder.create () in
  ignore (run ~scheduler:"mat" ~clients:2 ~requests:2 ~obs ());
  let table = Metrics.to_table (Recorder.metrics obs) in
  let csv = Detmt_stats.Table.to_csv table in
  Alcotest.(check bool) "csv has header" true
    (String.length csv > 0
    && String.sub csv 0 6 = "metric");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "csv mentions totem" true
    (contains csv "totem.broadcasts")

let test_chaos_metrics () =
  (* The chaos layer folds the transport's fault counters into the recorder
     after a degraded run. *)
  let scenario =
    match Chaos.find_scenario "lossy" with
    | Some s -> s
    | None -> Alcotest.fail "no lossy scenario"
  in
  let obs = Recorder.create () in
  let o =
    Chaos.run ~clients:2 ~requests_per_client:2 ~obs ~scenario
      ~scheduler:"mat" ~cls:figure1_cls ~gen:figure1_gen ()
  in
  Alcotest.(check bool) "run ok" true (Chaos.ok o);
  let m = Recorder.metrics obs in
  let names = Metrics.names m in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "metric %S missing" n)
    [ "faults.transmissions"; "faults.losses"; "chaos.client_retries";
      "totem.retransmits" ];
  Alcotest.(check bool) "losses counted" true
    (Metrics.counter_value m "faults.losses" > 0)

(* ----------------------- audit + forensics window ------------------- *)

let test_audit_window () =
  let obs = Recorder.create () in
  let decide ~at ~tid =
    Recorder.decision obs ~at ~replica:0 ~scheduler:"mat" ~tid
      ~action:Detmt_obs.Audit.Grant_lock ~mutex:7
      ~rule:Detmt_obs.Audit.Primary_continue ()
  in
  decide ~at:1.0 ~tid:0;
  decide ~at:10.0 ~tid:1;
  decide ~at:11.0 ~tid:2;
  decide ~at:30.0 ~tid:3;
  Recorder.checkpoint obs ~replica:0 ~seq:5 ~at:10.5;
  (match Recorder.checkpoint_time obs ~replica:0 ~seq:5 with
  | Some at ->
    let window = Recorder.audit_window obs ~around:at ~margin:2.0 in
    Alcotest.(check (list int)) "window tids" [ 1; 2 ]
      (List.map (fun e -> e.Detmt_obs.Audit.tid) window)
  | None -> Alcotest.fail "checkpoint time not recorded");
  Alcotest.(check int) "audit count" 4 (Recorder.audit_count obs)

(* pMAT's deferral audit names what gates a request: the unpredicted queue
   predecessors (never successors), or the predicted predecessors whose
   future set holds the mutex. *)
let pmat_gate_cls =
  let open Detmt_lang.Builder in
  Detmt_lang.Builder.cls ~cname:"PmatGate" ~state_fields:[ "st" ]
    ~mutex_fields:[ ("f", 9) ]
    [ (* unpredicted until it acquires the spontaneous field lock *)
      meth "late" ~params:1
        [ compute 5.0; sync (field "f") [ state_incr "st" 1 ] ];
      (* predicted from the start, future set {arg 0} *)
      meth "claim" ~params:1
        [ compute 5.0; sync (arg 0) [ state_incr "st" 1 ] ];
      meth "quick" ~params:1
        [ compute 1.0; sync (arg 0) [ state_incr "st" 1 ] ] ]

let pmat_deferrals meths =
  let obs = Recorder.create () in
  let engine = Engine.create () in
  let params =
    { Active.default_params with
      Active.scheduler = "pmat"; replicas = 1; net_latency_ms = 0.0;
      client_latency_ms = 0.0 }
  in
  let system = Active.create ~obs ~engine ~cls:pmat_gate_cls ~params () in
  List.iteri
    (fun i meth ->
      Active.submit system ~client:i ~client_req:0 ~meth
        ~args:[| Detmt_lang.Ast.Vmutex 1 |]
        ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> ()))
    meths;
  Engine.run engine;
  Alcotest.(check int) "all answered" (List.length meths)
    (Active.replies_received system);
  List.filter_map
    (fun (e : Detmt_obs.Audit.entry) ->
      if e.action = Detmt_obs.Audit.Defer then
        Some (e.tid, Detmt_obs.Audit.rule_name e.rule, e.candidates)
      else None)
    (Recorder.audit_entries obs)

let test_pmat_deferral_audit () =
  let entry = Alcotest.(triple int string (list int)) in
  (* t1 waits for the unpredicted t0 only; the unpredicted successor t2 does
     not gate it.  t2 later finds t0 holding the field lock and names the
     holder. *)
  Alcotest.(check (list entry)) "unpredicted predecessor"
    [ (1, "predecessor-unpredicted", [ 0 ]); (2, "mutex-held", [ 0 ]) ]
    (pmat_deferrals [ "late"; "quick"; "late" ]);
  (* t0 is predicted but will still lock m1: a conflict, not a prediction
     gap. *)
  Alcotest.(check (list entry)) "conflicting predecessor"
    [ (1, "predecessor-conflict", [ 0 ]) ]
    (pmat_deferrals [ "claim"; "quick" ])

(* ------------------------ windowed time series ----------------------- *)

(* Virtual-time windows are part of the deterministic surface: two runs
   with the same seed must produce identical window stores. *)
let test_series_seed_reproducible () =
  let series () =
    let obs = Recorder.create () in
    ignore (run ~scheduler:"mat" ~obs ());
    let ts = Recorder.timeseries obs in
    List.map
      (fun name -> (name, Timeseries.kind ts name, Timeseries.windows ts name))
      (Timeseries.names ts)
  in
  let a = series () and b = series () in
  (* [compare], not [=]: an empty window's extrema may be nan *)
  Alcotest.(check bool) "windows reproduce" true (compare a b = 0);
  Alcotest.(check bool) "windows non-trivial" true
    (List.exists (fun (_, _, ws) -> ws <> []) a)

let test_series_windowing () =
  let ts = Timeseries.create ~width_ms:10.0 ~retain:4 () in
  (* a counter folds into per-window sums... *)
  Timeseries.bump ts ~name:"c" ~at:1.0 ~by:1.0;
  Timeseries.bump ts ~name:"c" ~at:9.0 ~by:2.0;
  Timeseries.bump ts ~name:"c" ~at:12.0 ~by:5.0;
  (* ...a gauge keeps n/min/max/last per window... *)
  Timeseries.sample ts ~name:"g" ~at:3.0 ~value:7.0;
  Timeseries.sample ts ~name:"g" ~at:4.0 ~value:3.0;
  let sums name =
    List.map
      (fun w -> w.Timeseries.w_sum)
      (Timeseries.windows ts name)
  in
  Alcotest.(check (list (float 0.0))) "counter window sums" [ 3.0; 5.0 ]
    (sums "c");
  (match Timeseries.windows ts "g" with
  | [ w ] ->
    Alcotest.(check int) "gauge samples" 2 w.Timeseries.w_n;
    Alcotest.(check (float 0.0)) "gauge min" 3.0 w.Timeseries.w_min;
    Alcotest.(check (float 0.0)) "gauge max" 7.0 w.Timeseries.w_max;
    Alcotest.(check (float 0.0)) "gauge last" 3.0 w.Timeseries.w_last
  | ws -> Alcotest.failf "expected one gauge window, got %d" (List.length ws));
  (* ...and the ring keeps only the newest [retain] windows. *)
  List.iter
    (fun at -> Timeseries.bump ts ~name:"c" ~at ~by:1.0)
    [ 25.0; 35.0; 45.0; 55.0 ];
  Alcotest.(check int) "ring truncates" 4
    (List.length (Timeseries.windows ts "c"));
  (* peak is over the retained ring only: the early 3.0/5.0 windows fell off *)
  Alcotest.(check (float 0.0)) "peak over retained windows" 1.0
    (Timeseries.peak ts "c")

(* ----------------------------- Hdr ----------------------------------- *)

let test_hdr_exact_moments () =
  let h = Hdr.create () in
  for i = 1 to 1000 do
    Hdr.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Hdr.count h);
  Alcotest.(check (float 0.0)) "sum" 500500.0 (Hdr.total h);
  Alcotest.(check (float 0.0)) "min" 1.0 (Hdr.min h);
  Alcotest.(check (float 0.0)) "max" 1000.0 (Hdr.max h);
  (* log-linear buckets: 16 per octave, so any quantile lands within one
     bucket — a few percent — of the exact answer. *)
  let p50 = Hdr.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.1f near 500" p50)
    true
    (Float.abs (p50 -. 500.0) /. 500.0 < 0.10);
  let p99 = Hdr.quantile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p99 %.1f near 990" p99)
    true
    (Float.abs (p99 -. 990.0) /. 990.0 < 0.10);
  (* memory stays O(buckets), not O(values) *)
  Alcotest.(check bool) "bounded buckets" true (Hdr.bucket_count h < 200);
  (* cumulative counts are monotone and end at the total *)
  let cum = Hdr.cumulative h in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative monotone" true (monotone cum);
  (match List.rev cum with
  | (_, last) :: _ -> Alcotest.(check int) "cumulative total" 1000 last
  | [] -> Alcotest.fail "empty cumulative")

let test_hdr_edge_values () =
  let h = Hdr.create () in
  List.iter (Hdr.add h) [ 0.0; -3.0; Float.nan; 42.0 ];
  (* non-positive and non-finite values land in the zero bucket; quantiles
     that fall inside it answer the observed minimum *)
  Alcotest.(check int) "count" 4 (Hdr.count h);
  Alcotest.(check (float 0.0)) "p25 is the observed min" (Hdr.min h)
    (Hdr.quantile h 0.25);
  Alcotest.(check (float 0.0)) "min tracks negatives" (-3.0) (Hdr.min h);
  Alcotest.(check (float 0.0)) "max" 42.0 (Hdr.max h)

(* --------------------------- profiler -------------------------------- *)

let test_profile_phases () =
  let p = Profile.create () in
  let obs = Recorder.profile_only p in
  ignore (run ~scheduler:"mat" ~obs ());
  let row phase =
    List.find (fun r -> r.Profile.p_phase = phase) (Profile.phase_rows p)
  in
  Alcotest.(check bool) "pops timed" true ((row "pop").Profile.p_calls > 0);
  Alcotest.(check bool) "dispatches timed" true
    ((row "dispatch").Profile.p_calls > 0);
  Alcotest.(check bool) "grants timed" true
    ((row "grant").Profile.p_calls > 0);
  (match Profile.decision_rows p with
  | [ d ] ->
    Alcotest.(check string) "decision module" "mat" d.Profile.d_module;
    Alcotest.(check bool) "decision calls" true (d.Profile.d_calls > 0)
  | rows -> Alcotest.failf "expected one decision row, got %d"
              (List.length rows));
  let a = Profile.alloc p in
  if not (a.Profile.minor_words > 0.0) then
    Alcotest.failf "alloc: minor=%f major=%f promoted=%f wall=%f"
      a.Profile.minor_words a.major_words a.promoted_words
      (Profile.wall_seconds p);
  (* profile-only mode keeps the metric/span sites off *)
  Alcotest.(check bool) "no spans in profile-only mode" true
    (Recorder.spans obs = []);
  (* reset clears every cell *)
  Profile.reset p;
  Alcotest.(check int) "reset clears calls" 0 (row "dispatch").Profile.p_calls

(* Every release of a held thread goes through the substrate's one grant
   path, so every registry entry reports its [grant] phase, and every entry
   whose requests all run directly (all but the speculating wss) releases
   the same locks, re-acquisitions and nested replies on figure1. *)
let test_profile_grant_coverage () =
  let grants name =
    let p = Profile.create () in
    ignore
      (Detmt.Experiment.run ~obs:(Recorder.profile_only p)
         { Detmt.Experiment.base with scheduler = name; clients = 16;
           requests = 4 });
    let row =
      List.find (fun r -> r.Profile.p_phase = "grant") (Profile.phase_rows p)
    in
    (name, row.Profile.p_calls)
  in
  let counts =
    List.map
      (fun (spec : Detmt_sched.Registry.spec) -> grants spec.name)
      Detmt_sched.Registry.all
  in
  List.iter
    (fun (name, calls) ->
      Alcotest.(check bool) (name ^ " times its grants") true (calls > 0))
    counts;
  let direct = List.filter (fun (name, _) -> name <> "wss") counts in
  let mat = List.assoc "mat" counts in
  List.iter
    (fun (name, calls) ->
      Alcotest.(check int) (name ^ " grants as many as mat") mat calls)
    direct

(* The [profile --json] document's shape, which dashboards read. *)
let test_profile_json () =
  let p = Profile.create () in
  ignore (run ~scheduler:"mat" ~obs:(Recorder.profile_only p) ());
  let doc = Profile.to_json p in
  let field path =
    match
      List.fold_left
        (fun v k -> Option.bind v (Json.member k))
        (Some doc) path
    with
    | Some v -> v
    | None -> Alcotest.failf "missing profile.%s" (String.concat "." path)
  in
  let number path =
    match field path with
    | Json.Int n -> float_of_int n
    | Json.Float f -> f
    | _ -> Alcotest.failf "profile.%s is not a number" (String.concat "." path)
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " calls") true
        (number [ "phases"; phase; "calls" ] >= 0.0);
      Alcotest.(check bool) (phase ^ " seconds") true
        (number [ "phases"; phase; "seconds" ] >= 0.0))
    [ "pop"; "dispatch"; "grant"; "flush" ];
  Alcotest.(check bool) "dispatches timed" true
    (number [ "phases"; "dispatch"; "calls" ] > 0.0);
  Alcotest.(check bool) "decision rows" true
    (match field [ "decisions" ] with
    | Json.List (_ :: _) | Json.Obj (_ :: _) -> true
    | _ -> false);
  List.iter
    (fun k -> ignore (number [ "alloc"; k ]))
    [ "minor_words"; "major_words"; "promoted_words" ];
  ignore (number [ "wall_seconds" ]);
  (* The outer document [profile --json] prints around it, from three
     interleaved pairs: the wall overhead is their median, the words come
     from the last pair. *)
  let pair b p =
    ( { Profile.wall_s = 2.0; minor_words = 1000.0 },
      { Profile.wall_s = b; minor_words = p } )
  in
  let o =
    Profile.overhead p
      [ pair 2.2 1500.0; pair 1.9 1500.0; pair 2.1 1010.0 ]
  in
  let report =
    Profile.report ~scheduler:"cgs+ws" ~workload:"sharded-opaque" ~workers:4
      ~clients:8 ~requests:2 ~shards:1 o p
  in
  Alcotest.(check (list string)) "report keys"
    [ "scheduler"; "workload"; "workers"; "clients"; "requests"; "shards";
      "pairs"; "profile"; "activations"; "timed_activations"; "timed_pct";
      "minor_words_baseline"; "minor_words_profiled"; "words_overhead_pct";
      "wall_overhead_pct" ]
    (match report with Json.Obj kvs -> List.map fst kvs | _ -> []);
  Alcotest.(check bool) "report records the pool width" true
    (Json.member "workers" report = Some (Json.Int 4));
  Alcotest.(check (float 1e-9)) "median wall overhead" 5.0
    o.Profile.wall_median_pct;
  Alcotest.(check (float 1e-9)) "words from the last pair" 1.0
    o.Profile.words_pct;
  (* One outermost activation in 1024 is timed, plus each cell's first. *)
  let outermost = o.Profile.outermost and timed = o.Profile.timed in
  Alcotest.(check bool) "activations sampled" true
    (outermost > 0 && timed >= 1 && timed <= (outermost / 1024) + 16);
  Alcotest.(check (list string)) "within a 5% bound" []
    (List.map fst (Profile.violations o ~bound_pct:5.0));
  Alcotest.(check (list string)) "words over a 0.5% bound"
    [ "minor words overhead" ]
    (List.map fst (Profile.violations o ~bound_pct:0.5))

(* ------------------------- critical path ----------------------------- *)

let test_critical_path () =
  let obs = Recorder.create () in
  let system = run ~scheduler:"mat" ~obs () in
  let report = Critical_path.analyse obs in
  Alcotest.(check int) "one item per answered request"
    (Active.replies_received system)
    (List.length report.Critical_path.items);
  List.iter
    (fun it ->
      Alcotest.(check bool)
        (Printf.sprintf "dominant %S is a known component"
           it.Critical_path.cp_dominant)
        true
        (List.mem it.Critical_path.cp_dominant Critical_path.components);
      Alcotest.(check bool) "dominant <= total" true
        (it.Critical_path.cp_dominant_ms <= it.Critical_path.cp_total_ms +. 1e-9))
    report.Critical_path.items;
  let by_component_count =
    List.fold_left
      (fun acc (_, s) -> acc + s.Critical_path.s_count)
      0 report.Critical_path.by_component
  in
  Alcotest.(check int) "component slices partition the requests"
    (List.length report.Critical_path.items)
    by_component_count

(* A workspace run: the requests whose latency the commit barrier
   dominated must land in a slice like every other request. *)
let test_critical_path_commit_hold () =
  let obs = Recorder.create () in
  let row =
    Detmt.Experiment.run ~obs
      { Detmt.Experiment.base with
        workload = Detmt.Experiment.workload "sharded-opaque";
        scheduler = "wss"; workers = 4; clients = 32; requests = 2 }
  in
  let report = Critical_path.analyse obs in
  let count slices =
    List.fold_left (fun acc (_, s) -> acc + s.Critical_path.s_count) 0 slices
  in
  Alcotest.(check int) "overall slices count every answered request"
    row.outcome.replies
    (count report.Critical_path.by_component);
  Alcotest.(check bool) "the commit barrier dominates some request" true
    (List.mem_assoc "commit-hold" report.Critical_path.by_component)

(* --------------------------- OpenMetrics ----------------------------- *)

let test_openmetrics_golden () =
  (* Fixed small run on one bare [Active] group against the committed
     exposition.  Regenerate after an intentional schema change by writing
     [got] below to test/openmetrics_golden.txt: the CLI's
     [metrics -f openmetrics] runs through [Reconfig] and also emits the
     [reconfig.*] family, so its output is not this file. *)
  let obs = Recorder.create () in
  ignore (run ~scheduler:"mat" ~clients:2 ~requests:1 ~obs ());
  let got = Openmetrics.export (Recorder.metrics obs) in
  let ic = open_in "openmetrics_golden.txt" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "golden openmetrics exposition" (String.trim want)
    (String.trim got)

let test_openmetrics_roundtrip () =
  let obs = Recorder.create () in
  ignore (run ~scheduler:"mat" ~obs ());
  let text = Openmetrics.export (Recorder.metrics obs) in
  match Readers.openmetrics text with
  | Error msg -> Alcotest.failf "exposition does not parse back: %s" msg
  | Ok doc ->
    (* the parse is an Obs.Json value: it must survive a print/parse cycle *)
    (match Readers.json (Json.to_string doc) with
    | Error msg -> Alcotest.failf "parsed doc not valid Json: %s" msg
    | Ok doc' ->
      Alcotest.(check string) "json round-trip" (Json.to_string doc)
        (Json.to_string doc'));
    let family name =
      match Json.member name doc with
      | Some (Json.Obj _ as f) -> f
      | _ -> Alcotest.failf "family %S missing" name
    in
    let fam = family "detmt_active_replies" in
    (match Json.member "type" fam with
    | Some (Json.String "counter") -> ()
    | _ -> Alcotest.fail "reply family is not a counter");
    (match Json.member "samples" fam with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "reply family has no samples")

let () =
  Alcotest.run "obs"
    [ ("determinism", determinism_tests);
      ("breakdowns", breakdown_tests);
      ( "chrome",
        [ Alcotest.test_case "schema" `Quick test_chrome_schema;
          Alcotest.test_case "golden" `Quick test_chrome_golden ] );
      ( "metrics",
        [ Alcotest.test_case "coverage" `Quick test_metrics_coverage;
          Alcotest.test_case "render" `Quick test_metrics_render;
          Alcotest.test_case "chaos counters" `Quick test_chaos_metrics ] );
      ( "series",
        [ Alcotest.test_case "seed-reproducible" `Quick
            test_series_seed_reproducible;
          Alcotest.test_case "windowing" `Quick test_series_windowing ] );
      ( "hdr",
        [ Alcotest.test_case "exact moments, bounded buckets" `Quick
            test_hdr_exact_moments;
          Alcotest.test_case "edge values" `Quick test_hdr_edge_values ] );
      ( "profile",
        [ Alcotest.test_case "phases + decisions + alloc" `Quick
            test_profile_phases;
          Alcotest.test_case "json schema" `Quick test_profile_json;
          Alcotest.test_case "grant phase covers every entry" `Quick
            test_profile_grant_coverage ] );
      ( "critical-path",
        [ Alcotest.test_case "dominant components" `Quick
            test_critical_path;
          Alcotest.test_case "commit-hold counted" `Quick
            test_critical_path_commit_hold ] );
      ( "openmetrics",
        [ Alcotest.test_case "golden" `Quick test_openmetrics_golden;
          Alcotest.test_case "parse round-trip" `Quick
            test_openmetrics_roundtrip ] );
      ( "audit",
        [ Alcotest.test_case "window" `Quick test_audit_window;
          Alcotest.test_case "pmat deferral gates" `Quick
            test_pmat_deferral_audit ] ) ]
