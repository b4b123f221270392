(* Tests for the experiment registry: each spec's grid runs, the headline
   qualitative claims hold on reduced grids (the full grids live behind
   `detmt-cli bench`), and the claim checks themselves catch a violation. *)

module E = Detmt.Experiment

let b = Alcotest.bool

let spec name =
  match E.find name with
  | Some s -> s
  | None -> Alcotest.failf "no experiment %s" name

(* Run a spec over the part of its default grid [keep] selects, optionally
   re-pointed at one client count. *)
let run ?(keep = fun _ -> true) ?clients name =
  let s = spec name in
  s.E.run (E.restrict ?clients (List.filter keep s.E.grid))

let rows ?keep ?clients name = fst (run ?keep ?clients name)

let row rows ?(workers = 1) ?clients scheduler =
  match
    List.find_opt
      (fun (r : E.row) ->
        r.config.scheduler = scheduler && r.config.workers = workers
        && Option.fold ~none:true ~some:(( = ) r.config.clients) clients)
      rows
  with
  | Some r -> r
  | None -> Alcotest.failf "no row %s@%d" scheduler workers

let mean rows ?workers ?clients s =
  (row rows ?workers ?clients s).outcome.mean_ms

let contains ~needle text =
  let n = String.length needle and h = String.length text in
  let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
  go 0

(* Every claim a spec reports over [rows] holds, and [expect] are among
   them. *)
let check_claims ?(expect = []) name rows =
  let claims = (spec name).E.claims rows in
  List.iter
    (fun c ->
      Alcotest.check b ("claim reported: " ^ c) true (List.mem_assoc c claims))
    expect;
  List.iter (fun (c, holds) -> Alcotest.check b c true holds) claims

let wname w (c : E.config) = c.workload.wname = w

let test_figure1_shape () =
  let paper = Detmt.Registry.paper_figure1 in
  let rows, text =
    run "fig1" ~keep:(fun c ->
        wname "figure1" c && List.mem c.scheduler paper
        && (c.clients = 1 || c.clients = 8))
  in
  Alcotest.(check int) "ten rows" 10 (List.length rows);
  Alcotest.(check (list string)) "schedulers" paper
    (List.filter_map
       (fun (r : E.row) ->
         if r.config.clients = 1 then Some r.config.scheduler else None)
       rows);
  Alcotest.check b "five series in the chart" true
    (contains ~needle:"E = mat" text);
  (* SEQ degrades fastest; LSA stays lowest. *)
  let at s = mean rows ~clients:8 s in
  Alcotest.check b "seq worst at 8 clients" true
    (at "seq" > at "mat" && at "seq" > at "lsa");
  Alcotest.check b "lsa best at 8 clients" true (at "lsa" < at "mat");
  check_claims "fig1" rows
    ~expect:[ "E1: MAT beats SEQ"; "E1: LSA beats MAT" ]

let test_figure1b_mat_beats_sat () =
  let rows =
    rows "fig1b" ~keep:(fun c ->
        c.clients = 8 && (c.scheduler = "sat" || c.scheduler = "mat"))
  in
  Alcotest.check b "front computation favours MAT" true
    (mean rows "mat" < 0.8 *. mean rows "sat");
  check_claims "fig1b" rows ~expect:[ "MAT at least 20% faster than SAT" ]

let test_figure2_last_lock_wins () =
  let rows = rows "fig2" ~keep:(fun c -> c.clients = 8) in
  Alcotest.check b "last-lock hand-off is faster" true
    (mean rows "mat-ll" < 0.6 *. mean rows "mat");
  check_claims "fig2" rows

let test_figure3_prediction_wins () =
  let rows = rows "fig3" ~keep:(fun c -> c.clients = 8) in
  let mat = mean rows "mat" and seq = mean rows "seq" in
  Alcotest.check b "MAT degenerates to SEQ on disjoint locks" true
    (abs_float (mat -. seq) < 0.05 *. seq);
  Alcotest.check b "PMAT approaches the ideal" true
    (mean rows "pmat" < 0.5 *. mat);
  check_claims "fig3" rows

let test_figure4_text () =
  let rows, text = run "fig4" in
  Alcotest.(check int) "no rows" 0 (List.length rows);
  List.iter
    (fun needle ->
      Alcotest.check b (Printf.sprintf "contains %S" needle) true
        (contains ~needle text))
    [ "synchronized"; "scheduler.lock(1"; "scheduler.ignore(2";
      "scheduler.lockInfo(1" ]

let test_wan_lsa_degrades_faster () =
  let rows =
    rows "wan" ~clients:4 ~keep:(fun c ->
        c.latency_ms = 0.5 || c.latency_ms = 50.0)
  in
  let at s l =
    (List.find
       (fun (r : E.row) -> r.config.scheduler = s && r.config.latency_ms = l)
       rows)
      .outcome
      .mean_ms
  in
  Alcotest.check b "lsa slope steeper than mat" true
    (at "lsa" 50.0 -. at "lsa" 0.5 > at "mat" 50.0 -. at "mat" 0.5);
  check_claims "wan" rows
    ~expect:[ "LSA degrades faster with latency than MAT" ]

let test_failover_lsa_pays () =
  let rows = rows "failover" ~keep:(fun c -> c.scheduler <> "sat") in
  let takeover s = E.metric (row rows s) "takeover_ms" in
  Alcotest.check b "lsa pays a take-over delay" true (takeover "lsa" > 10.0);
  Alcotest.check b "mat does not" true (takeover "mat" < 1.0);
  check_claims "failover" rows

let test_prodcons_all_consistent () =
  let rows = rows "prodcons" ~clients:4 in
  Alcotest.(check int) "six schedulers" 6 (List.length rows);
  List.iter
    (fun (r : E.row) ->
      Alcotest.check b (r.config.scheduler ^ " consistent") true
        r.outcome.consistent)
    rows;
  check_claims "prodcons" rows

let test_determinism_matrix () =
  let rows = rows "determinism" in
  let agree s m = E.metric (row rows s) m = 1.0 in
  List.iter
    (fun s ->
      Alcotest.check b (s ^ " state") true (agree s "states_agree");
      Alcotest.check b (s ^ " acquisitions") true
        (agree s "acquisitions_agree"))
    [ "seq"; "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat" ];
  Alcotest.check b "lsa traces diverge" false (agree "lsa" "traces_agree");
  Alcotest.check b "freefall diverges" false
    (agree "freefall" "acquisitions_agree");
  check_claims "determinism" rows ~expect:[ "freefall diverges" ]

let test_run_workload_fields () =
  let r =
    E.run
      { E.base with workload = E.workload "disjoint"; scheduler = "mat";
        clients = 2; requests = 3 }
  in
  Alcotest.(check int) "replies" 6 r.outcome.replies;
  Alcotest.(check int) "expected" 6 r.outcome.expected;
  Alcotest.check b "throughput positive" true
    (r.outcome.throughput_per_s > 0.0);
  Alcotest.check b "consistent" true r.outcome.consistent;
  Alcotest.check b "cpu was used" true (E.metric r "cpu_busy_ms" > 0.0);
  Alcotest.check b "grants recorded" true (E.metric r "grants" > 0.0);
  Alcotest.check b "series recorded" true (r.cost.series_points > 0)

(* One row per drive, pinned when a one-group row still ran on a bare
   {!Detmt.Active} system rather than on [Static 1]: every row now runs
   through {!Detmt.Reconfig}, and these must not move. *)
let test_rows_pinned () =
  let check what c ~replies ~mean ~p95 ~fp extra =
    let r = E.run c in
    Alcotest.(check int) (what ^ ": replies") replies r.outcome.replies;
    Alcotest.(check (float 0.0)) (what ^ ": mean") mean r.outcome.mean_ms;
    Alcotest.(check (float 0.0)) (what ^ ": p95") p95 r.outcome.p95_ms;
    Alcotest.(check string) (what ^ ": fingerprint") fp
      (Printf.sprintf "%Lx" r.outcome.fingerprint);
    Alcotest.check b (what ^ ": consistent") true r.outcome.consistent;
    List.iter
      (fun (k, v) ->
        Alcotest.(check (float 0.0)) (what ^ ": " ^ k) v (E.metric r k))
      extra
  in
  check "closed figure1" { E.base with clients = 4; requests = 3 }
    ~replies:12 ~mean:0x1.025f92c5f92d2p+6 ~p95:0x1.e628f5c28f5d4p+6
    ~fp:"cfa3d3abd244f63a" [];
  check "open loop"
    { E.base with scheduler = "lsa"; clients = 1; requests = 30;
      drive = Open_loop 200.0 }
    ~replies:30 ~mean:0x1.e6a66644398b1p+5 ~p95:0x1.8f315745042acp+6
    ~fp:"ffcf6fd4ea089734" [];
  check "kill leader"
    { E.base with workload = E.workload "disjoint"; scheduler = "lsa";
      requests = 30; drive = Kill_leader 150.0 }
    ~replies:240 ~mean:0x1.03d2f1a9fbe55p+4 ~p95:0x1.033333333334p+4
    ~fp:"4d34e9e2f2f226d0" [ ("takeover_ms", 0x1.44f5c28f5c296p+5) ];
  check "determinism lsa"
    { E.base with workload = E.workload "tail"; scheduler = "lsa";
      requests = 5 }
    ~replies:40 ~mean:0x1.480c49ba5e353p+5 ~p95:0x1.6a66666666668p+5
    ~fp:"5765f7eaed101446" [ ("traces_agree", 0.0) ]

(* One metric schema: under one recorder setting, every system reports the
   same runner keys in the same order, and a drive adds only its own. *)
let test_one_schema () =
  let keys ?obs c = List.map fst (E.run ?obs c).outcome.metrics in
  let c =
    { E.base with workload = E.workload "hotspot"; clients = 16; requests = 4 }
  in
  List.iter
    (fun (setting, obs) ->
      let one = keys ?obs c in
      List.iter
        (fun (what, system) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s, %s" setting what)
            one
            (keys ?obs { c with system }))
        [ ("static 4", E.Static 4);
          ("autoscale", E.Autoscale E.elastic_bench_policy) ];
      Alcotest.(check (list string)) (setting ^ ", open loop") one
        (keys ?obs { c with clients = 1; drive = Open_loop 200.0 });
      let without_takeover =
        List.filter
          (fun k -> k <> "takeover_ms" && k <> "replies_after")
          (keys ?obs { c with drive = Kill_leader 5.0 })
      in
      Alcotest.(check (list string)) (setting ^ ", kill leader") one
        without_takeover)
    [ ("recorder on", None); ("recorder off", Some Detmt.Recorder.disabled) ];
  Alcotest.check b "kill leader reports its take-over" true
    (Float.is_finite
       (E.metric (E.run { c with drive = Kill_leader 5.0 }) "takeover_ms"))

(* Static layouts once ran on a separate sharding runtime; these are its
   fingerprints and mean responses (16 clients x 4 requests, seed 42).
   [Static n] must reproduce them bit for bit: [route ~shards:64] reduced
   mod n is [route ~shards:n] for every n dividing 64. *)
let test_static_reproduces_shard_runtime () =
  let check wname scheduler workers pins =
    List.iter
      (fun (n, fp, mean) ->
        let r =
          E.run
            { E.base with workload = E.workload wname; system = Static n;
              scheduler; workers; clients = 16; requests = 4 }
        in
        let what =
          Printf.sprintf "%s %s@%d, %d groups" wname scheduler workers n
        in
        Alcotest.(check string) (what ^ ": fingerprint") fp
          (Printf.sprintf "%Lx" r.outcome.fingerprint);
        Alcotest.(check (float 0.0)) (what ^ ": mean") mean r.outcome.mean_ms;
        Alcotest.(check int) (what ^ ": replies") 64 r.outcome.replies;
        Alcotest.check b (what ^ ": consistent") true r.outcome.consistent)
      pins
  in
  check "sharded" "mat" 1
    [ (1, "736af2351bdd8ce0", 0x1.36a3d70a3d71p+4);
      (2, "45227f47e51952a3", 0x1.778000000000bp+3);
      (4, "ba6914f28c7f234c", 0x1.df47ae147ae0fp+2);
      (8, "509b497e47c77075", 0x1.32ffffffffffdp+2) ];
  check "sharded-opaque" "cgs+ws" 4
    [ (1, "efd2094900c05e4", 0x1.6f4f5c28f5c29p+2);
      (2, "946d31346d94fb63", 0x1.0a0a3d70a3d6ep+2);
      (4, "a3cd3634747f05e6", 0x1.d470a3d70a3d7p+1);
      (8, "cd87e88a599be85", 0x1.cc00000000002p+1) ]

(* A multi-group row's [consistent] includes acquisition-order agreement:
   free-running prodcons over two groups keeps the replicas' states equal
   but grants the mutexes in different orders. *)
let test_static_checks_acquisitions () =
  let r =
    E.run
      { E.base with workload = E.workload "prodcons"; system = Static 2;
        scheduler = "freefall"; clients = 4; requests = 4 }
  in
  let m k = List.assoc k r.outcome.metrics in
  Alcotest.(check (float 0.0)) "states agree" 1.0 (m "states_agree");
  Alcotest.(check (float 0.0)) "acquisitions diverge" 0.0
    (m "acquisitions_agree");
  Alcotest.check b "not consistent" false r.outcome.consistent

let test_saturation_smoke () =
  let rows =
    List.concat_map
      (fun rate ->
        List.map
          (fun scheduler ->
            E.run
              { E.base with scheduler; clients = 1; requests = 30;
                drive = Open_loop rate })
          [ "seq"; "lsa" ])
      [ 20.0; 200.0 ]
  in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  (* At 10x the load, SEQ's backlog must dwarf LSA's. *)
  check_claims "saturation" rows
    ~expect:[ "SEQ saturates before LSA (3x) at the highest rate" ]

let test_interference_experiment () =
  let _, text = run "interference" in
  let pairs =
    List.length
      (List.filter
         (fun l -> contains ~needle:"never interfere" l)
         (String.split_on_char '\n' text))
  in
  Alcotest.(check int) "three independent pairs" 3 pairs

let test_model_experiment_shape () =
  let rows =
    rows "model" ~keep:(fun c -> c.clients = 8 && c.scheduler = "seq")
  in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.check b "model column" true (E.metric r "model_ms" > 0.0);
  Alcotest.check b "error column" true
    (Float.abs (E.metric r "err_pct") < 25.0)

(* The paper-level claims `detmt-cli bench` checks on the full grids, here
   at reduced client counts. *)

let test_claim_e19 () =
  check_claims "fig1"
    (rows "fig1" ~clients:64 ~keep:(wname "figure1-low-conflict"))
    ~expect:[ "E19: cgs at 4 workers beats pMAT" ]

let test_claim_e20a () =
  check_claims "fig1"
    (rows "fig1" ~clients:64 ~keep:(wname "sharded-opaque"))
    ~expect:
      [ "E20a: cgs+ws at 4 workers beats cgs at 4";
        "E20a: wss at 4 workers beats cgs at 4" ]

let test_claim_e20b () =
  check_claims "fig1"
    (rows "fig1" ~clients:16 ~keep:(wname "tail"))
    ~expect:[ "E20b: pcgs at 4 workers beats cgs at 4" ]

(* The cgs family's cost per request does not grow with the number of live
   requests: the E18 load-independence rows at their own client counts. *)
let test_claim_e18_load () =
  check_claims "engine"
    (rows "engine" ~keep:(fun c -> c.workers = 4))
    ~expect:
      [ "cgs@4 on figure1: words/request at 256 clients <= 1.5x the \
         64-client row";
        "cgs+ws@4 on sharded-opaque: words/request at 256 clients <= 1.5x \
         the 64-client row" ]

(* The replica hot path's allocation gate, on its own full-size row. *)
let test_claim_e18_words () =
  check_claims "engine"
    (rows "engine" ~keep:(fun c -> wname "figure1" c && c.scheduler = "mat"))
    ~expect:[ "mat on figure1@256 under 4.1 words/event" ]

(* The §4.3 bookkeeping and claim refresh gate, on pMAT's full-size row. *)
let test_claim_e18_pmat_words () =
  check_claims "engine"
    (rows "engine" ~keep:(fun c -> wname "figure1" c && c.scheduler = "pmat"))
    ~expect:[ "pmat on figure1@256 under 3.9 words/event" ]

(* The request lifecycle without decisions: seq's row pins what the
   client, GCS and replica path cost on their own. *)
let test_claim_e18_seq_words () =
  check_claims "engine"
    (rows "engine" ~keep:(fun c -> wname "figure1" c && c.scheduler = "seq"))
    ~expect:[ "seq on figure1@256 under 5 words/event" ]

(* The conflict-graph family's allocation gates, each on its own
   full-size row: cgs's decisions on figure1, and cgs+ws's pooled
   workspaces and decisions on sharded-opaque. *)
let test_claim_e18_cgs_words () =
  check_claims "engine"
    (rows "engine" ~keep:(fun c ->
         wname "figure1" c && c.scheduler = "cgs" && c.clients = 256))
    ~expect:[ "cgs@4 on figure1@256 under 5.4 words/event" ]

let test_claim_e18_cgs_ws_words () =
  check_claims "engine"
    (rows "engine" ~keep:(fun c ->
         wname "sharded-opaque" c && c.scheduler = "cgs+ws"
         && c.clients = 256))
    ~expect:[ "cgs+ws@4 on sharded-opaque@256 under 19.7 words/event" ]

(* The raw chain boxes only the clock, once per new instant. *)
let test_claim_e18_raw_chain () =
  check_claims "engine"
    (rows "engine" ~keep:(fun c -> wname "raw-chain" c))
    ~expect:[ "raw chain at most 0.047 words/event" ]

(* The request path posts typed events only: a figure1 run fires no thunk
   event, and the count does not grow with the client count. *)
let test_no_thunks_on_request_path () =
  List.iter
    (fun clients ->
      let c = { E.base with clients; requests = 4 } in
      let engine = Detmt.Engine.create () in
      let sys = E.system ~obs:Detmt.Recorder.disabled engine c in
      let stats =
        Detmt.Reconfig.run_clients_stats sys ~clients ~requests_per_client:4
          ~gen:c.workload.gen ~seed:c.seed ()
      in
      Alcotest.(check int)
        (Printf.sprintf "%d clients: replies" clients)
        (clients * 4) stats.Detmt.Client.run_completed;
      Alcotest.(check int)
        (Printf.sprintf "%d clients: thunk events" clients)
        0
        (Detmt.Engine.thunks_executed engine))
    [ 8; 32 ]

(* Re-pointing a grid at a serial scheduler puts its pool rows at width 1
   (a serial module rejects a wider pool); a parallel one keeps them. *)
let test_restrict_scheduler_width () =
  let widths scheduler =
    List.map
      (fun (c : E.config) -> c.workers)
      (E.restrict ~scheduler (spec "engine").E.grid)
  in
  Alcotest.(check bool) "serial: width 1 everywhere" true
    (List.for_all (( = ) 1) (widths "mat"));
  Alcotest.(check bool) "parallel: pool rows keep width 4" true
    (List.mem 4 (widths "cgs"))

let test_claim_e14 () =
  let rows =
    rows "shard" ~clients:64 ~keep:(fun c ->
        wname "sharded(cross=0)" c
        && (c.system = Static 1 || c.system = Static 2))
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  check_claims "shard" rows ~expect:[ "2 shards out-throughput 1 at 0% cross" ]

let test_claim_e16 () =
  check_claims "elastic"
    (rows "elastic" ~clients:64)
    ~expect:
      [ "autoscaler reconfigures and beats every static count on p95 at 64 \
         clients" ]

let test_claim_violation () =
  let rows = rows "fig1" ~clients:64 ~keep:(wname "figure1-low-conflict") in
  let doctored =
    List.map
      (fun (r : E.row) ->
        if r.config.scheduler = "cgs" && r.config.workers = 4 then
          { r with outcome = { r.outcome with mean_ms = 1e9 } }
        else r)
      rows
  in
  Alcotest.(check (option bool)) "doctored E19 row fails its claim"
    (Some false)
    (List.assoc_opt "E19: cgs at 4 workers beats pMAT"
       ((spec "fig1").E.claims doctored))

let test_emitter () =
  let s = spec "fig2" in
  let rows = rows "fig2" ~keep:(fun c -> c.clients = 2) in
  (match E.tables s rows with
  | [ t ] ->
    Alcotest.(check (list string)) "varying config, then outcome"
      [ "scheduler"; "replies"; "mean_ms"; "p95_ms"; "req/s"; "consistent" ]
      (Detmt.Table.columns t)
  | ts -> Alcotest.failf "%d tables" (List.length ts));
  let doc = E.json s rows in
  Alcotest.(check (option string)) "schema 5" (Some "5")
    (Option.map Detmt.Json.to_string (Detmt.Json.member "schema_version" doc));
  match Readers.json (Detmt.Json.to_string doc) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "BENCH JSON does not parse: %s" e

let suite =
  [ ("figure1 shape", `Quick, test_figure1_shape);
    ("figure1b mat beats sat", `Quick, test_figure1b_mat_beats_sat);
    ("figure2 last-lock wins", `Quick, test_figure2_last_lock_wins);
    ("figure3 prediction wins", `Quick, test_figure3_prediction_wins);
    ("figure4 text", `Quick, test_figure4_text);
    ("wan: lsa degrades faster", `Quick, test_wan_lsa_degrades_faster);
    ("failover: lsa pays, mat does not", `Quick, test_failover_lsa_pays);
    ("prodcons consistent", `Quick, test_prodcons_all_consistent);
    ("determinism matrix", `Quick, test_determinism_matrix);
    ("run_workload fields", `Quick, test_run_workload_fields);
    ("saturation smoke", `Quick, test_saturation_smoke);
    ("runner: rows pinned across drives", `Quick, test_rows_pinned);
    ("interference experiment", `Quick, test_interference_experiment);
    ("model experiment shape", `Quick, test_model_experiment_shape);
    ("claims: E19 at 64 clients", `Quick, test_claim_e19);
    ("claims: E20a at 64 clients", `Quick, test_claim_e20a);
    ("claims: E20b at 16 clients", `Quick, test_claim_e20b);
    ("claims: E14 at 64 clients", `Quick, test_claim_e14);
    ("claims: E16 at 64 clients", `Quick, test_claim_e16);
    ("claims: a doctored row fails", `Quick, test_claim_violation);
    ("emitter: table columns and schema", `Quick, test_emitter);
    ("runner: static layouts reproduce the shard runtime", `Quick,
     test_static_reproduces_shard_runtime);
    ("runner: static rows check acquisition order", `Quick,
     test_static_checks_acquisitions);
    ("claims: E18 cgs-family load independence", `Quick, test_claim_e18_load);
    ("restrict: a serial scheduler runs at width 1", `Quick,
     test_restrict_scheduler_width);
    ("runner: one metric schema", `Quick, test_one_schema);
    ("claims: E18 mat words per event", `Quick, test_claim_e18_words);
    ("claims: E18 pmat words per event", `Quick, test_claim_e18_pmat_words);
    ("claims: E18 seq words per event", `Quick, test_claim_e18_seq_words);
    ("claims: E18 raw chain words per event", `Quick, test_claim_e18_raw_chain);
    ("runner: no thunk event on the request path", `Quick,
     test_no_thunks_on_request_path);
    ("claims: E18 cgs words per event", `Quick, test_claim_e18_cgs_words);
    ("claims: E18 cgs+ws words per event", `Quick,
     test_claim_e18_cgs_ws_words);
  ]

let () = Alcotest.run "experiment" [ ("experiment", suite) ]
