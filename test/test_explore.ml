(* Tests for the schedule-space explorer: the witness format round-trip,
   canonical-run baselines, verdict classification, search (certification on
   a deterministic scheduler, divergence-finding on freefall), ddmin
   shrinking, and replay of every checked-in witness under test/witnesses. *)

open Detmt_explore

let b = Alcotest.bool
let i = Alcotest.int

(* ---------------------------- schedule format ---------------------------- *)

let test_schedule_roundtrip () =
  let s =
    Schedule.make ~seed:7 ~clients:3 ~requests:2
      ~batching:{ Detmt_gcs.Totem.max_batch = 4; delay_ms = 2.5 }
      ~scheduler:"mat" ~workload:"prodcons"
      [ Schedule.Delay { seq = 14; dest = 2; extra_ms = 4.5 };
        Schedule.Reorder { at_index = 9; pick = 1 };
        Schedule.Flush { after_seq = 3 };
        Schedule.Crash { replica = 1; at_ms = 10.0; recover_at_ms = 25.0 } ]
  in
  let s' = Schedule.of_string (Schedule.to_string s) in
  Alcotest.check b "round-trip" true (s = s');
  Alcotest.check i "size" 4 (Schedule.size s')

let test_schedule_parse_errors () =
  let bad header =
    match Schedule.of_string header with
    | exception Failure _ -> true
    | _ -> false
  in
  Alcotest.check b "wrong magic" true (bad "# not a schedule\nscheduler mat\n");
  Alcotest.check b "junk entry" true
    (bad "# detmt explore schedule v1\nscheduler mat\nworkload figure1\nwarp 9\n");
  Alcotest.check b "missing scheduler" true
    (bad "# detmt explore schedule v1\nworkload figure1\n");
  List.iter
    (fun line ->
      Alcotest.check b line true
        (bad
           ("# detmt explore schedule v1\nscheduler mat\nworkload figure1\n"
          ^ line ^ "\n")))
    [ "requests -1"; "clients -2"; "workers 0" ];
  (* The message names what is wrong with the line. *)
  let message line =
    match
      Schedule.of_string
        ("# detmt explore schedule v1\nscheduler mat\nworkload figure1\n"
       ^ line ^ "\n")
    with
    | exception Failure msg -> msg
    | _ -> "parsed"
  in
  let mentions what msg =
    let n = String.length what in
    let rec at i =
      i + n <= String.length msg && (String.sub msg i n = what || at (i + 1))
    in
    at 0
  in
  Alcotest.check b "unknown directive named" true
    (mentions "unknown directive warp" (message "warp 9"));
  Alcotest.check b "bare word: missing argument" true
    (mentions "missing argument" (message "foo"));
  Alcotest.check b "bad number: malformed arguments" true
    (mentions "malformed arguments" (message "seed x"))

let test_schedule_comments_ignored () =
  let s =
    Schedule.of_string
      "# detmt explore schedule v1\n# a comment\nscheduler seq\n\nworkload \
       figure1\ndelay seq=3 dest=1 extra_ms=0.5\n# trailing comment\n"
  in
  Alcotest.check i "one entry" 1 (Schedule.size s);
  Alcotest.check b "defaults kept" true (s.Schedule.seed = 42)

let test_schedule_elastic_roundtrip () =
  let s =
    Schedule.make ~elastic:true ~scheduler:"pds" ~workload:"hotspot"
      [ Schedule.Crash { replica = 1; at_ms = 13.0; recover_at_ms = 40.0 } ]
  in
  let s' = Schedule.of_string (Schedule.to_string s) in
  Alcotest.check b "round-trip" true (s = s');
  Alcotest.check b "elastic survives" true s'.Schedule.elastic;
  (* A pre-elastic witness (no [elastic] header line) parses as static. *)
  let legacy =
    Schedule.of_string
      "# detmt explore schedule v1\nscheduler mat\nworkload figure1\n"
  in
  Alcotest.check b "legacy static" false legacy.Schedule.elastic

(* ----------------------------- canonical runs ----------------------------- *)

let base scheduler =
  Schedule.make ~clients:3 ~requests:3 ~scheduler ~workload:"figure1" []

let test_canonical_baseline () =
  let s = base "seq" in
  let cls, gen = Detmt_workload.Catalog.find s.Schedule.workload in
  let outcome, obs = Explore.run_one ~observe:true ~cls ~gen s in
  Alcotest.check i "all replies" outcome.Explore.o_expected
    outcome.Explore.o_replies;
  Alcotest.check i "no outstanding" 0 outcome.Explore.o_outstanding;
  Alcotest.check b "no divergence" true (outcome.Explore.o_divergence = None);
  Alcotest.check b "states agree" true outcome.Explore.o_states_agree;
  Alcotest.check b "deliveries observed" true (obs.Explore.obs_deliveries <> []);
  Alcotest.check b "journal populated" true
    (Array.length obs.Explore.obs_journal > 0)

let test_classify_tiers () =
  let s = base "seq" in
  let cls, gen = Detmt_workload.Catalog.find s.Schedule.workload in
  let canonical, _ = Explore.run_one ~cls ~gen s in
  Alcotest.check b "self-equivalent" true
    (Explore.classify ~canonical canonical = Explore.Equivalent);
  (* A different total order with consistent internals is Order_shifted, not
     Divergent. *)
  let shifted = { canonical with Explore.o_order_fp = 1L } in
  Alcotest.check b "order shift admissible" true
    (Explore.classify ~canonical shifted = Explore.Order_shifted);
  (* Internal disagreement is Divergent no matter the order. *)
  let diverged = { shifted with Explore.o_acquisitions_agree = false } in
  (match Explore.classify ~canonical diverged with
  | Explore.Divergent _ -> ()
  | v -> Alcotest.failf "expected Divergent, got %s" (Explore.verdict_to_string v));
  (* Same order but different replies: the scheduler dropped or duplicated
     work — Divergent. *)
  let missing =
    { canonical with Explore.o_replies = canonical.Explore.o_replies - 1 }
  in
  match Explore.classify ~canonical missing with
  | Explore.Divergent _ -> ()
  | v -> Alcotest.failf "expected Divergent, got %s" (Explore.verdict_to_string v)

let elastic_base scheduler =
  Schedule.make ~clients:3 ~requests:3 ~elastic:true ~scheduler
    ~workload:"hotspot" []

let test_elastic_canonical_baseline () =
  let s = elastic_base "mat" in
  let cls, gen = Detmt_workload.Catalog.find s.Schedule.workload in
  let outcome, _ = Explore.run_one ~cls ~gen s in
  Alcotest.check i "all replies" outcome.Explore.o_expected
    outcome.Explore.o_replies;
  Alcotest.check i "split and merge applied" 2 outcome.Explore.o_transitions;
  Alcotest.check b "epochs agree" true outcome.Explore.o_epochs_agree;
  Alcotest.check b "states agree" true outcome.Explore.o_states_agree;
  Alcotest.check b "no divergence" true (outcome.Explore.o_divergence = None)

(* -------------------------------- search -------------------------------- *)

let test_explore_certifies_seq () =
  let r = Explore.explore ~budget:30 (base "seq") in
  Alcotest.check b "no divergence" true (r.Explore.divergent = []);
  Alcotest.check b "spent the budget" true (r.Explore.stats.Explore.explored > 1);
  Alcotest.check b "within budget" true (r.Explore.stats.Explore.explored <= 30)

let freefall_base =
  (* the full 4x5 matrix: freefall grants at raw local arrival order, and
     this workload exhibits a divergence within a couple dozen runs *)
  Schedule.make ~scheduler:"freefall" ~workload:"figure1" []

let test_explore_certifies_elastic () =
  let r = Explore.explore ~budget:25 (elastic_base "mat") in
  Alcotest.check b "no divergence" true (r.Explore.divergent = []);
  Alcotest.check b "spent the budget" true
    (r.Explore.stats.Explore.explored > 1)

let test_explore_finds_freefall_divergence () =
  let r = Explore.explore ~budget:40 freefall_base in
  Alcotest.check b "found a divergence" true (r.Explore.divergent <> [])

let test_shrink_freefall_witness () =
  let r = Explore.explore ~budget:40 freefall_base in
  match r.Explore.divergent with
  | [] -> Alcotest.fail "no divergence to shrink"
  | (sched, _) :: _ ->
    let minimal, probes, reproduced = Explore.shrink sched in
    Alcotest.check b "reproduced" true reproduced;
    Alcotest.check b "no larger" true
      (Schedule.size minimal <= Schedule.size sched);
    Alcotest.check b "probed" true (probes >= 1);
    (* the minimal schedule still diverges on a fresh replay *)
    (match Explore.replay minimal with
    | Explore.Divergent _, _, _ -> ()
    | v, _, _ ->
      Alcotest.failf "minimal witness replayed %s" (Explore.verdict_to_string v))

(* --------------------------- checked-in witnesses --------------------------- *)

(* dune runtest runs with cwd _build/default/test (where the dune deps are
   materialized); dune exec from the project root sees the source copy. *)
let witness_path file =
  if Sys.file_exists "witnesses" then Filename.concat "witnesses" file
  else Filename.concat "test/witnesses" file

let replay_witness file =
  let v, _, _ = Explore.replay (Schedule.load (witness_path file)) in
  v

let test_mat_witness_diverges () =
  match replay_witness "mat_promotion_race.sched" with
  | Explore.Divergent _ -> ()
  | v -> Alcotest.failf "MAT witness replayed %s" (Explore.verdict_to_string v)

let test_sat_witness_diverges () =
  match replay_witness "sat_queue_skew.sched" with
  | Explore.Divergent _ -> ()
  | v -> Alcotest.failf "SAT witness replayed %s" (Explore.verdict_to_string v)

let test_pds_regressions_clean () =
  List.iter
    (fun file ->
      match replay_witness file with
      | Explore.Divergent d -> Alcotest.failf "%s diverged: %s" file d
      | _ -> ())
    [ "pds_batch_skew_regression.sched";
      "pds_round_reply_race_regression.sched" ]

let test_elastic_crash_witness_clean () =
  (* crash inside the reconfiguration window, recovery after the merge:
     order may shift (recovery traffic), but no divergence is admissible *)
  match replay_witness "elastic_crash_in_window.sched" with
  | Explore.Divergent d ->
    Alcotest.failf "elastic crash witness diverged: %s" d
  | _ -> ()

(* The workspace witnesses replay [equivalent] and [order-shifted]: either
   is admissible, a divergence is not. *)
let test_ws_witnesses_clean () =
  List.iter
    (fun file ->
      match replay_witness file with
      | Explore.Divergent d -> Alcotest.failf "%s diverged: %s" file d
      | _ -> ())
    [ "ws_commit_barrier_skew.sched"; "ws_safety_net_reorder.sched" ]

(* The crash and the recovery leave every incarnation's broadcast order and
   both transition slots as in the canonical run, so the elastic order
   fingerprint matches and the identical-order tier (reply count, state
   hashes) decides the verdict. *)
let test_elastic_crash_witness_equivalent () =
  match replay_witness "elastic_crash_in_window.sched" with
  | Explore.Equivalent -> ()
  | v ->
    Alcotest.failf "elastic crash witness replayed %s"
      (Explore.verdict_to_string v)

let test_witness_sizes_bounded () =
  (* The ISSUE bounds the promotion-race witness at 25 events; ours are
     1-minimal. *)
  List.iter
    (fun file ->
      let s = Schedule.load (witness_path file) in
      Alcotest.check b (file ^ " minimal") true (Schedule.size s <= 25))
    [ "mat_promotion_race.sched"; "sat_queue_skew.sched";
      "pds_batch_skew_regression.sched";
      "pds_round_reply_race_regression.sched" ]

let () =
  Alcotest.run "explore"
    [ ( "schedule",
        [ Alcotest.test_case "round-trip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "elastic round-trip" `Quick
            test_schedule_elastic_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_schedule_parse_errors;
          Alcotest.test_case "comments ignored" `Quick
            test_schedule_comments_ignored ] );
      ( "runs",
        [ Alcotest.test_case "canonical baseline" `Quick test_canonical_baseline;
          Alcotest.test_case "elastic canonical baseline" `Quick
            test_elastic_canonical_baseline;
          Alcotest.test_case "verdict tiers" `Quick test_classify_tiers ] );
      ( "search",
        [ Alcotest.test_case "certifies seq" `Quick test_explore_certifies_seq;
          Alcotest.test_case "certifies elastic mat" `Quick
            test_explore_certifies_elastic;
          Alcotest.test_case "finds freefall divergence" `Quick
            test_explore_finds_freefall_divergence;
          Alcotest.test_case "shrinks witness" `Quick
            test_shrink_freefall_witness ] );
      ( "witnesses",
        [ Alcotest.test_case "MAT promotion race diverges" `Quick
            test_mat_witness_diverges;
          Alcotest.test_case "SAT queue skew diverges" `Quick
            test_sat_witness_diverges;
          Alcotest.test_case "PDS regressions clean" `Quick
            test_pds_regressions_clean;
          Alcotest.test_case "elastic crash-in-window clean" `Quick
            test_elastic_crash_witness_clean;
          Alcotest.test_case "witnesses bounded" `Quick
            test_witness_sizes_bounded;
          Alcotest.test_case "ws witnesses clean" `Quick
            test_ws_witnesses_clean;
          Alcotest.test_case "elastic crash-in-window equivalent" `Quick
            test_elastic_crash_witness_equivalent ] ) ]
