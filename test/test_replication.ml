(* End-to-end tests of the replication layer: every scheduler processes the
   paper's workloads to completion, replicas agree, and the qualitative
   claims of section 3.5 hold. *)

open Detmt_sim
open Detmt_replication

let b = Alcotest.bool

let figure1_cls = Detmt_workload.Figure1.cls Detmt_workload.Figure1.default

let figure1_gen = Detmt_workload.Figure1.gen Detmt_workload.Figure1.default

let run ?(scheduler = "mat") ?(clients = 4) ?(requests = 5)
    ?(cls = figure1_cls) ?(gen = figure1_gen) ?(params = Active.default_params)
    () =
  let engine = Engine.create () in
  let params = { params with Active.scheduler } in
  let system = Active.create ~engine ~cls ~params () in
  Client.run_clients ~engine ~system ~clients ~requests_per_client:requests
    ~gen ();
  system

let deterministic_schedulers =
  [ "seq"; "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat" ]

(* LSA's leader schedules greedily while followers enforce its decisions:
   the observable state and the per-mutex acquisition order agree, but the
   event interleaving (traces) legitimately differs between leader and
   followers.  All other deterministic schedulers replay bit-identically. *)
let expect_consistent scheduler (r : Consistency.report) =
  if String.equal scheduler "lsa" then
    r.Consistency.states_agree && r.Consistency.acquisitions_agree
  else Consistency.consistent r

let test_completes scheduler () =
  let system = run ~scheduler () in
  Alcotest.(check int)
    "all requests answered" 20
    (Active.replies_received system)

let test_consistent scheduler () =
  let system = run ~scheduler ~clients:6 ~requests:4 () in
  let report = Consistency.check (Active.live_replicas system) in
  if not (expect_consistent scheduler report) then
    Alcotest.failf "replicas diverged under %s: %s" scheduler
      (Format.asprintf "%a" Consistency.pp report)

let test_state_counts scheduler () =
  (* Every request increments "state" once per iteration: final state must
     be clients * requests * iterations on every replica. *)
  let clients = 3 and requests = 4 in
  let system = run ~scheduler ~clients ~requests () in
  let expected =
    clients * requests * Detmt_workload.Figure1.default.iterations
  in
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d state" (Detmt_runtime.Replica.id r))
        expected
        (List.assoc "state" (Detmt_runtime.Replica.state_snapshot r)))
    (Active.replicas system)

let test_freefall_diverges () =
  (* The nondeterministic baseline must be caught by the checker.  Use the
     highly contended tail-compute workload (a single shared mutex) so that
     the randomised wake-ups actually have candidates to scramble. *)
  let wl = Detmt_workload.Tail_compute.default in
  let cls = Detmt_workload.Tail_compute.cls wl in
  let gen = Detmt_workload.Tail_compute.gen wl in
  let system = run ~scheduler:"freefall" ~clients:8 ~requests:6 ~cls ~gen () in
  let report = Consistency.check (Active.live_replicas system) in
  Alcotest.check b "acquisition orders diverge" false
    report.Consistency.acquisitions_agree

let test_identical_runs_identical () =
  (* Bit-level reproducibility of a whole run. *)
  let fp () =
    let system = run ~scheduler:"mat" ~clients:5 ~requests:5 () in
    List.map
      (fun r -> Trace.fingerprint (Detmt_runtime.Replica.trace r))
      (Active.replicas system)
  in
  Alcotest.check b "same seeds, same traces" true (fp () = fp ())

let test_seq_slower_than_mat () =
  let mean scheduler =
    let system = run ~scheduler ~clients:8 ~requests:5 () in
    Detmt_stats.Summary.mean (Active.response_times system)
  in
  let seq = mean "seq" and mat = mean "mat" in
  if not (seq > mat) then
    Alcotest.failf "expected SEQ (%.2fms) slower than MAT (%.2fms)" seq mat

let test_lsa_message_overhead () =
  let broadcasts scheduler =
    let system = run ~scheduler ~clients:6 ~requests:5 () in
    Active.broadcasts system
  in
  let lsa = broadcasts "lsa" and mat = broadcasts "mat" in
  if not (lsa > mat) then
    Alcotest.failf "expected LSA (%d msgs) chattier than MAT (%d msgs)" lsa
      mat

let test_prodcons scheduler () =
  let cls = Detmt_workload.Prodcons.cls Detmt_workload.Prodcons.default in
  let gen = Detmt_workload.Prodcons.gen in
  let system = run ~scheduler ~clients:4 ~requests:5 ~cls ~gen () in
  Alcotest.(check int) "all replies" 20 (Active.replies_received system);
  let report = Consistency.check (Active.live_replicas system) in
  Alcotest.check b "consistent" true (expect_consistent scheduler report);
  List.iter
    (fun r ->
      let snap = Detmt_runtime.Replica.state_snapshot r in
      Alcotest.(check int) "produced" 10 (List.assoc "produced" snap);
      Alcotest.(check int) "consumed" 10 (List.assoc "consumed" snap);
      Alcotest.(check int) "buffer drained" 0 (List.assoc "items" snap))
    (Active.replicas system)

let test_failover_mat () =
  (* Killing a non-essential replica must not stop progress under MAT. *)
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls:figure1_cls
      ~params:{ Active.default_params with scheduler = "mat" } ()
  in
  Failover.kill_and_measure ~system ~replica:2 ~at:50.0;
  Client.run_clients ~engine ~system ~clients:4 ~requests_per_client:5
    ~gen:figure1_gen ~until_ms:30_000.0 ();
  Alcotest.(check int) "all replies despite the failure" 20
    (Active.replies_received system);
  let report = Consistency.check (Active.live_replicas system) in
  Alcotest.check b "survivors consistent" true (Consistency.consistent report)

let test_failover_lsa_leader () =
  (* Killing the LSA leader: survivors take over and stay consistent. *)
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls:figure1_cls
      ~params:{ Active.default_params with scheduler = "lsa" } ()
  in
  Failover.kill_and_measure ~system ~replica:0 ~at:100.0;
  Client.run_clients ~engine ~system ~clients:4 ~requests_per_client:5
    ~gen:figure1_gen ~until_ms:60_000.0 ();
  Alcotest.(check int) "all replies despite leader failure" 20
    (Active.replies_received system);
  let a = Failover.analyze ~kill_at:100.0 (Active.reply_times system) in
  Alcotest.check b "visible take-over gap" true (a.Failover.takeover_ms > 0.0)

let test_passive_replay () =
  let engine = Engine.create () in
  let passive =
    Passive.create ~engine ~cls:figure1_cls ~scheduler:"seq" ()
  in
  let rng = Rng.create 7L in
  for i = 0 to 9 do
    let meth, args = figure1_gen ~client:0 ~seq:i rng in
    Passive.submit passive ~client:0 ~client_req:i ~meth ~args
      ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> ())
  done;
  Engine.run engine;
  let primary = Passive.primary passive in
  let backup = Passive.replay passive () in
  Alcotest.check b "replayed state matches primary" true
    (Detmt_runtime.Replica.state_fingerprint primary
    = Detmt_runtime.Replica.state_fingerprint backup)

let test_passive_checkpoint_replay () =
  let engine = Engine.create () in
  let passive =
    Passive.create ~engine ~cls:figure1_cls ~scheduler:"mat" ()
  in
  let rng = Rng.create 8L in
  let send i =
    let meth, args = figure1_gen ~client:0 ~seq:i rng in
    Passive.submit passive ~client:0 ~client_req:i ~meth ~args
      ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> ())
  in
  for i = 0 to 4 do send i done;
  Engine.run engine;
  let cp = Passive.checkpoint passive in
  for i = 5 to 9 do send i done;
  Engine.run engine;
  let primary = Passive.primary passive in
  let backup = Passive.replay passive ~from:cp () in
  Alcotest.check b "checkpoint + suffix replay matches primary" true
    (Detmt_runtime.Replica.state_fingerprint primary
    = Detmt_runtime.Replica.state_fingerprint backup)

(* [Payload_hash] folds exactly the ints [Hashtbl.hash] gives for the
   tuples the order fingerprint used to build, so the pinned fingerprints
   stand.  Clients include -1 (PDS fillers) and big magnitudes, methods
   run from empty to long (every tail length of the 4-byte blocks), and
   both [dummy] values and nested replies are drawn. *)
let prop_payload_hash_matches =
  let int_gen =
    QCheck.Gen.(
      oneof
        [ int_range (-1) 64; int;
          map (fun x -> x lsl 40) (int_range (-8) 8); return min_int;
          return max_int ])
  in
  let meth_gen =
    QCheck.Gen.(
      oneof
        [ return ""; return "__dummy"; string_size (int_range 0 7);
          string_size (int_range 100 400) ])
  in
  QCheck.Test.make ~count:2000
    ~name:"payload hash: request and nested reply match Hashtbl.hash"
    QCheck.(
      make
        Gen.(
          pair (quad int_gen int_gen meth_gen bool) (pair int_gen int_gen)))
    (fun ((client, client_req, meth, dummy), (tid, call_index)) ->
      Payload_hash.request ~client ~client_req ~meth ~dummy
      = Hashtbl.hash (0, client, client_req, meth, dummy)
      && Payload_hash.nested_reply ~tid ~call_index
         = Hashtbl.hash (1, tid, call_index))

let per_scheduler name f =
  List.map
    (fun s -> (Printf.sprintf "%s (%s)" name s, `Quick, f s))
    deterministic_schedulers

(* A counter behind the object's monitor: one lock, one update, one unlock
   per request. *)
let counter_cls =
  let open Detmt_lang.Builder in
  cls ~cname:"Counter" ~state_fields:[ "st" ] ~mutex_fields:[]
    [ meth "incr" ~params:0 [ sync this [ state_incr "st" 1 ] ] ]

(* [round] repeated, once 17 000 warm-up rounds have grown every table that
   keeps one entry per request (the dedup ledgers, the response
   statistics) past the 27 100 entries the check reaches. *)
let check_round_words what ~words round =
  for _ = 1 to 17_000 do
    round ()
  done;
  No_alloc.check_words what ~words round

(* One request's submit -> reply round through a warmed three-replica MAT
   group allocates 120 words.  54 are what the request carries or a boxed
   number: the broadcast payload (8) and its [Request.t] (8), the Totem
   message, its shared [Some] and the order fingerprint's [Int64]
   (5 + 2 + 3), MAT's admission (2 per replica), the first reply's response
   time and statistics (10), and the clock re-boxed at each of the round's
   six new instants (12).  The other 66 are each replica's thread: its
   record (10) and its cursor (12).  Its slot in the replica's thread
   table adds nothing: a [threads] Hashtbl bucket cost 4 more words per
   replica (132 per round) before.  Neither do the reply waiter, the
   outstanding-call table, the recovery log and the replicas' held-mutex
   counts: their Hashtbl buckets and queue cell cost 19 more words per
   round (151) before they were pooled. *)
let test_active_round_words () =
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls:counter_cls ~params:Active.default_params ()
  in
  let next = ref 0 and replies = ref 0 in
  let on_reply ~client:_ ~client_req:_ ~response_ms:_ = incr replies in
  check_round_words "minor words per submit/reply round" ~words:120 (fun () ->
      Active.submit system ~client:0 ~client_req:!next ~meth:"incr" ~args:[||]
        ~on_reply;
      incr next;
      Engine.run engine);
  Alcotest.(check int) "every request answered once" 27_100 !replies;
  Alcotest.(check int) "the log is trimmed" 0 (Active.logged_messages system);
  Alcotest.(check (list (pair int int))) "no waiter left" []
    (Active.outstanding_requests system)

let suite =
  per_scheduler "workload completes" test_completes
  @ per_scheduler "replicas consistent" test_consistent
  @ per_scheduler "state counts" test_state_counts
  @ [ ("active: a warmed submit/reply round allocates nothing in its tables",
       `Quick, test_active_round_words);
      ("freefall diverges", `Quick, test_freefall_diverges);
      ("identical runs identical", `Quick, test_identical_runs_identical);
      ("seq slower than mat", `Quick, test_seq_slower_than_mat);
      ("lsa chattier than mat", `Quick, test_lsa_message_overhead);
      ("failover: follower death harmless (mat)", `Quick, test_failover_mat);
      ("failover: lsa leader death", `Quick, test_failover_lsa_leader);
      ("passive replay (seq)", `Quick, test_passive_replay);
      ("passive checkpoint replay (mat)", `Quick,
       test_passive_checkpoint_replay);
      QCheck_alcotest.to_alcotest prop_payload_hash_matches;
    ]
  @ List.map
      (fun s ->
        (Printf.sprintf "producer/consumer (%s)" s, `Quick, test_prodcons s))
      [ "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat" ]

let () = Alcotest.run "replication" [ ("replication", suite) ]
