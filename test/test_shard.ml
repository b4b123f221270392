(* Tests for static sharded layouts (a {!Reconfig} system with N groups and
   no commands, built through the {!Shard} entry points): the deterministic
   router, the 1-shard ≡ unsharded contract, N-shard seed-reproducibility,
   the cross-shard two-phase path, batching, and the sharded chaos
   harness. *)

open Detmt_sim
open Detmt_replication

let b = Alcotest.bool

let wl cross_ratio =
  { Detmt_workload.Sharded.default with
    Detmt_workload.Sharded.cross_ratio }

let make ?(scheduler = "mat") ?batching ~shards ~cross () =
  let workload = wl cross in
  let engine = Engine.create () in
  let base = { Active.default_params with scheduler; batching } in
  let system =
    Shard.create ~engine
      ~cls:(Detmt_workload.Sharded.cls workload)
      ~params:{ Shard.shards; base } ()
  in
  (engine, system, Detmt_workload.Sharded.gen workload)

let drive ?(clients = 8) ?(requests = 4) ?(seed = 7L) system gen =
  Reconfig.run_clients system ~clients ~requests_per_client:requests ~gen ~seed
    ()

(* ------------------------------ router ------------------------------ *)

let test_route_stable_and_in_range () =
  List.iter
    (fun shards ->
      let hit = Array.make shards false in
      for m = 0 to 999 do
        let s = Reconfig.route ~shards m in
        Alcotest.check b "in range" true (s >= 0 && s < shards);
        Alcotest.(check int) "pure function of id" s (Reconfig.route ~shards m);
        hit.(s) <- true
      done;
      Alcotest.check b
        (Printf.sprintf "all %d shards used over 1000 ids" shards)
        true
        (Array.for_all Fun.id hit))
    [ 1; 2; 4; 8 ]

let test_shard_set_routing () =
  let _, system, _ = make ~shards:4 ~cross:0.5 () in
  (* update locks exactly arg 0's object *)
  let s =
    Reconfig.group_set system ~meth:"update"
      ~args:[| Detmt_lang.Ast.Vmutex 17 |]
  in
  Alcotest.(check (list int)) "update routes to its object's shard"
    [ Reconfig.route ~shards:4 17 ] s;
  (* transfer's closure is both arguments, ascending and deduplicated *)
  let a, bb =
    (* find two objects on different shards *)
    let rec go i =
      if Reconfig.route ~shards:4 0 <> Reconfig.route ~shards:4 i then (0, i)
      else go (i + 1)
    in
    go 1
  in
  let set =
    Reconfig.group_set system ~meth:"transfer"
      ~args:[| Detmt_lang.Ast.Vmutex a; Detmt_lang.Ast.Vmutex bb |]
  in
  Alcotest.(check (list int)) "transfer routes to both shards"
    (List.sort_uniq compare
       [ Reconfig.route ~shards:4 a; Reconfig.route ~shards:4 bb ])
    set;
  (* same object twice: a single shard, once *)
  let set1 =
    Reconfig.group_set system ~meth:"transfer"
      ~args:[| Detmt_lang.Ast.Vmutex a; Detmt_lang.Ast.Vmutex a |]
  in
  Alcotest.(check (list int)) "duplicate objects deduplicate"
    [ Reconfig.route ~shards:4 a ] set1

(* --------------------- 1 shard ≡ unsharded -------------------------- *)

let unsharded_table ~scheduler ~cross ~seed =
  let workload = wl cross in
  let engine = Engine.create () in
  let system =
    Active.create ~engine
      ~cls:(Detmt_workload.Sharded.cls workload)
      ~params:{ Active.default_params with scheduler }
      ()
  in
  Client.run_clients ~engine ~system ~clients:8 ~requests_per_client:4
    ~gen:(Detmt_workload.Sharded.gen workload) ~seed ();
  ( Active.replies_received system,
    Active.reply_times system,
    List.map
      (fun r ->
        ( Detmt_sim.Trace.fingerprint (Detmt_runtime.Replica.trace r),
          Detmt_runtime.Replica.state_fingerprint r ))
      (Active.live_replicas system) )

let sharded_table ~scheduler ~cross ~seed =
  let _, system, gen = make ~scheduler ~shards:1 ~cross () in
  drive ~seed system gen;
  ( Shard.replies_received system,
    Reconfig.reply_times system,
    List.map
      (fun r ->
        ( Detmt_sim.Trace.fingerprint (Detmt_runtime.Replica.trace r),
          Detmt_runtime.Replica.state_fingerprint r ))
      (Active.live_replicas (Shard.groups system).(0)) )

let test_one_shard_equals_unsharded scheduler () =
  List.iter
    (fun cross ->
      Alcotest.check b
        (Printf.sprintf "%s, %.0f%% transfers" scheduler (100.0 *. cross))
        true
        (unsharded_table ~scheduler ~cross ~seed:7L
        = sharded_table ~scheduler ~cross ~seed:7L))
    [ 0.0; 0.3 ]

(* ------------------- N shards: reproducible, correct ----------------- *)

let run_fingerprint ?batching ~shards ~cross ~seed () =
  let _, system, gen = make ?batching ~shards ~cross () in
  drive ~seed system gen;
  ( Shard.fingerprint system,
    Shard.replies_received system,
    Reconfig.reply_times system,
    Shard.cross_shard_requests system,
    Shard.consistent system )

let test_n_shard_reproducible () =
  let a = run_fingerprint ~shards:4 ~cross:0.3 ~seed:11L () in
  let a' = run_fingerprint ~shards:4 ~cross:0.3 ~seed:11L () in
  Alcotest.check b "same seed, bit-identical sharded run" true (a = a');
  let fp, replies, _, cross, consistent = a in
  Alcotest.(check int) "exactly-once replies" (8 * 4) replies;
  Alcotest.check b "some requests crossed shards" true (cross > 0);
  Alcotest.check b "every group internally consistent" true consistent;
  let fp2, _, _, _, _ = run_fingerprint ~shards:4 ~cross:0.3 ~seed:12L () in
  Alcotest.check b "different seed, different run" true (fp <> fp2)

let test_cross_shard_forced () =
  (* A workload of nothing but transfers across distinct objects: with 2
     shards roughly half the closures span both.  All must be answered
     exactly once, and the reply arrives only after every involved group
     executed (response >= the single-shard round trip). *)
  let engine, system, _ = make ~shards:2 ~cross:1.0 () in
  let a, bb =
    let rec go i =
      if Reconfig.route ~shards:2 0 <> Reconfig.route ~shards:2 i then (0, i)
      else go (i + 1)
    in
    go 1
  in
  let gen ~client:_ ~seq:_ _rng =
    ("transfer", [| Detmt_lang.Ast.Vmutex a; Detmt_lang.Ast.Vmutex bb |])
  in
  Reconfig.run_clients system ~clients:4 ~requests_per_client:3 ~gen
    ~seed:5L ();
  ignore engine;
  Alcotest.(check int) "all replies" 12 (Shard.replies_received system);
  Alcotest.(check int) "every request crossed" 12
    (Shard.cross_shard_requests system);
  Alcotest.(check int) "no fast path" 0 (Shard.fast_path_requests system);
  Alcotest.check b "consistent" true (Shard.consistent system)

let test_self_transfer_fast_path () =
  (* Degenerate endpoints (the [objects = 1]-per-shard case): a transfer
     whose two endpoints are the same object has a single-shard lock
     closure — the router must collapse it onto the fast path, never open
     a two-phase cross-shard delivery that would wait forever for a
     second shard that was never involved. *)
  let engine, system, _ = make ~shards:2 ~cross:1.0 () in
  let gen ~client:_ ~seq:_ _rng =
    ("transfer", [| Detmt_lang.Ast.Vmutex 3; Detmt_lang.Ast.Vmutex 3 |])
  in
  Reconfig.run_clients system ~clients:4 ~requests_per_client:3 ~gen
    ~seed:5L ();
  ignore engine;
  Alcotest.(check int) "all replies" 12 (Shard.replies_received system);
  Alcotest.(check int) "no cross-shard deliveries" 0
    (Shard.cross_shard_requests system);
  Alcotest.(check int) "every request on the fast path" 12
    (Shard.fast_path_requests system);
  Alcotest.check b "consistent" true (Shard.consistent system)

(* ----------------------------- batching ----------------------------- *)

let test_batching_deterministic () =
  let batching = { Detmt_gcs.Totem.max_batch = 8; delay_ms = 0.2 } in
  let a = run_fingerprint ~batching ~shards:2 ~cross:0.2 ~seed:3L () in
  let a' = run_fingerprint ~batching ~shards:2 ~cross:0.2 ~seed:3L () in
  Alcotest.check b "batched run reproducible" true (a = a');
  let _, system, gen = make ~batching ~shards:2 ~cross:0.2 () in
  drive ~seed:3L system gen;
  let batches =
    Array.fold_left (fun n g -> n + Active.wire_batches g) 0
      (Shard.groups system)
  in
  let broadcasts = Reconfig.broadcasts system in
  Alcotest.check b "batches coalesce broadcasts" true
    (batches > 0 && batches < broadcasts)

let test_batch_of_one_equals_disabled () =
  let one = { Detmt_gcs.Totem.max_batch = 1; delay_ms = 0.5 } in
  Alcotest.check b "max_batch = 1 is batching off" true
    (run_fingerprint ~batching:one ~shards:2 ~cross:0.2 ~seed:3L ()
    = run_fingerprint ~shards:2 ~cross:0.2 ~seed:3L ())

(* --------------------------- sharded chaos --------------------------- *)

let chaos_run ~shards ~scenario_name ~seed =
  match Chaos.find_scenario scenario_name with
  | None -> Alcotest.fail ("no scenario " ^ scenario_name)
  | Some scenario ->
    let workload = wl 0.3 in
    Chaos.run ~seed ~shards ~scenario ~scheduler:"mat"
      ~cls:(Detmt_workload.Sharded.cls workload)
      ~gen:(Detmt_workload.Sharded.gen workload)
      ()

let test_chaos_sharded_invariants () =
  List.iter
    (fun scenario_name ->
      let o = chaos_run ~shards:2 ~scenario_name ~seed:42L in
      Alcotest.check b (scenario_name ^ " ok under 2 shards") true
        (Chaos.ok o);
      Alcotest.(check int) "outcome records the shard count" 2
        o.Chaos.o_shards)
    [ "baseline"; "lossy"; "crash-recover" ]

let test_chaos_sharded_reproducible () =
  let o = chaos_run ~shards:2 ~scenario_name:"lossy" ~seed:42L in
  let o' = chaos_run ~shards:2 ~scenario_name:"lossy" ~seed:42L in
  Alcotest.check b "same seed, same fingerprint" true
    (o.Chaos.o_fingerprint = o'.Chaos.o_fingerprint);
  Alcotest.check b "losses actually injected" true (o.Chaos.o_losses > 0)

let test_chaos_sharded_recovery_per_group () =
  let o = chaos_run ~shards:2 ~scenario_name:"crash-recover" ~seed:42L in
  Alcotest.(check int) "every group recovers its killed replica" 2
    o.Chaos.o_run.o_recoveries;
  Alcotest.(check int) "wanted scales with shards" 2 o.Chaos.o_recoveries_wanted

(* ------------------------------ params ------------------------------ *)

let test_create_validation () =
  let workload = wl 0.0 in
  let engine = Engine.create () in
  let cls = Detmt_workload.Sharded.cls workload in
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Reconfig.create: initial_groups < 1") (fun () ->
      ignore
        (Shard.create ~engine ~cls
           ~params:{ Shard.shards = 0; base = Active.default_params }
           ()));
  Alcotest.check_raises "replica_base must be 0"
    (Invalid_argument "Reconfig.create: base.replica_base must be 0")
    (fun () ->
      ignore
        (Shard.create ~engine ~cls
           ~params:
             { Shard.shards = 2;
               base = { Active.default_params with replica_base = 3 } }
           ()))

let suite =
  [ ("router stable and in range", `Quick, test_route_stable_and_in_range);
    ("shard_set routing", `Quick, test_shard_set_routing);
    ("1 shard = unsharded (mat)", `Quick,
     test_one_shard_equals_unsharded "mat");
    ("1 shard = unsharded (pmat)", `Quick,
     test_one_shard_equals_unsharded "pmat");
    ("1 shard = unsharded (lsa)", `Quick,
     test_one_shard_equals_unsharded "lsa");
    ("n-shard run reproducible", `Quick, test_n_shard_reproducible);
    ("cross-shard path exactly-once", `Quick, test_cross_shard_forced);
    ("self-transfer takes the fast path", `Quick,
     test_self_transfer_fast_path);
    ("batching deterministic", `Quick, test_batching_deterministic);
    ("batch of one = disabled", `Quick, test_batch_of_one_equals_disabled);
    ("chaos invariants under 2 shards", `Quick,
     test_chaos_sharded_invariants);
    ("chaos sharded reproducible", `Quick, test_chaos_sharded_reproducible);
    ("chaos recovery per group", `Quick,
     test_chaos_sharded_recovery_per_group);
    ("create validation", `Quick, test_create_validation);
  ]

let () = Alcotest.run "shard" [ ("shard", suite) ]
