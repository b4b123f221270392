(* Property-based tests over randomly generated programs.

   The generator produces well-formed classes by construction: argument 0/1
   carry mutexes, argument 2 carries a boolean decision, state updates only
   happen under a lock, and local variables are assigned before use.  Waits
   are excluded (a random wait has no matching notify and would deadlock —
   the condition-variable protocols are tested deterministically in
   test_replication). *)

open Detmt_lang

(* ----------------------------- properties --------------------------- *)

let prop_wellformed =
  QCheck.Test.make ~count:200 ~name:"generated classes are well-formed"
    Testgen.arbitrary_class
    (fun cls -> Wellformed.errors cls = [])

let prop_predictive_transform_verifies =
  QCheck.Test.make ~count:200
    ~name:"predictive transformation passes the soundness checker"
    Testgen.arbitrary_class
    (fun cls ->
      let instrumented, summary = Detmt_transform.Transform.predictive cls in
      Detmt_transform.Verify.check_class ~summary instrumented = [])

let prop_basic_transform_balanced =
  QCheck.Test.make ~count:200
    ~name:"basic transformation has balanced lock/unlock on every path"
    Testgen.arbitrary_class
    (fun cls ->
      let instrumented = Detmt_transform.Transform.basic cls in
      Detmt_transform.Verify.check_method instrumented ~meth:"m" = [])

(* Drive the interpreter over random request arguments and check the op
   stream discipline: every unlock matches the innermost lock, nothing is
   left locked, and state updates only happen under a lock. *)
let arbitrary_class_and_args =
  QCheck.make
    ~print:(fun (c, _) -> Class_def.show c)
    QCheck.Gen.(pair Testgen.gen_class Testgen.gen_args)

let op_stream cls args =
  let instrumented = Detmt_transform.Transform.basic cls in
  let obj = Detmt_runtime.Object_state.create instrumented in
  let req =
    Detmt_runtime.Request.make ~uid:0 ~client:0 ~client_req:0 ~meth:"m" ~args
      ~sent_at:0.0
  in
  let c =
    Detmt_runtime.Interp.(start (program instrumented) ~obj req)
  in
  let rec collect acc =
    if Detmt_runtime.Interp.next c then
      collect (Detmt_runtime.Interp.Testing.op c :: acc)
    else List.rev acc
  in
  collect []

let prop_interp_lock_discipline =
  QCheck.Test.make ~count:200 ~name:"interpreter op stream is lock-balanced"
    arbitrary_class_and_args
    (fun (cls, args) ->
      let ops = op_stream cls args in
      let ok = ref true in
      let stack = ref [] in
      List.iter
        (fun op ->
          match op with
          | Detmt_runtime.Op.Lock { mutex; _ } -> stack := mutex :: !stack
          | Detmt_runtime.Op.Unlock { mutex; _ } -> (
            match !stack with
            | top :: rest when top = mutex -> stack := rest
            | _ -> ok := false)
          | Detmt_runtime.Op.State_update _ ->
            if !stack = [] then ok := false
          | _ -> ())
        ops;
      !ok && !stack = [])

(* All deterministic decision modules, derived from the registry so new
   variants (psat, ppds, ...) are covered automatically.  The adaptive
   meta-scheduler is driven separately in test_adaptive. *)
let deterministic_schedulers = Detmt_sched.Registry.deterministic_decisions

(* End-to-end property: for random programs and request streams, replicas
   stay consistent under every deterministic scheduler, and — because all
   state updates are commutative increments — every scheduler produces the
   same final object state. *)
let run_cls cls ~scheduler ~seed =
  let engine = Detmt_sim.Engine.create () in
  let params =
    { Detmt_replication.Active.default_params with scheduler; replicas = 3 }
  in
  let system =
    Detmt_replication.Active.create ~engine ~cls ~params ()
  in
  let gen ~client:_ ~seq:_ rng =
    let m () = Ast.Vmutex (Detmt_sim.Rng.int rng 4) in
    ("m", [| m (); m (); Ast.Vbool (Detmt_sim.Rng.bool rng 0.5) |])
  in
  Detmt_replication.Client.run_clients ~engine ~system ~clients:3
    ~requests_per_client:2 ~gen ~seed ();
  let replicas = Detmt_replication.Active.live_replicas system in
  let report = Detmt_replication.Consistency.check replicas in
  let state =
    Detmt_runtime.Replica.state_snapshot (List.hd replicas)
  in
  ( report.Detmt_replication.Consistency.states_agree
    && report.Detmt_replication.Consistency.acquisitions_agree,
    state )

let prop_random_programs_consistent =
  QCheck.Test.make ~count:30
    ~name:"replicas agree for random programs under every scheduler"
    Testgen.arbitrary_class
    (fun cls ->
      let reference = ref None in
      List.for_all
        (fun scheduler ->
          let consistent, state = run_cls cls ~scheduler ~seed:9L in
          let same_state =
            match !reference with
            | None ->
              reference := Some state;
              true
            | Some s -> s = state
          in
          consistent && same_state)
        deterministic_schedulers)

(* Seeded cross-scheduler determinism fuzz: for every deterministic
   scheduler, two runs of the same seeded workload must produce the same
   reply table — reply count, client-side reply times, and per-replica
   final state and trace fingerprint.  This is the refactoring contract of
   the two-module architecture applied to random programs rather than the
   fixed fingerprint matrix. *)
let fuzz_gen ~client:_ ~seq:_ rng =
  let m () = Ast.Vmutex (Detmt_sim.Rng.int rng 4) in
  ("m", [| m (); m (); Ast.Vbool (Detmt_sim.Rng.bool rng 0.5) |])

let reply_table (cls, seed) ~scheduler =
  let engine = Detmt_sim.Engine.create () in
  let params =
    { Detmt_replication.Active.default_params with scheduler; replicas = 3 }
  in
  let system = Detmt_replication.Active.create ~engine ~cls ~params () in
  Detmt_replication.Client.run_clients ~engine ~system ~clients:4
    ~requests_per_client:3 ~gen:fuzz_gen ~seed ();
  ( Detmt_replication.Active.replies_received system,
    Detmt_replication.Active.reply_times system,
    List.map
      (fun r ->
        ( Detmt_runtime.Replica.state_snapshot r,
          Detmt_sim.Trace.fingerprint (Detmt_runtime.Replica.trace r) ))
      (Detmt_replication.Active.live_replicas system) )

let prop_cross_scheduler_fuzz =
  QCheck.Test.make ~count:15
    ~name:"seeded workload fuzz: reply tables reproducible per scheduler"
    Testgen.arbitrary_workload
    (fun workload ->
      List.for_all
        (fun scheduler ->
          reply_table workload ~scheduler = reply_table workload ~scheduler)
        deterministic_schedulers)

(* The sharding refactoring contract, fuzzed: a 1-group {!Reconfig} system
   (the static layout {!Shard} builds) must produce the exact reply table —
   counts, client-side reply times, per-replica states and trace
   fingerprints — of the unsharded {!Active} path, for random programs and
   every deterministic scheduler. *)
let sharded_reply_table (cls, seed) ~scheduler =
  let module R = Detmt_replication.Reconfig in
  let engine = Detmt_sim.Engine.create () in
  let base =
    { Detmt_replication.Active.default_params with scheduler; replicas = 3 }
  in
  let system =
    Detmt_replication.Shard.create ~engine ~cls
      ~params:{ Detmt_replication.Shard.shards = 1; base } ()
  in
  ignore
    (R.run_clients_stats system ~clients:4 ~requests_per_client:3
       ~gen:fuzz_gen ~seed ());
  ( R.replies_received system,
    R.reply_times system,
    List.map
      (fun r ->
        ( Detmt_runtime.Replica.state_snapshot r,
          Detmt_sim.Trace.fingerprint (Detmt_runtime.Replica.trace r) ))
      (Detmt_replication.Active.live_replicas
         (List.hd (R.live_systems system))) )

let prop_one_shard_equals_unsharded =
  QCheck.Test.make ~count:10
    ~name:"1-shard sharded run is bit-identical to unsharded, per scheduler"
    Testgen.arbitrary_workload
    (fun workload ->
      List.for_all
        (fun scheduler ->
          reply_table workload ~scheduler
          = sharded_reply_table workload ~scheduler)
        deterministic_schedulers)

(* The elastic reconfiguration contract, fuzzed: splitting the single group
   mid-run and merging it back must leave the client-visible reply table
   (answered exactly once), the routing table and — when no request crossed
   groups during the split epoch — the aggregate state exactly where a
   static run put them, for random workloads and every deterministic
   scheduler.  Reply *times* legitimately differ: the elastic run stalls
   admission while the barriers drain. *)
let elastic_run (cls, seed) ~scheduler ~commands =
  let engine = Detmt_sim.Engine.create () in
  let base =
    { Detmt_replication.Active.default_params with scheduler; replicas = 3 }
  in
  let system =
    Detmt_replication.Reconfig.create ~engine ~cls
      ~params:{ Detmt_replication.Reconfig.default_params with base }
      ()
  in
  List.iter
    (fun (at, c) -> Detmt_replication.Reconfig.request_at system ~at c)
    commands;
  ignore
    (Detmt_replication.Reconfig.run_clients_stats system ~clients:4
       ~requests_per_client:3 ~gen:fuzz_gen ~seed ());
  system

let split_merge_cycle =
  [ (6.0, Detmt_replication.Reconfig.Split 0);
    (20.0, Detmt_replication.Reconfig.Merge { from_g = 1; into = 0 }) ]

(* Replica determinism per incarnation: states and per-mutex acquisition
   orders must agree.  Trace *interleavings* are deliberately not compared:
   lsa's grant events may interleave differently with thread starts across
   replicas on some programs (a pre-existing property of that scheduler,
   visible on static runs too) without affecting any observable order. *)
let incarnations_agree system =
  List.for_all
    (fun sys ->
      let r =
        Detmt_replication.Consistency.check
          (Detmt_replication.Active.live_replicas sys)
      in
      r.Detmt_replication.Consistency.states_agree
      && r.Detmt_replication.Consistency.acquisitions_agree)
    (Detmt_replication.Reconfig.groups_ever system)

let prop_split_merge_equals_static =
  QCheck.Test.make ~count:8
    ~name:"split-then-merge restores the static run, per scheduler"
    Testgen.arbitrary_workload
    (fun workload ->
      List.for_all
        (fun scheduler ->
          let module R = Detmt_replication.Reconfig in
          let static = elastic_run workload ~scheduler ~commands:[] in
          let elastic =
            elastic_run workload ~scheduler ~commands:split_merge_cycle
          in
          let routes s = List.init 64 (R.route_of s) in
          R.epoch elastic = 2
          && R.replies_received elastic = R.replies_received static
          && R.duplicate_client_replies elastic = 0
          && routes elastic = routes static
          && incarnations_agree elastic && R.epochs_agree elastic
          && (R.cross_group_requests elastic > 0
             || R.aggregate_state elastic = R.aggregate_state static))
        deterministic_schedulers)

(* Seeded elastic determinism: equal seeds must reproduce the whole run bit
   for bit — the replica fingerprints and the transition log (epoch, barrier
   slot, virtual time, command), so every replica of every incarnation saw
   each epoch transition at the same total-order slot both times. *)
let prop_elastic_reproducible =
  QCheck.Test.make ~count:8
    ~name:"elastic run: same seed, bit-identical epochs and fingerprint"
    Testgen.arbitrary_workload
    (fun workload ->
      List.for_all
        (fun scheduler ->
          let module R = Detmt_replication.Reconfig in
          let one () =
            let s = elastic_run workload ~scheduler ~commands:split_merge_cycle in
            (R.fingerprint s, R.transitions s, R.epochs_agree s)
          in
          let fa, ta, ea = one () in
          let fb, tb, eb = one () in
          ea && eb && Int64.equal fa fb && ta = tb)
        deterministic_schedulers)

(* The conflict-graph differential contract: everything a client or a
   cross-replica audit can see — reply count, per-replica final state and
   per-mutex acquisition order — must be independent of the simulated
   worker-pool width once the pool stops binding.  Reply *times* and trace
   fingerprints legitimately move with the pool (more workers start threads
   earlier), so they are deliberately not part of the comparison.  Widths
   are compared at >= the client count: below that the pool can saturate,
   which delays replies, which feeds back into the closed-loop clients'
   submission times and hence the total order itself — a different *input*,
   not a scheduling divergence (each width is still reproducible on its
   own, covered by the cross-scheduler fuzz above). *)
let parallel_observables (cls, seed) ~scheduler ~workers =
  let engine = Detmt_sim.Engine.create () in
  let params =
    { Detmt_replication.Active.default_params with
      scheduler; workers; replicas = 3 }
  in
  let system = Detmt_replication.Active.create ~engine ~cls ~params () in
  Detmt_replication.Client.run_clients ~engine ~system ~clients:4
    ~requests_per_client:3 ~gen:fuzz_gen ~seed ();
  ( Detmt_replication.Active.replies_received system,
    List.map
      (fun r ->
        ( Detmt_runtime.Replica.state_snapshot r,
          Detmt_runtime.Replica.mutex_acquisition_fingerprint r ))
      (Detmt_replication.Active.live_replicas system) )

let prop_cgs_worker_count_independent =
  QCheck.Test.make ~count:10
    ~name:"cgs/pcgs observables invariant across worker counts"
    Testgen.arbitrary_workload
    (fun workload ->
      List.for_all
        (fun scheduler ->
          let at w = parallel_observables workload ~scheduler ~workers:w in
          let reference = at 4 in
          List.for_all (fun w -> at w = reference) [ 8; 16 ])
        Detmt_sched.Registry.parallel_decisions)

(* With a single worker the conflict graph degenerates to slot-order serial
   execution, so cgs must be observationally equal to the seq baseline. *)
let prop_cgs_one_worker_equals_seq =
  QCheck.Test.make ~count:10
    ~name:"cgs at one worker matches seq observables"
    Testgen.arbitrary_workload
    (fun workload ->
      parallel_observables workload ~scheduler:"cgs" ~workers:1
      = parallel_observables workload ~scheduler:"seq" ~workers:1)

(* ------------------- workspace speculation (wss, cgs+ws) ------------- *)

(* wss executes every condvar-free request against a copy-on-write
   workspace but commits — and replies — at slot-order barriers, replaying
   the virtual acquisition log into the real fingerprints.  Given the same
   total order, everything a client or a cross-replica audit can see must
   therefore match the seq baseline at EVERY pool width, including widths
   where the pool binds: commits are slot-ordered regardless of how many
   workers speculate.  Closed-loop clients would not pin the total order —
   wss replies earlier than seq by design, which feeds back into the
   submission times and hence the order itself — so this driver is
   open-loop: every request is broadcast at a fixed virtual time. *)
let open_loop_observables (cls, seed) ~scheduler ~workers =
  let engine = Detmt_sim.Engine.create () in
  let params =
    { Detmt_replication.Active.default_params with
      scheduler; workers; replicas = 3 }
  in
  let system = Detmt_replication.Active.create ~engine ~cls ~params () in
  let replies = ref 0 in
  for client = 0 to 3 do
    let rng = Detmt_sim.Rng.create (Int64.add seed (Int64.of_int client)) in
    for r = 0 to 2 do
      let meth, args = fuzz_gen ~client ~seq:r rng in
      Detmt_sim.Engine.schedule_at engine
        ~time:((float_of_int r *. 4.0) +. (float_of_int client *. 0.5))
        (fun () ->
          Detmt_replication.Active.submit system ~client ~client_req:r ~meth
            ~args
            ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ ->
              incr replies))
    done
  done;
  Detmt_sim.Engine.run engine;
  ( !replies,
    List.map
      (fun r ->
        ( Detmt_runtime.Replica.state_snapshot r,
          Detmt_runtime.Replica.mutex_acquisition_fingerprint r ))
      (Detmt_replication.Active.live_replicas system) )

let prop_wss_equals_seq =
  QCheck.Test.make ~count:10
    ~name:"wss observables match seq at every pool width (open loop)"
    Testgen.arbitrary_workload
    (fun workload ->
      let reference =
        open_loop_observables workload ~scheduler:"seq" ~workers:1
      in
      List.for_all
        (fun w ->
          open_loop_observables workload ~scheduler:"wss" ~workers:w
          = reference)
        [ 1; 2; 4; 8 ])

(* cgs+ws is a pure safety net: when dispatch-time class resolution covers
   every method (all sync params reachable from [this] or a mutex-carrying
   request argument), no request is [Top]-class, no workspace ever opens,
   and the scheduler must be observationally indistinguishable from plain
   cgs — including its ws counters staying at zero.  Random classes are
   made resolvable by rewriting the unresolvable sync params (fields,
   locals, call results) to argument 0. *)
let resolve_param = function
  | (Ast.Sp_this | Ast.Sp_arg _) as p -> p
  | Ast.Sp_local _ | Ast.Sp_field _ | Ast.Sp_global _ | Ast.Sp_call _ ->
    Ast.Sp_arg 0

let rec resolve_stmt = function
  | Ast.Sync (p, b) -> Ast.Sync (resolve_param p, List.map resolve_stmt b)
  | Ast.Lock_acquire p -> Ast.Lock_acquire (resolve_param p)
  | Ast.Lock_release p -> Ast.Lock_release (resolve_param p)
  | Ast.Wait p -> Ast.Wait (resolve_param p)
  | Ast.Notify n -> Ast.Notify { n with param = resolve_param n.param }
  | Ast.If (c, a, b) ->
    Ast.If (c, List.map resolve_stmt a, List.map resolve_stmt b)
  | Ast.Loop l -> Ast.Loop { l with body = List.map resolve_stmt l.body }
  | s -> s

let resolve_class (cls : Class_def.t) =
  { cls with
    Class_def.methods =
      List.map
        (fun (m : Class_def.method_def) ->
          { m with Class_def.body = List.map resolve_stmt m.body })
        cls.Class_def.methods }

let ws_observables (cls, seed) ~scheduler ~workers =
  let engine = Detmt_sim.Engine.create () in
  let params =
    { Detmt_replication.Active.default_params with
      scheduler; workers; replicas = 3 }
  in
  let system = Detmt_replication.Active.create ~engine ~cls ~params () in
  Detmt_replication.Client.run_clients ~engine ~system ~clients:4
    ~requests_per_client:3 ~gen:fuzz_gen ~seed ();
  ( Detmt_replication.Active.replies_received system,
    List.map
      (fun r ->
        ( Detmt_runtime.Replica.state_snapshot r,
          Detmt_runtime.Replica.mutex_acquisition_fingerprint r,
          Detmt_runtime.Replica.ws_commits r,
          Detmt_runtime.Replica.ws_aborts r ))
      (Detmt_replication.Active.live_replicas system) )

let prop_safety_net_transparent =
  QCheck.Test.make ~count:10
    ~name:"cgs+ws is bit-identical to cgs when every class resolves"
    Testgen.arbitrary_workload
    (fun (cls, seed) ->
      let workload = (resolve_class cls, seed) in
      List.for_all
        (fun w ->
          ws_observables workload ~scheduler:"cgs+ws" ~workers:w
          = ws_observables workload ~scheduler:"cgs" ~workers:w)
        [ 1; 4 ])

(* Abort-path determinism.  The injector class syncs through a local the
   dispatch-time resolution cannot see ([Top]-class, so cgs+ws speculates
   it) and read-modify-writes the shared mutex field [f0] inside the
   critical section, so concurrent speculations genuinely invalidate each
   other: the younger reader's commit-time validation finds [f0] moved and
   must abort and re-execute.  The aborts themselves must be deterministic
   — same seed, bit-identical observables AND abort counters — and the
   client-visible outcome must still match the serial baseline. *)
let injector_cls =
  Class_def.make ~cname:"Inject" ~mutex_fields:[ ("f0", 3) ]
    ~state_fields:[ "st" ]
    [ { Class_def.name = "m"; final = true; exported = true; params = 3;
        body =
          [ Ast.Assign ("x", Ast.Marg 0);
            Ast.Sync
              ( Ast.Sp_local "x",
                [ Ast.Assign ("y", Ast.Mfield "f0");
                  Ast.Compute (Ast.Fixed 0.5);
                  Ast.Assign_field ("f0", Ast.Marg 1);
                  Ast.State_update ("st", 1) ] ) ]
      } ]

let test_ws_abort_determinism () =
  Alcotest.(check (list string)) "injector wellformed" []
    (Wellformed.errors injector_cls);
  let totals per_replica =
    List.fold_left (fun (c, a) (_, _, wc, wa) -> (c + wc, a + wa)) (0, 0)
      per_replica
  in
  List.iter
    (fun scheduler ->
      let run () = ws_observables (injector_cls, 5L) ~scheduler ~workers:4 in
      let ((_, per_replica) as a) = run () in
      Alcotest.(check bool)
        (scheduler ^ ": same seed, bit-identical run incl. abort counters")
        true
        (a = run ());
      let commits, aborts = totals per_replica in
      Alcotest.(check bool) (scheduler ^ ": speculation engaged") true (commits > 0);
      Alcotest.(check bool) (scheduler ^ ": injector forced aborts") true
        (aborts > 0))
    [ "wss"; "cgs+ws" ];
  (* wss replays its acquisition log, so the full observable tuple matches
     seq; cgs+ws leaves fingerprints to direct executions (by design), so
     compare the client-facing subset: replies and final states. *)
  let strip (replies, per_replica) =
    (replies, List.map (fun (st, _, _, _) -> st) per_replica)
  in
  let seq = ws_observables (injector_cls, 5L) ~scheduler:"seq" ~workers:1 in
  Alcotest.(check bool) "wss aborts preserve seq observables" true
    (parallel_observables (injector_cls, 5L) ~scheduler:"wss" ~workers:4
    = parallel_observables (injector_cls, 5L) ~scheduler:"seq" ~workers:1);
  Alcotest.(check bool) "cgs+ws aborts preserve seq replies and states" true
    (strip (ws_observables (injector_cls, 5L) ~scheduler:"cgs+ws" ~workers:4)
    = strip seq)

(* The same contract on the three fixed paper workloads (figure1, prodcons
   with its condition variables, sharded transfers), across several seeds —
   the deterministic counterpart of the fuzzed property above. *)
let fixed_observables ~cls ~gen ~scheduler ~workers ~seed =
  let engine = Detmt_sim.Engine.create () in
  let params =
    { Detmt_replication.Active.default_params with scheduler; workers }
  in
  let system = Detmt_replication.Active.create ~engine ~cls ~params () in
  Detmt_replication.Client.run_clients ~engine ~system ~clients:4
    ~requests_per_client:3 ~gen ~seed ();
  ( Detmt_replication.Active.replies_received system,
    List.map
      (fun r ->
        ( Detmt_runtime.Replica.state_snapshot r,
          Detmt_runtime.Replica.mutex_acquisition_fingerprint r ))
      (Detmt_replication.Active.live_replicas system) )

let test_cgs_fixed_workloads () =
  let workloads =
    [ ( "figure1",
        Detmt_workload.Figure1.cls Detmt_workload.Figure1.default,
        Detmt_workload.Figure1.gen Detmt_workload.Figure1.default );
      ( "prodcons",
        Detmt_workload.Prodcons.cls Detmt_workload.Prodcons.default,
        Detmt_workload.Prodcons.gen );
      ( "sharded",
        Detmt_workload.Sharded.cls Detmt_workload.Sharded.default,
        Detmt_workload.Sharded.gen Detmt_workload.Sharded.default ) ]
  in
  List.iter
    (fun (wname, cls, gen) ->
      List.iter
        (fun seed ->
          (* cgs: the paper-facing claim — widths 2/4/8 all agree.  On these
             workloads the conflict graph never admits more runnable
             requests than the narrowest pool holds, so even width 2 is
             unconstrained. *)
          let at scheduler w =
            fixed_observables ~cls ~gen ~scheduler ~workers:w ~seed
          in
          let reference = at "cgs" 2 in
          List.iter
            (fun w ->
              Alcotest.(check bool)
                (Printf.sprintf "cgs %s seed=%Ld workers=%d == workers=2"
                   wname seed w)
                true
                (at "cgs" w = reference))
            [ 4; 8 ];
          (* pcgs releases prediction-exact classes early, so width 2 can
             saturate on figure1; compare only the unconstrained widths. *)
          Alcotest.(check bool)
            (Printf.sprintf "pcgs %s seed=%Ld workers=4 == workers=8" wname
               seed)
            true
            (at "pcgs" 4 = at "pcgs" 8);
          Alcotest.(check bool)
            (Printf.sprintf "cgs@1 == seq on %s seed=%Ld" wname seed)
            true
            (at "cgs" 1 = at "seq" 1))
        [ 7L; 42L ])
    workloads

(* ------- incremental decision modules vs their scan references -------- *)

(* {!Detmt_sched.Pmat} keeps the section 4.3 rule incrementally (a gate and
   per-mutex claim sets), {!Detmt_sched.Mat} keeps its promotion candidates
   in seq-keyed indexes and {!Detmt_sched.Cgs} finds each decision from
   seq-keyed indexes; {!Pmat_reference}, {!Mat_reference} and
   {!Cgs_reference} are the original scans.  Both sides drive replicas
   built directly through [Replica.create ~make_sched] at the same pool
   width, so the harness can log every decision the module issues: thread
   starts with the worker they were placed on, workspace begins, commit
   verdicts, lock grants, re-acquisitions (with their worker) and nested
   resumes.  Three replicas receive the same open-loop request stream,
   replica [i] skewed by [0.3 * i] ms so their interleavings differ; nested
   replies return after the call's duration.  Per replica, the two
   implementations must agree on the decision sequence, the reply table,
   the final state and the per-mutex acquisition fingerprint. *)
let decision_observables ~name policy ~workers ~cls ~gen ~clients ~requests
    ~seed =
  let module Replica = Detmt_runtime.Replica in
  let instrumented, summary = Detmt_transform.Transform.predictive cls in
  let engine = Detmt_sim.Engine.create () in
  let config = Detmt_runtime.Config.default in
  let replica id =
    let decisions = ref [] and replies = ref [] and self = ref None in
    let make_sched (actions : Detmt_runtime.Sched_iface.actions) =
      let placed = Hashtbl.create 16 in
      let worker tid =
        Option.value ~default:(-1) (Hashtbl.find_opt placed tid)
      in
      let log d = decisions := d :: !decisions in
      let logged kind grant tid =
        log (kind, tid, worker tid);
        grant tid
      in
      Detmt_sched.Decision.instantiate policy
        ~needs_prediction:(Detmt_sched.Registry.find_exn name).needs_prediction
        (Detmt_sched.Sched_config.make ~runtime:config ~summary ~workers name)
        { actions with
          pool_dispatch =
            (fun ~worker ~tid ->
              Hashtbl.replace placed tid worker;
              actions.pool_dispatch ~worker ~tid);
          start_thread = logged `Start actions.start_thread;
          ws_begin =
            (fun ~tid ~record_acquisitions ->
              log (`Ws_begin, tid, Bool.to_int record_acquisitions);
              actions.ws_begin ~tid ~record_acquisitions);
          ws_commit =
            (fun ~tid ->
              let ok = actions.ws_commit ~tid in
              log (`Ws_commit, tid, Bool.to_int ok);
              ok);
          (* A release is logged by the gate the replica holds the thread
             at when [proceed] is called. *)
          proceed =
            (fun tid ->
              let kind =
                match Replica.thread_status (Option.get !self) tid with
                | Some (Replica.Reacquire_blocked _) -> `Reacquire
                | Some (Replica.Nested_ready _) -> `Resume
                | _ -> `Lock
              in
              logged kind actions.proceed tid) }
    in
    let callbacks =
      { Replica.send_reply =
          (fun req ->
            replies :=
              (req.Detmt_runtime.Request.uid, Detmt_sim.Engine.now engine)
              :: !replies);
        do_nested =
          (fun ~tid ~call_index ~service:_ ~duration ->
            Detmt_sim.Engine.schedule engine ~delay:duration (fun () ->
                Replica.nested_reply (Option.get !self) ~tid ~call_index));
        broadcast_control = (fun _ -> ());
        inject_dummy = (fun () -> ());
        is_leader = (fun () -> id = 0) }
    in
    let r =
      Replica.create ~engine ~id ~cls:instrumented ~config ~callbacks
        ~make_sched ()
    in
    self := Some r;
    (r, decisions, replies)
  in
  let replicas = List.init 3 replica in
  let stream =
    List.concat_map
      (fun client ->
        let rng =
          Detmt_sim.Rng.create (Int64.add seed (Int64.of_int client))
        in
        List.init requests (fun r ->
            let meth, args = gen ~client ~seq:r rng in
            let at = (float_of_int r *. 4.0) +. (float_of_int client *. 0.5) in
            (at, client, r, meth, args)))
      (List.init clients Fun.id)
  in
  (* Uids are total-order slots, so they number the stream in delivery
     order; the stable sort keeps generation order among equal times,
     which is the order the engine runs same-instant deliveries in. *)
  List.iteri
    (fun uid (at, client, r, meth, args) ->
      let req =
        Detmt_runtime.Request.make ~uid ~client ~client_req:r ~meth ~args
          ~sent_at:at
      in
      List.iteri
        (fun i (replica, _, _) ->
          Detmt_sim.Engine.schedule_at engine
            ~time:(at +. (0.3 *. float_of_int i))
            (fun () -> Replica.deliver_request replica req))
        replicas)
    (List.stable_sort
       (fun (a, _, _, _, _) (b, _, _, _, _) -> Float.compare a b)
       stream);
  Detmt_sim.Engine.run engine;
  List.map
    (fun (r, decisions, replies) ->
      ( List.rev !decisions,
        List.rev !replies,
        Replica.state_snapshot r,
        Replica.mutex_acquisition_fingerprint r ))
    replicas

(* Variants are (registry name, indexed policy, reference policy); the
   serial policies run at pool width 1. *)
let serial_pair (name, indexed, reference) =
  ( name,
    Detmt_sched.Decision.Serial indexed,
    Detmt_sched.Decision.Serial reference )

let parallel_pair (name, indexed, reference) =
  ( name,
    Detmt_sched.Decision.Parallel indexed,
    Detmt_sched.Decision.Parallel reference )

let agrees ~variants ~workers ~cls ~gen ~clients ~requests ~seed =
  List.for_all
    (fun (name, indexed, reference) ->
      let run policy =
        decision_observables ~name policy ~workers ~cls ~gen ~clients
          ~requests ~seed
      in
      run indexed = run reference)
    variants

let is_grant (kind, _, _) = kind = `Lock || kind = `Reacquire || kind = `Resume

(* As [agrees], one check per variant, once the reference has answered every
   request on every replica with at least [min_grants] grants (lock,
   re-acquisition or nested resume) each. *)
let check_agrees ?(min_grants = 0) ~variants ~workers ~wname ~cls ~gen
    ~clients ~requests ~seed () =
  List.iter
    (fun (name, indexed, reference) ->
      let run policy =
        decision_observables ~name policy ~workers ~cls ~gen ~clients
          ~requests ~seed
      in
      let expected = run reference in
      List.iter
        (fun (decisions, replies, _, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s@%d %s seed=%Ld: every request granted and \
                             answered"
               name workers wname seed)
            true
            (List.length (List.filter is_grant decisions) >= min_grants
            && List.length replies = clients * requests))
        expected;
      Alcotest.(check bool)
        (Printf.sprintf "%s@%d == reference on %s seed=%Ld" name workers
           wname seed)
        true
        (run indexed = expected))
    variants

let pmat_variants =
  [ serial_pair ("pmat", Detmt_sched.Pmat.policy, Pmat_reference.policy) ]

let prop_pmat_matches_reference =
  QCheck.Test.make ~count:40
    ~name:"pmat incremental grants match the scan reference"
    Testgen.arbitrary_workload
    (fun (cls, seed) ->
      agrees ~variants:pmat_variants ~workers:1 ~cls ~gen:fuzz_gen ~clients:4
        ~requests:3 ~seed)

(* Lock coupling (java.util.concurrent explicit locks): a request takes k+1
   while holding k, so claim sets see overlapping futures. *)
let hand_over_hand_cls =
  let open Builder in
  Builder.cls ~cname:"HandOverHand" ~state_fields:[ "st" ]
    [ meth "traverse" ~params:2
        [ lock_acquire (arg 0);
          compute 1.0;
          lock_acquire (arg 1);
          lock_release (arg 0);
          compute 1.0;
          state_incr "st" 1;
          lock_release (arg 1);
          compute 0.5 ] ]

(* Always couples (k, k+1), so the lock order is acyclic: no deadlock. *)
let hand_over_hand_gen ~client ~seq _rng =
  let k = (client + seq) mod 4 in
  ("traverse", [| Ast.Vmutex k; Ast.Vmutex (k + 1) |])

(* The queue-membership edges of the claim sets:
   - a waiter still claims [arg 0] when it leaves the queue on [wait] and
     re-enters at the tail with a fresh seq, then sits in a nested call
     before taking [arg 0]; a notifier needs the same mutex before it can
     notify, so a claim left behind by the waiter deadlocks it;
   - a "late" thread is unpredicted from admission (its field lock is
     spontaneous) and computes before its first bookkeeping event, so it
     must gate everything behind it from the moment it is admitted. *)
let pmat_edges_cls =
  let open Builder in
  Builder.cls ~cname:"PmatEdges" ~state_fields:[ "go"; "st" ]
    ~mutex_fields:[ ("f", 7) ]
    [ meth "waiter" ~params:1
        [ sync this [ wait_until this ~field:"go" ~min:1 ];
          nested ~service:0 6.0;
          sync (arg 0) [ state_incr "st" 1 ] ];
      meth "notifier" ~params:1
        [ compute 2.0;
          sync (arg 0) [ state_incr "st" 1 ];
          sync this [ state_incr "go" 1; notify_all this ] ];
      meth "late" ~params:1
        [ compute 3.0; sync (field "f") [ state_incr "st" 1 ] ];
      meth "early" ~params:1 [ sync (arg 0) [ state_incr "st" 1 ] ] ]

let pmat_edges_gen ~client ~seq _rng =
  ( List.nth [ "waiter"; "notifier"; "late"; "early" ] ((client + seq) mod 4),
    [| Ast.Vmutex (client mod 3) |] )

let pmat_edges_workload = ("pmat-edges", pmat_edges_cls, pmat_edges_gen)

let figure1_workload =
  ( "figure1",
    Detmt_workload.Figure1.cls Detmt_workload.Figure1.default,
    Detmt_workload.Figure1.gen Detmt_workload.Figure1.default )

let prodcons_workload =
  ( "prodcons",
    Detmt_workload.Prodcons.cls Detmt_workload.Prodcons.default,
    Detmt_workload.Prodcons.gen )

let test_pmat_fixed_workloads () =
  List.iter
    (fun (wname, cls, gen) ->
      List.iter
        (fun seed ->
          check_agrees ~min_grants:24 ~variants:pmat_variants ~workers:1
            ~wname ~cls ~gen ~clients:8 ~requests:3 ~seed ())
        [ 1L; 7L; 42L ])
    [ figure1_workload;
      prodcons_workload;
      ("hand-over-hand", hand_over_hand_cls, hand_over_hand_gen);
      pmat_edges_workload ]

(* MAT and MAT+LL against the scan reference.  The property fuzzes random
   classes; the fixed workloads cover nested calls (figure1), condition
   variables (prodcons: ex-primaries resumed from [wait]) and the
   wait/nested/late-announcement edges; the 256-client case keeps hundreds
   of threads live at once, so the promotion order is exercised over long
   candidate lists rather than the handful the golden rows reach. *)
let mat_variants =
  List.map serial_pair
    [ ("mat", Detmt_sched.Mat.policy, Mat_reference.policy);
      ("mat-ll", Detmt_sched.Mat.policy, Mat_reference.policy) ]

let prop_mat_matches_reference =
  QCheck.Test.make ~count:30
    ~name:"mat/mat-ll indexed promotion matches the scan reference"
    Testgen.arbitrary_workload
    (fun (cls, seed) ->
      agrees ~variants:mat_variants ~workers:1 ~cls ~gen:fuzz_gen ~clients:4
        ~requests:3 ~seed)

let test_mat_fixed_workloads () =
  List.iter
    (fun (wname, cls, gen) ->
      List.iter
        (fun seed ->
          check_agrees ~min_grants:1 ~variants:mat_variants ~workers:1
            ~wname ~cls ~gen ~clients:8 ~requests:3 ~seed ())
        [ 1L; 7L; 42L ])
    [ figure1_workload; prodcons_workload; pmat_edges_workload ]

let test_mat_many_clients () =
  let wname, cls, gen = figure1_workload in
  check_agrees ~min_grants:1 ~variants:mat_variants ~workers:1 ~wname ~cls
    ~gen ~clients:256 ~requests:2 ~seed:42L ()

(* The cgs family against the scan reference.  The indexed module must
   stop at the node the slot-ordered walk stops at, so the decision logs
   (worker placements and commit verdicts included) agree at every pool
   width.  The property fuzzes random classes; the fixed workloads add
   nested calls (figure1), condition variables (prodcons, pmat-edges: the
   condvar hole and [Top] waiters behind parked elders), lock coupling,
   resolvable and opaque sharded transfers (sharded-opaque speculates its
   [Top] requests under cgs+ws), tail compute (pcgs early release) and the
   abort injector, whose speculations invalidate each other, so aborted
   nodes re-enter the waiting set with their original, older slot. *)
let cgs_variants =
  List.map parallel_pair
    [ ("cgs", Detmt_sched.Cgs.cgs, Cgs_reference.cgs);
      ("pcgs", Detmt_sched.Cgs.pcgs, Cgs_reference.pcgs);
      ("wss", Detmt_sched.Cgs.wss, Cgs_reference.wss);
      ("cgs+ws", Detmt_sched.Cgs.safety_net, Cgs_reference.safety_net) ]

let prop_cgs_matches_reference =
  QCheck.Test.make ~count:30
    ~name:"cgs family indexed decisions match the scan reference"
    Testgen.arbitrary_workload
    (fun (cls, seed) ->
      List.for_all
        (fun workers ->
          agrees ~variants:cgs_variants ~workers ~cls ~gen:fuzz_gen ~clients:4
            ~requests:3 ~seed)
        [ 1; 2; 4 ])

let experiment_workload name =
  let w = Detmt.Experiment.workload name in
  (name, w.Detmt.Experiment.cls, w.gen)

let test_cgs_reference_fixed_workloads () =
  List.iter
    (fun (wname, cls, gen) ->
      List.iter
        (fun seed ->
          List.iter
            (fun workers ->
              check_agrees ~variants:cgs_variants ~workers ~wname ~cls ~gen
                ~clients:8 ~requests:3 ~seed ())
            [ 1; 2; 4; 8 ])
        [ 1L; 7L; 42L ])
    [ figure1_workload;
      prodcons_workload;
      pmat_edges_workload;
      ("hand-over-hand", hand_over_hand_cls, hand_over_hand_gen);
      experiment_workload "sharded";
      experiment_workload "sharded-opaque";
      experiment_workload "tail";
      ("ws-injector", injector_cls, fuzz_gen) ]

(* Hundreds of live requests queue behind per-mutex heads here, so the
   pend-free index is exercised over long waiting sets.  Plain cgs only:
   the reference walk makes this the slowest case in the suite. *)
let test_cgs_reference_many_clients () =
  let wname, cls, gen = figure1_workload in
  check_agrees
    ~variants:[ List.hd cgs_variants ]
    ~workers:4 ~wname ~cls ~gen ~clients:256 ~requests:2 ~seed:42L ()

(* Retaining the trace's event list is bit-invisible: the same run with
   [trace_events] on and off gives, per replica, the same trace fingerprint
   and length, state and acquisition fingerprint, and the same order
   fingerprint and client reply table.  With the default config no replica
   keeps an event. *)
let test_trace_events_invisible () =
  let module Active = Detmt_replication.Active in
  let module Replica = Detmt_runtime.Replica in
  let run ~wname ~cls ~gen ~scheduler ~workers trace_events =
    let engine = Detmt_sim.Engine.create () in
    let params =
      { Active.default_params with
        scheduler; workers;
        config = { Detmt_runtime.Config.default with trace_events } }
    in
    let system = Active.create ~engine ~cls ~params () in
    Detmt_replication.Client.run_clients ~engine ~system ~clients:8
      ~requests_per_client:4 ~gen ~seed:42L ();
    Alcotest.(check int)
      (Printf.sprintf "%s/%s: every request answered" scheduler wname)
      32
      (Active.replies_received system);
    if not trace_events then
      List.iter
        (fun r ->
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: replica %d keeps no events" scheduler
               wname (Replica.id r))
            0
            (List.length (Detmt_sim.Trace.events (Replica.trace r))))
        (Active.replicas system);
    ( Active.order_fingerprint system,
      Active.reply_times system,
      List.map
        (fun r ->
          let tr = Replica.trace r in
          ( Detmt_sim.Trace.fingerprint tr,
            Detmt_sim.Trace.length tr,
            Replica.state_snapshot r,
            Replica.mutex_acquisition_fingerprint r ))
        (Active.replicas system) )
  in
  List.iter
    (fun (wname, cls, gen) ->
      List.iter
        (fun (scheduler, workers) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: events kept or not, same run" scheduler
               wname)
            true
            (run ~wname ~cls ~gen ~scheduler ~workers true
            = run ~wname ~cls ~gen ~scheduler ~workers false))
        [ ("mat", 1); ("pmat", 1); ("cgs+ws", 4); ("lsa", 1) ])
    [ figure1_workload; prodcons_workload ];
  Alcotest.(check bool) "events are opt-in" false
    Detmt_runtime.Config.default.trace_events

let prop_runs_reproducible =
  QCheck.Test.make ~count:20 ~name:"same seed, bit-identical run"
    Testgen.arbitrary_class
    (fun cls ->
      let fp () =
        let engine = Detmt_sim.Engine.create () in
        let system =
          Detmt_replication.Active.create ~engine ~cls
            ~params:
              { Detmt_replication.Active.default_params with
                scheduler = "pmat" }
            ()
        in
        let gen ~client:_ ~seq:_ rng =
          ("m",
           [| Ast.Vmutex (Detmt_sim.Rng.int rng 4);
              Ast.Vmutex (Detmt_sim.Rng.int rng 4);
              Ast.Vbool (Detmt_sim.Rng.bool rng 0.5) |])
        in
        Detmt_replication.Client.run_clients ~engine ~system ~clients:2
          ~requests_per_client:2 ~gen ~seed:3L ();
        List.map
          (fun r ->
            Detmt_sim.Trace.fingerprint (Detmt_runtime.Replica.trace r))
          (Detmt_replication.Active.replicas system)
      in
      fp () = fp ())

(* ------------- compiled cursor vs the CPS interpreter oracle ------------- *)

(* The op stream a request yields, and the error it ends in, if any.
   Between steps both sides see the same object-state changes: a state
   update is applied as the replica would apply it, and every wait is
   answered by one unit on every state field, so guarded waits re-check
   and eventually pass.  [max_ops] bounds a request that never does. *)
type interp_run = { ops : Detmt_runtime.Op.t list; error : string option }

let max_ops = 2_000

let settle obj (cls : Class_def.t) op =
  let bump f d =
    try Detmt_runtime.Object_state.update_state obj f d
    with Invalid_argument _ -> ()
  in
  match op with
  | Detmt_runtime.Op.State_update { field; delta } -> bump field delta
  | Detmt_runtime.Op.Wait _ -> List.iter (fun f -> bump f 1) cls.state_fields
  | _ -> ()

let interp_outcome ops run =
  match run () with
  | () -> { ops = List.rev !ops; error = None }
  | exception Detmt_runtime.Interp.Runtime_error m ->
    { ops = List.rev !ops; error = Some ("runtime error: " ^ m) }
  | exception Interp_reference.Runtime_error m ->
    { ops = List.rev !ops; error = Some ("runtime error: " ^ m) }
  | exception Invalid_argument m ->
    { ops = List.rev !ops; error = Some ("invalid argument: " ^ m) }

let reference_run cls req =
  let obj = Detmt_runtime.Object_state.create cls in
  let ops = ref [] in
  let rec go n k =
    if n < max_ops then
      match k () with
      | Interp_reference.Done -> ()
      | Interp_reference.Yield (op, k) ->
        ops := op :: !ops;
        settle obj cls op;
        go (n + 1) k
  in
  interp_outcome ops (fun () ->
      go 0 (fun () -> Interp_reference.start ~cls ~obj ~req ()))

let compiled_run prog cls req =
  let obj = Detmt_runtime.Object_state.create cls in
  let ops = ref [] in
  interp_outcome ops (fun () ->
      let c = Detmt_runtime.Interp.start prog ~obj req in
      let rec go n =
        if n < max_ops && Detmt_runtime.Interp.next c then begin
          let op = Detmt_runtime.Interp.Testing.op c in
          ops := op :: !ops;
          settle obj cls op;
          go (n + 1)
        end
      in
      go 0)

(* Every request of [requests] (plus a dummy) on [cls] gives the oracle's
   op stream and error; one program serves all of them, so methods compiled
   by an earlier request are reused.  Returns the first mismatch. *)
let interp_mismatch cls requests =
  let prog = Detmt_runtime.Interp.program cls in
  let reqs =
    Detmt_runtime.Request.dummy ~uid:0 ~sent_at:0.0
    :: List.mapi
         (fun k (meth, args) ->
           Detmt_runtime.Request.make ~uid:(k + 1) ~client:(k mod 3)
             ~client_req:k ~meth ~args ~sent_at:0.0)
         requests
  in
  List.find_map
    (fun req ->
      let want = reference_run cls req and got = compiled_run prog cls req in
      if List.equal Detmt_runtime.Op.equal want.ops got.ops
         && want.error = got.error
      then None
      else
        Some
          (Printf.sprintf "%s%s: oracle %d ops%s, compiled %d ops%s"
             req.Detmt_runtime.Request.meth
             (if req.Detmt_runtime.Request.dummy then " (dummy)" else "")
             (List.length want.ops)
             (Option.fold ~none:"" ~some:(( ^ ) ", ") want.error)
             (List.length got.ops)
             (Option.fold ~none:"" ~some:(( ^ ) ", ") got.error)))
    reqs

(* Any argument vector, ill-typed and out-of-range ones included. *)
let gen_any_args : Ast.value array QCheck.Gen.t =
  let open QCheck.Gen in
  let value =
    oneof
      [ map (fun m -> Ast.Vmutex m) (int_range (-2) 5);
        map (fun n -> Ast.Vint n) (int_range (-2) 5);
        map (fun b -> Ast.Vbool b) bool ]
  in
  map Array.of_list (list_size (int_range 0 4) value)

let prop_interp_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"compiled cursor matches the CPS interpreter on generated classes"
    (QCheck.make
       ~print:(fun (c, _) -> Class_def.show c)
       QCheck.Gen.(
         pair Testgen.gen_class
           (list_size (int_range 1 4)
              (oneof [ Testgen.gen_args; gen_any_args ]))))
    (fun (cls, arg_list) ->
      let requests = List.map (fun args -> ("m", args)) arg_list in
      List.for_all
        (fun variant ->
          match interp_mismatch variant requests with
          | None -> true
          | Some msg -> QCheck.Test.fail_report msg)
        [ cls;
          Detmt_transform.Transform.basic cls;
          fst (Detmt_transform.Transform.predictive cls) ])

let test_interp_catalog_matches_reference () =
  List.iter
    (fun name ->
      let cls, gen = Detmt_workload.Catalog.find name in
      let rng = Detmt_sim.Rng.create 42L in
      let requests =
        List.init 24 (fun k -> gen ~client:(k mod 4) ~seq:(k / 4) rng)
      in
      List.iter
        (fun (variant, cls) ->
          match interp_mismatch cls requests with
          | None -> ()
          | Some msg -> Alcotest.failf "%s (%s): %s" name variant msg)
        [ ("basic", Detmt_transform.Transform.basic cls);
          ("predictive", fst (Detmt_transform.Transform.predictive cls)) ])
    Detmt_workload.Catalog.names

let test_interp_cases_match_reference () =
  List.iter
    (fun { Interp_cases.name; cls; requests } ->
      match interp_mismatch cls requests with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" name msg)
    Interp_cases.cases

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_wellformed;
      prop_predictive_transform_verifies;
      prop_basic_transform_balanced;
      prop_interp_lock_discipline;
      prop_random_programs_consistent;
      prop_cross_scheduler_fuzz;
      prop_one_shard_equals_unsharded;
      prop_split_merge_equals_static;
      prop_elastic_reproducible;
      prop_cgs_worker_count_independent;
      prop_cgs_one_worker_equals_seq;
      prop_wss_equals_seq;
      prop_safety_net_transparent;
      prop_runs_reproducible;
      prop_pmat_matches_reference;
      prop_mat_matches_reference;
    ]
  @ [ ("cgs fixed-workload differential", `Quick, test_cgs_fixed_workloads);
      ("pmat fixed-workload differential", `Quick, test_pmat_fixed_workloads);
      ("mat fixed-workload differential", `Quick, test_mat_fixed_workloads);
      ("mat differential at 256 clients", `Quick, test_mat_many_clients);
      ("workspace abort-path determinism", `Quick,
       test_ws_abort_determinism);
      ("trace event retention is bit-invisible", `Quick,
       test_trace_events_invisible);
      QCheck_alcotest.to_alcotest prop_cgs_matches_reference;
      ("cgs fixed-workload reference differential", `Quick,
       test_cgs_reference_fixed_workloads);
      ("cgs reference differential at 256 clients", `Quick,
       test_cgs_reference_many_clients);
      QCheck_alcotest.to_alcotest prop_interp_matches_reference;
      ("compiled cursor matches the interpreter on every catalog class",
       `Quick, test_interp_catalog_matches_reference);
      ("compiled cursor matches the interpreter on hand-written classes",
       `Quick, test_interp_cases_match_reference) ]

let () = Alcotest.run "properties" [ ("properties", suite) ]
