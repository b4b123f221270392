open Detmt_sim
open Detmt_gcs

(* Chaos harness: sweep fault scenarios x schedulers and assert the
   robustness invariants — every request answered exactly once, replicas
   checkpoint-consistent throughout, no deadlock, recovery converges.
   Everything is seeded, so a failing combination replays exactly. *)

type scenario = {
  name : string;
  descr : string;
  faults : seed:int64 -> Faults.spec option;
  kill : (float * int) option; (* (time_ms, replica) *)
  recover_at : float option;
  reconfig :
    (initial:int -> scheduler:string -> (float * Reconfig.command) list)
    option;
      (* elastic scenarios: timed reconfiguration commands, parameterised by
         the initial group count and the scheduler under test (a hot-swap
         target must differ from the current scheduler to apply) *)
}

let mk ?(faults = fun ~seed:_ -> None) ?kill ?recover_at ?reconfig name descr
    =
  { name; descr; faults; kill; recover_at; reconfig }

(* Faults are seeded from the sweep seed so two sweeps with the same seed
   see the same network weather, and different scenarios draw from
   different streams. *)
let fault_seed ~seed ~salt = Int64.logxor seed (Int64.of_int (salt * 0x9E3779B9))

let scenarios =
  [ mk "baseline" "perfect network, no failures";
    mk "jitter" "per-hop latency jitter"
      ~faults:(fun ~seed ->
        Some
          { Faults.none with seed = fault_seed ~seed ~salt:1;
            jitter_ms = 0.4 });
    mk "lossy" "15% loss repaired by retransmits, plus jitter"
      ~faults:(fun ~seed ->
        Some
          { Faults.none with seed = fault_seed ~seed ~salt:2;
            jitter_ms = 0.2; loss_prob = 0.15; rto_ms = 2.0;
            max_retransmits = 4 });
    mk "dup-storm" "half of all packets delivered twice"
      ~faults:(fun ~seed ->
        Some
          { Faults.none with seed = fault_seed ~seed ~salt:3;
            dup_prob = 0.5; dup_extra_ms = 1.5 });
    mk "partition-heal" "replica 2 cut off for 40ms, then healed"
      ~faults:(fun ~seed ->
        Some
          { Faults.none with seed = fault_seed ~seed ~salt:4;
            jitter_ms = 0.1;
            partitions =
              [ { Faults.src = None; dst = Some 2; from_ms = 40.0;
                  until_ms = 80.0 } ] });
    mk "crash-recover" "replica 2 killed at 60ms, rejoins at 160ms"
      ~kill:(60.0, 2) ~recover_at:160.0;
    mk "lossy-crash-recover"
      "10% loss and jitter, replica 2 killed at 60ms, rejoins at 180ms"
      ~faults:(fun ~seed ->
        Some
          { Faults.none with seed = fault_seed ~seed ~salt:5;
            jitter_ms = 0.2; loss_prob = 0.10; rto_ms = 2.0;
            max_retransmits = 4 })
      ~kill:(60.0, 2) ~recover_at:180.0;
    mk "reshard-partition-heal"
      "shard split at 45ms inside a 40-80ms partition of replica 2, merged \
       back at 110ms after the heal"
      ~faults:(fun ~seed ->
        Some
          { Faults.none with seed = fault_seed ~seed ~salt:6;
            jitter_ms = 0.1;
            partitions =
              [ { Faults.src = None; dst = Some 2; from_ms = 40.0;
                  until_ms = 80.0 } ] })
      ~reconfig:(fun ~initial ~scheduler:_ ->
        [ (45.0, Reconfig.Split 0);
          (110.0, Reconfig.Merge { from_g = initial; into = 0 }) ]);
    mk "hotswap-crash"
      "replica 2 killed at 30ms, scheduler hot-swapped at 50ms with the \
       replica still down, rejoin at 120ms into the new incarnation"
      ~kill:(30.0, 2) ~recover_at:120.0
      ~reconfig:(fun ~initial:_ ~scheduler ->
        let target = if scheduler = "pds" then "mat" else "pds" in
        [ (50.0, Reconfig.Hot_swap { group = 0; scheduler = target }) ]);
  ]

let find_scenario name = List.find_opt (fun s -> s.name = name) scenarios

(* The deterministic schedulers under test, straight from the registry.
   Freefall is excluded (it is the nondeterminism baseline and fails the
   divergence invariants by design), as is the adaptive meta-scheduler. *)
let default_schedulers = Detmt_sched.Registry.deterministic_decisions

type outcome = {
  o_scenario : string;
  o_scheduler : string;
  o_shards : int;
  o_expected : int; (* requests submitted *)
  o_replies : int;
  o_duplicate_replies : int;
  o_retries : int;
  o_checkpoints : int; (* cross-replica checkpoint comparisons *)
  o_divergence : Consistency.divergence option;
  o_recoveries : int;
  o_recoveries_wanted : int;
  o_states_agree : bool;
  o_acquisitions_agree : bool;
  o_suppressed_duplicates : int; (* true transport duplicates only *)
  o_watermark_suppressed : int;
      (* replay-covered stale copies after recovery state transfer —
         formerly folded into o_suppressed_duplicates, which made recovery
         flushes read as transport duplication *)
  o_losses : int;
  o_duplicates_injected : int;
  o_partition_holds : int;
  o_transitions : int; (* reconfiguration epochs applied *)
  o_transitions_wanted : int;
  o_epochs_agree : bool;
      (* every replica of every incarnation observed every epoch transition
         at the same total-order slot; vacuously true for static runs *)
  o_duration_ms : float;
  o_fingerprint : int64; (* whole-run hash: determinism witness *)
}

let ok o =
  o.o_replies = o.o_expected
  && o.o_duplicate_replies = 0
  && o.o_divergence = None
  && o.o_recoveries = o.o_recoveries_wanted
  && o.o_states_agree
  && o.o_transitions = o.o_transitions_wanted
  && o.o_epochs_agree
  (* A recovered replica's acquisition fingerprint only covers its second
     incarnation, so the cross-incarnation comparison is meaningful only in
     recovery-free runs. *)
  && (o.o_recoveries_wanted > 0 || o.o_acquisitions_agree)

let run ?(seed = 42L) ?(shards = 1) ?(workers = 1) ?(clients = 4)
    ?(requests_per_client = 5) ?(timeout_ms = 60.0)
    ?(obs = Detmt_obs.Recorder.disabled) ~scenario ~scheduler ~cls ~gen () =
  let module Recorder = Detmt_obs.Recorder in
  let engine = Engine.create () in
  let base =
    { Active.default_params with
      scheduler; workers; faults = scenario.faults ~seed;
      (* generous detection so a lossy transport is not mistaken for a
         failure while retransmits are still in flight *)
      detection_timeout_ms = 50.0 }
  in
  let monitors = ref [] in
  let attach g =
    let monitor = Consistency.create_monitor () in
    Active.set_checkpoint_sink g (fun ~replica ~seq ~hash ~state ->
        Consistency.observe monitor ~replica ~seq ~hash ~state);
    monitors := monitor :: !monitors
  in
  (* Every scenario runs through {!Reconfig} with [shards] initial groups
     (a 1-group system is byte-for-byte the unsharded path); a static
     scenario is the elastic one with no commands.  Monitors attach to
     every incarnation the run ever creates. *)
  let system =
    Reconfig.create ~obs ~engine ~cls
      ~on_group:(fun ~index:_ g -> attach g)
      ~params:
        { Reconfig.default_params with Reconfig.initial_groups = shards; base }
      ()
  in
  let cmds =
    match scenario.reconfig with
    | Some commands -> commands ~initial:shards ~scheduler
    | None -> []
  in
  List.iter (fun (at, cmd) -> Reconfig.request_at system ~at cmd) cmds;
  (* Scenario kills/recoveries name a replica offset; every group loses (and
     recovers) the replica at that offset into its own id window. *)
  Option.iter
    (fun (at, k) ->
      Engine.schedule_at engine ~time:at (fun () ->
          for g = 0 to shards - 1 do
            Reconfig.kill_replica system ~group:g ~offset:k
          done))
    scenario.kill;
  (match (scenario.recover_at, scenario.kill) with
  | Some at, Some (_, k) ->
    for g = 0 to shards - 1 do
      Reconfig.recover_replica system ~group:g ~offset:k ~at
    done
  | Some _, None ->
    invalid_arg "Chaos.run: recover_at without a kill makes no sense"
  | None, _ -> ());
  let stats =
    Reconfig.run_clients_stats system ~clients ~requests_per_client ~gen ~seed
      ~timeout_ms ()
  in
  let groups = Reconfig.groups_ever system in
  let replies = Reconfig.replies_received system in
  let monitors = List.rev !monitors in
  let reports =
    List.map (fun g -> Consistency.check (Active.live_replicas g)) groups
  in
  let sum f = List.fold_left (fun n g -> n + f g) 0 groups in
  let losses, dups, holds =
    List.fold_left
      (fun (l, d, h) g ->
        match Active.faults g with
        | None -> (l, d, h)
        | Some f ->
          ( l + Faults.losses f,
            d + Faults.duplicates_injected f,
            h + Faults.partition_holds f ))
      (0, 0, 0) groups
  in
  (* Fold the transport's fault counters into the metrics registry so a
     post-mortem sees injected faults next to scheduler behaviour. *)
  if Recorder.enabled obs then begin
    List.iter
      (fun g ->
        Option.iter
          (fun f ->
            Recorder.incr obs ~by:(Faults.transmissions f)
              "faults.transmissions";
            Recorder.incr obs ~by:(Faults.losses f) "faults.losses";
            Recorder.incr obs ~by:(Faults.duplicates_injected f)
              "faults.duplicates_injected";
            Recorder.incr obs ~by:(Faults.partition_holds f)
              "faults.partition_holds")
          (Active.faults g))
      groups;
    Recorder.incr obs ~by:stats.Client.run_retries "chaos.client_retries"
  end;
  (* One number that must be bit-identical across two runs with the same
     seed: fold every replica fingerprint and the run shape together. *)
  let fingerprint =
    let mix h x = Int64.mul (Int64.logxor h x) 0x100000001B3L in
    let h = ref 0xCBF29CE484222325L in
    List.iter
      (fun (report : Consistency.report) ->
        List.iter
          (fun (_, x) -> h := mix !h x)
          (report.Consistency.state_hashes @ report.Consistency.trace_hashes))
      reports;
    h := mix !h (Int64.of_int replies);
    h := mix !h (Int64.bits_of_float (Engine.now engine));
    !h
  in
  let first_divergence =
    List.fold_left
      (fun acc m ->
        match acc with Some _ -> acc | None -> Consistency.first_divergence m)
      None monitors
  in
  { o_scenario = scenario.name; o_scheduler = scheduler; o_shards = shards;
    o_expected = clients * requests_per_client;
    o_replies = replies;
    o_duplicate_replies = sum Active.duplicate_client_replies;
    o_retries = stats.Client.run_retries;
    o_checkpoints =
      List.fold_left
        (fun n m -> n + Consistency.checkpoints_compared m)
        0 monitors;
    o_divergence = first_divergence;
    o_recoveries = sum Active.recoveries;
    o_recoveries_wanted =
      (match scenario.recover_at with Some _ -> shards | None -> 0);
    o_states_agree =
      List.for_all (fun (r : Consistency.report) -> r.states_agree) reports;
    o_acquisitions_agree =
      List.for_all
        (fun (r : Consistency.report) -> r.acquisitions_agree)
        reports;
    o_suppressed_duplicates = sum Active.suppressed_duplicates;
    o_watermark_suppressed = sum Active.watermark_suppressed;
    o_losses = losses; o_duplicates_injected = dups;
    o_partition_holds = holds;
    o_transitions = Reconfig.epoch system;
    o_transitions_wanted = List.length cmds;
    o_epochs_agree = Reconfig.epochs_agree system;
    o_duration_ms = Engine.now engine;
    o_fingerprint = fingerprint }

let sweep ?(seed = 42L) ?shards ?workers ?(schedulers = default_schedulers)
    ?(scenario_names = List.map (fun s -> s.name) scenarios) ?clients
    ?requests_per_client ~cls ~gen () =
  List.concat_map
    (fun name ->
      match find_scenario name with
      | None -> invalid_arg (Printf.sprintf "Chaos.sweep: no scenario %S" name)
      | Some scenario ->
        List.map
          (fun scheduler ->
            (* a sweep-wide pool width only applies where it is legal *)
            let workers =
              match workers with
              | Some w
                when List.mem scheduler
                       Detmt_sched.Registry.parallel_decisions ->
                Some w
              | _ -> None
            in
            run ~seed ?shards ?workers ?clients ?requests_per_client
              ~scenario ~scheduler ~cls ~gen ())
          schedulers)
    scenario_names

let table outcomes =
  let t =
    Detmt_stats.Table.create
      ~title:
        "Chaos sweep: exactly-once replies, runtime divergence detection, \
         recovery convergence"
      ~columns:
        [ "scenario"; "scheduler"; "replies"; "retries"; "checkpoints";
          "recovered"; "epochs"; "faults (loss/dup/cut)"; "verdict" ]
  in
  List.iter
    (fun o ->
      Detmt_stats.Table.add_row t
        [ o.o_scenario; o.o_scheduler;
          Printf.sprintf "%d/%d" o.o_replies o.o_expected;
          string_of_int o.o_retries;
          string_of_int o.o_checkpoints;
          (if o.o_recoveries_wanted = 0 then "-"
           else Printf.sprintf "%d/%d" o.o_recoveries o.o_recoveries_wanted);
          (if o.o_transitions_wanted = 0 then "-"
           else
             Printf.sprintf "%d/%d" o.o_transitions o.o_transitions_wanted);
          Printf.sprintf "%d/%d/%d" o.o_losses o.o_duplicates_injected
            o.o_partition_holds;
          (if ok o then "ok"
           else
             match o.o_divergence with
             | Some d -> Format.asprintf "%a" Consistency.pp_divergence d
             | None ->
               if o.o_replies <> o.o_expected then "missing replies"
               else if o.o_duplicate_replies > 0 then "duplicate replies"
               else if not o.o_states_agree then "final states diverge"
               else if o.o_recoveries <> o.o_recoveries_wanted then
                 "recovery did not converge"
               else if o.o_transitions <> o.o_transitions_wanted then
                 "reconfiguration did not apply"
               else if not o.o_epochs_agree then
                 "epoch transitions diverge"
               else "acquisition orders diverge") ])
    outcomes;
  t
