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
  crash : Checked_run.crash option;
  reconfig :
    (initial:int -> scheduler:string -> (float * Reconfig.command) list)
    option;
      (* elastic scenarios: timed reconfiguration commands, parameterised by
         the initial group count and the scheduler under test (a hot-swap
         target must differ from the current scheduler to apply) *)
}

let mk ?(faults = fun ~seed:_ -> None) ?crash ?reconfig name descr =
  { name; descr; faults; crash; reconfig }

(* Every crash scenario kills replica 2 of each group and lets it rejoin. *)
let replica2 ~kill_ms ~rejoin_ms =
  { Checked_run.offset = 2; kill_ms; recover_ms = Some rejoin_ms }

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
      ~crash:(replica2 ~kill_ms:60.0 ~rejoin_ms:160.0);
    mk "lossy-crash-recover"
      "10% loss and jitter, replica 2 killed at 60ms, rejoins at 180ms"
      ~faults:(fun ~seed ->
        Some
          { Faults.none with seed = fault_seed ~seed ~salt:5;
            jitter_ms = 0.2; loss_prob = 0.10; rto_ms = 2.0;
            max_retransmits = 4 })
      ~crash:(replica2 ~kill_ms:60.0 ~rejoin_ms:180.0);
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
      ~crash:(replica2 ~kill_ms:30.0 ~rejoin_ms:120.0)
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
  o_run : Checked_run.outcome;
  o_recoveries_wanted : int;
  o_transitions_wanted : int;
  o_losses : int;
  o_duplicates_injected : int;
  o_partition_holds : int;
  o_fingerprint : int64; (* whole-run hash: determinism witness *)
}

(* The shared internal-consistency conditions, then what a fault scenario
   additionally promises: every request answered, every scheduled recovery
   and reconfiguration applied. *)
let violation o =
  let r = o.o_run in
  match Checked_run.violation r with
  | Some _ as v -> v
  | None ->
    if r.o_replies <> r.o_expected then Some "missing replies"
    else if r.o_recoveries <> o.o_recoveries_wanted then
      Some "recovery did not converge"
    else if r.o_transitions <> o.o_transitions_wanted then
      Some "reconfiguration did not apply"
    else None

let ok o = violation o = None

let run ?(seed = 42L) ?(shards = 1) ?(workers = 1) ?(clients = 4)
    ?(requests_per_client = 5) ?(timeout_ms = 60.0)
    ?(obs = Detmt_obs.Recorder.disabled) ~scenario ~scheduler ~cls ~gen () =
  let module Recorder = Detmt_obs.Recorder in
  let base =
    { Active.default_params with
      scheduler; workers; faults = scenario.faults ~seed;
      (* generous detection so a lossy transport is not mistaken for a
         failure while retransmits are still in flight *)
      detection_timeout_ms = 50.0 }
  in
  let commands =
    match scenario.reconfig with
    | Some commands -> commands ~initial:shards ~scheduler
    | None -> []
  in
  let system, r =
    Checked_run.run ~obs ~commands ~crashes:(Option.to_list scenario.crash)
      ~timeout_ms ~engine:(Engine.create ())
      ~params:
        { Reconfig.default_params with Reconfig.initial_groups = shards; base }
      ~cls ~gen ~clients ~requests_per_client ~seed ()
  in
  let faults = List.filter_map Active.faults (Reconfig.groups_ever system) in
  let total count = List.fold_left (fun n f -> n + count f) 0 faults in
  (* Fold the transport's fault counters into the metrics registry so a
     post-mortem sees injected faults next to scheduler behaviour. *)
  if Recorder.enabled obs then begin
    if faults <> [] then
      List.iter
        (fun (name, count) -> Recorder.incr obs ~by:(total count) name)
        [ ("faults.transmissions", Faults.transmissions);
          ("faults.losses", Faults.losses);
          ("faults.duplicates_injected", Faults.duplicates_injected);
          ("faults.partition_holds", Faults.partition_holds) ];
    Recorder.incr obs ~by:r.o_retries "chaos.client_retries"
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
          (report.state_hashes @ report.trace_hashes))
      r.o_reports;
    h := mix !h (Int64.of_int r.o_replies);
    h := mix !h (Int64.bits_of_float r.o_duration_ms);
    !h
  in
  { o_scenario = scenario.name; o_scheduler = scheduler; o_shards = shards;
    o_run = r;
    o_recoveries_wanted =
      (match scenario.crash with
      | Some { recover_ms = Some _; _ } -> shards
      | _ -> 0);
    o_transitions_wanted = List.length commands;
    o_losses = total Faults.losses;
    o_duplicates_injected = total Faults.duplicates_injected;
    o_partition_holds = total Faults.partition_holds;
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
      let r = o.o_run in
      Detmt_stats.Table.add_row t
        [ o.o_scenario; o.o_scheduler;
          Printf.sprintf "%d/%d" r.o_replies r.o_expected;
          string_of_int r.o_retries;
          string_of_int r.o_checkpoints;
          (if o.o_recoveries_wanted = 0 then "-"
           else Printf.sprintf "%d/%d" r.o_recoveries o.o_recoveries_wanted);
          (if o.o_transitions_wanted = 0 then "-"
           else
             Printf.sprintf "%d/%d" r.o_transitions o.o_transitions_wanted);
          Printf.sprintf "%d/%d/%d" o.o_losses o.o_duplicates_injected
            o.o_partition_holds;
          (match (violation o, r.o_divergence) with
          | None, _ -> "ok"
          | Some _, Some d -> Format.asprintf "%a" Consistency.pp_divergence d
          | Some reason, None -> reason) ])
    outcomes;
  t
