open Detmt_sim

(* One checked run through the multi-group runtime: the chaos harness and
   the schedule explorer differ only in what they inject, so they share the
   system, the monitors, the client drive and the outcome. *)

type crash = { offset : int; kill_ms : float; recover_ms : float option }

type outcome = {
  o_expected : int;
  o_replies : int;
  o_outstanding : int;
  o_retries : int;
  o_duplicate_replies : int;
  o_checkpoints : int;
  o_divergence : Consistency.divergence option;
  o_reports : Consistency.report list;
  o_recoveries : int;
  o_transitions : int;
  o_epochs_agree : bool;
  o_order_fp : int64;
  o_events : int;
  o_duration_ms : float;
}

let run ?obs ?(on_group = ignore) ?(commands = []) ?(crashes = []) ?timeout_ms
    ?until_ms ~engine ~(params : Reconfig.params) ~cls ~gen ~clients
    ~requests_per_client ~seed () =
  let replicas = params.base.Active.replicas in
  List.iter
    (fun c ->
      if c.offset < 0 || c.offset >= replicas then
        invalid_arg
          (Printf.sprintf
             "Checked_run.run: crash offset %d outside a group of %d replicas"
             c.offset replicas))
    crashes;
  (* Monitors attach to every incarnation the run ever creates, in
     creation order. *)
  let monitors = ref [] in
  let system =
    Reconfig.create ?obs ~engine ~cls ~params
      ~on_group:(fun ~index:_ g ->
        let monitor = Consistency.create_monitor () in
        Active.set_checkpoint_sink g (fun ~replica ~seq ~hash ~state ->
            Consistency.observe monitor ~replica ~seq ~hash ~state);
        monitors := monitor :: !monitors;
        on_group g)
      ()
  in
  List.iter (fun (at, cmd) -> Reconfig.request_at system ~at cmd) commands;
  let each_group f =
    for group = 0 to params.initial_groups - 1 do
      f group
    done
  in
  List.iter
    (fun { offset; kill_ms; recover_ms } ->
      Engine.schedule_at engine ~time:kill_ms (fun () ->
          each_group (fun group -> Reconfig.kill_replica system ~group ~offset));
      Option.iter
        (fun at ->
          each_group (fun group ->
              Reconfig.recover_replica system ~group ~offset ~at))
        recover_ms)
    crashes;
  let stats =
    Reconfig.run_clients_stats system ~clients ~requests_per_client ~gen ~seed
      ?timeout_ms ?until_ms ()
  in
  let monitors = List.rev !monitors in
  ( system,
    { o_expected = clients * requests_per_client;
      o_replies = Reconfig.replies_received system;
      o_outstanding = stats.Client.run_outstanding;
      o_retries = stats.Client.run_retries;
      o_duplicate_replies = Reconfig.duplicate_client_replies system;
      o_checkpoints =
        List.fold_left
          (fun n m -> n + Consistency.checkpoints_compared m)
          0 monitors;
      o_divergence = List.find_map Consistency.first_divergence monitors;
      o_reports = Reconfig.reports system;
      o_recoveries = Reconfig.recoveries system;
      o_transitions = Reconfig.epoch system;
      o_epochs_agree = Reconfig.epochs_agree system;
      o_order_fp = Reconfig.order_fingerprint system;
      o_events = Engine.events_executed engine;
      o_duration_ms = Engine.now engine } )

let violation o =
  let all f = List.for_all f o.o_reports in
  if o.o_divergence <> None then Some "replica checkpoint streams diverge"
  else if not (all (fun r -> r.Consistency.states_agree)) then
    Some "final replica states diverge"
  else if
    o.o_recoveries = 0 && not (all (fun r -> r.Consistency.acquisitions_agree))
  then Some "per-mutex acquisition orders diverge"
  else if not o.o_epochs_agree then
    Some "epoch transitions diverge across replicas"
  else if o.o_duplicate_replies > 0 then Some "duplicate client replies"
  else None
