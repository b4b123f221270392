(* The benchmark's four workloads.  Each one says how to build its system
   (the set-up the benchmark times), how to drive its closed-loop clients
   to completion, and how to read back the outcome the output checks
   judge.  Everything goes through the library's public API. *)

open Detmt

type system =
  | Single of Active.t
  | Sharded of Shard.t
  | Elastic of Reconfig.t

type t = {
  name : string;
  scheduler : string;
  clients : int;
  requests : int;  (** per client *)
  seeds : int;
      (** client seeds per round: a round runs the workload once per seed
          and pools the results, which evens out how much one seed's
          inputs differ from another's *)
  pinned : int64;  (** round fingerprint at {!default_seed} and this size *)
  build : unit -> Class_def.t * Client.request_gen;
  create :
    obs:Recorder.t ->
    on_group:(unit -> unit) ->
    engine:Engine.t ->
    Class_def.t ->
    system;
      (** [on_group] fires whenever the system creates a group after
          [create] has returned (elastic splits), so an engine probe the
          new group's constructor replaced can be put back. *)
}

let default_seed = 42

let figure1 ~name ~scheduler ~clients ~requests ~seeds ~pinned =
  { name; scheduler; clients; requests; seeds; pinned;
    build =
      (fun () ->
        let p = Figure1.default in
        (Figure1.cls p, Figure1.gen p));
    create =
      (fun ~obs ~on_group:_ ~engine cls ->
        Single
          (Active.create ~obs ~engine ~cls
             ~params:{ Active.default_params with Active.scheduler }
             ())) }

let shard_opaque ~clients ~requests ~seeds ~pinned =
  let scheduler = "cgs+ws" in
  { name = "shard-opaque"; scheduler; clients; requests; seeds; pinned;
    build =
      (fun () ->
        let p = { Sharded.default with Sharded.opaque_ratio = 0.25 } in
        (Sharded.cls p, Sharded.gen p));
    create =
      (fun ~obs ~on_group:_ ~engine cls ->
        let base =
          { Active.default_params with Active.scheduler; workers = 4 }
        in
        Sharded
          (Shard.create ~obs ~engine ~cls
             ~params:{ Shard.shards = 4; base }
             ())) }

let elastic_hotspot ~clients ~requests ~seeds ~pinned =
  let scheduler = "mat" in
  { name = "elastic-hotspot"; scheduler; clients; requests; seeds; pinned;
    build =
      (fun () ->
        let p = Experiment.elastic_bench_workload in
        (Hotspot.cls p, Hotspot.gen p));
    create =
      (fun ~obs ~on_group ~engine cls ->
        let params =
          { Reconfig.default_params with
            Reconfig.initial_groups = 1;
            base = { Active.default_params with Active.scheduler } }
        in
        let r =
          Reconfig.create ~obs
            ~on_group:(fun ~index:_ _ -> on_group ())
            ~engine ~cls ~params ()
        in
        Reconfig.set_autoscale r Experiment.elastic_bench_policy;
        Elastic r) }

let all =
  [ figure1 ~name:"fig1-pmat" ~scheduler:"pmat" ~clients:32 ~requests:4
      ~seeds:8 ~pinned:0x83cf3115534c3daaL;
    figure1 ~name:"fig1-mat" ~scheduler:"mat" ~clients:1024 ~requests:2
      ~seeds:3 ~pinned:0xf481f28a7674832cL;
    shard_opaque ~clients:256 ~requests:2 ~seeds:8
      ~pinned:0x36430780199439ccL;
    elastic_hotspot ~clients:512 ~requests:16 ~seeds:2
      ~pinned:0x2f876a59dd1a232fL ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The client seeds of one round: the first is the benchmark's seed
   itself, the others lie far from any seed a caller would pick next. *)
let seeds w seed = List.init w.seeds (fun i -> seed + (i * 1_000_003))

let needs_prediction w =
  (Registry.find_exn w.scheduler).Registry.needs_prediction

(* ------------------------------------------------------------------ *)
(* Set-up and run                                                      *)

type instance = {
  engine : Engine.t;
  system : system;
  gen : Client.request_gen;
  setup_s : float;  (** class + generator + system construction *)
  create_s : float;  (** the system-construction part of [setup_s] *)
}

(* [on_engine] runs after the timed set-up, and again for every group the
   system creates later. *)
let setup w ~obs ~on_engine =
  let t0 = Unix.gettimeofday () in
  let cls, gen = w.build () in
  let t1 = Unix.gettimeofday () in
  let engine = Engine.create () in
  let system =
    w.create ~obs ~on_group:(fun () -> on_engine engine) ~engine cls
  in
  let t2 = Unix.gettimeofday () in
  on_engine engine;
  { engine; system; gen; setup_s = t2 -. t0; create_s = t2 -. t1 }

let run w inst ~seed =
  let seed = Int64.of_int seed in
  let clients = w.clients and requests_per_client = w.requests in
  let gen = inst.gen in
  ignore
    (match inst.system with
    | Single a ->
      Client.run_clients_stats ~engine:inst.engine ~system:a ~clients
        ~requests_per_client ~gen ~seed ()
    | Sharded s ->
      Shard.run_clients_stats s ~clients ~requests_per_client ~gen ~seed ()
    | Elastic r ->
      Reconfig.run_clients_stats r ~clients ~requests_per_client ~gen ~seed
        ())

(* ------------------------------------------------------------------ *)
(* Outcome and output checks                                           *)

type outcome = {
  expected : int;
  replies : int;
  consistent : bool;
  duplicates : int;
  fingerprint : int64;
  makespan_ms : float;  (** virtual time at which the last event ran *)
  events : int;
  fast_path : int;
  cross_path : int;
  held : int;
  splits : int;
  groups_final : int;
}

let response_times inst =
  match inst.system with
  | Single a -> Active.response_times a
  | Sharded s -> Shard.response_times s
  | Elastic r -> Reconfig.response_times r

let outcome w inst =
  let sys = inst.system in
  let replies, consistent, duplicates, fingerprint =
    match sys with
    | Single a ->
      let r = Consistency.check (Active.live_replicas a) in
      ( Active.replies_received a,
        r.Consistency.states_agree && r.Consistency.acquisitions_agree,
        Active.duplicate_client_replies a,
        Active.order_fingerprint a )
    | Sharded s ->
      ( Shard.replies_received s,
        Shard.consistent s,
        Array.fold_left
          (fun n g -> n + Active.duplicate_client_replies g)
          0 (Shard.groups s),
        Shard.fingerprint s )
    | Elastic r ->
      ( Reconfig.replies_received r,
        Reconfig.states_agree r && Reconfig.epochs_agree r,
        Reconfig.duplicate_client_replies r,
        Reconfig.fingerprint r )
  in
  let fast_path, cross_path, held, splits, groups_final =
    match sys with
    | Single _ -> (0, 0, 0, 0, 1)
    | Sharded s ->
      ( Shard.fast_path_requests s,
        Shard.cross_shard_requests s,
        0,
        0,
        Shard.shards s )
    | Elastic r ->
      ( Reconfig.fast_path_requests r,
        Reconfig.cross_group_requests r,
        Reconfig.held_requests r,
        Reconfig.splits r,
        Reconfig.group_count r )
  in
  { expected = w.clients * w.requests;
    replies;
    consistent;
    duplicates;
    fingerprint;
    makespan_ms = Engine.now inst.engine;
    events = Engine.events_executed inst.engine;
    fast_path;
    cross_path;
    held;
    splits;
    groups_final }

(* The output checks of one run; the empty list means it passed. *)
let failures o =
  List.filter_map
    (fun (bad, msg) -> if bad then Some (Lazy.force msg) else None)
    [ ( o.replies <> o.expected,
        lazy (Printf.sprintf "%d replies for %d requests" o.replies o.expected)
      );
      (not o.consistent, lazy "replicas disagree");
      ( o.duplicates <> 0,
        lazy (Printf.sprintf "%d duplicate client replies" o.duplicates) ) ]

(* A round's fingerprint: its runs' fingerprints folded in seed order. *)
let fingerprint outcomes =
  List.fold_left
    (fun h o -> Int64.add (Int64.mul h 1000003L) o.fingerprint)
    0L outcomes
