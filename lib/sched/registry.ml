type spec = {
  name : string;
  needs_prediction : bool;
  deterministic : bool;
  parallel : bool;
  description : string;
}

(* Every entry except the adaptive meta-scheduler is a thin decision module
   behind {!Decision.Serial} or {!Decision.Parallel};
   [Decision.instantiate]/[instantiate_parallel] attach the shared
   bookkeeping substrate (and the prediction table when the module asks for
   one).  Parallel entries thread [Sched_config.workers] into the pool;
   serial entries ignore it (the registry rejects [workers > 1] for them
   before construction).  The constructors stay private to this table:
   {!instantiate} is the only way to build a scheduler. *)

let serial m (cfg : Sched_config.t) actions =
  Decision.instantiate m ~config:cfg.Sched_config.runtime
    ~summary:cfg.Sched_config.summary actions

let parallel m (cfg : Sched_config.t) actions =
  Decision.instantiate_parallel m ~config:cfg.Sched_config.runtime
    ~summary:cfg.Sched_config.summary ~workers:cfg.Sched_config.workers
    actions

let table =
  [ ({ name = "seq"; needs_prediction = false; deterministic = true;
      parallel = false;
      description = "sequential request execution in total order" },
      serial (module Seq_sched.Base));
    ({ name = "sat"; needs_prediction = false; deterministic = true;
      parallel = false;
      description = "single active thread [Jimenez-Peris et al.]" },
      serial (module Sat.Base));
    ({ name = "psat"; needs_prediction = true; deterministic = true;
      parallel = false;
      description = "predicted SAT: early token release by lock prediction" },
      serial (module Sat.Predicted));
    ({ name = "lsa"; needs_prediction = false; deterministic = true;
      parallel = false;
      description = "loose synchronisation, leader/follower [Basile et al.]" },
      serial (module Lsa.Base));
    ({ name = "pds"; needs_prediction = false; deterministic = true;
      parallel = false;
      description = "preemptive deterministic scheduling [Basile et al.]" },
      serial (module Pds.Base));
    ({ name = "ppds"; needs_prediction = true; deterministic = true;
      parallel = false;
      description = "predicted PDS: prediction-shrunk rounds" },
      serial (module Pds.Predicted));
    ({ name = "mat"; needs_prediction = false; deterministic = true;
      parallel = false;
      description = "multiple active threads [Reiser et al.]" },
      serial (module Mat.Base));
    ({ name = "mat-ll"; needs_prediction = true; deterministic = true;
      parallel = false;
      description = "MAT + last-lock analysis (Figure 2)" },
      serial (module Mat.Last_lock));
    ({ name = "pmat"; needs_prediction = true; deterministic = true;
      parallel = false;
      description = "predicted MAT: lock prediction by code analysis (4.3)" },
      serial (module Pmat.Base));
    ({ name = "cgs"; needs_prediction = true; deterministic = true;
      parallel = true;
      description =
        "conflict-graph scheduling: delivery-time classes, worker pool" },
      parallel (module Cgs.Base));
    ({ name = "pcgs"; needs_prediction = true; deterministic = true;
      parallel = true;
      description = "predicted CGS: early release of prediction-exact classes" },
      parallel (module Cgs.Predicted));
    ({ name = "wss"; needs_prediction = true; deterministic = true;
      parallel = true;
      description =
        "workspace speculation: copy-on-write execution, slot-order merge" },
      parallel (module Cgs.Workspace));
    ({ name = "cgs+ws"; needs_prediction = true; deterministic = true;
      parallel = true;
      description =
        "CGS with a workspace safety net for opaque (Top-class) requests" },
      parallel (module Cgs.Safety_net));
    ({ name = "adaptive"; needs_prediction = true; deterministic = true;
      parallel = true (* may hand a worker pool to a conflict-graph child *);
      description =
        "request analyser choosing the child scheduler at run time (5)" },
      (fun cfg a -> Adaptive.of_config cfg a));
    ({ name = "freefall"; needs_prediction = false; deterministic = false;
      parallel = false;
      description = "non-deterministic baseline (native JVM behaviour)" },
      serial (module Freefall.Base));
  ]

let all = List.map fst table

let paper_figure1 = [ "seq"; "sat"; "lsa"; "pds"; "mat" ]

let deterministic_decisions =
  List.filter_map
    (fun s ->
      if s.deterministic && s.name <> "adaptive" then Some s.name else None)
    all

let parallel_decisions =
  List.filter_map
    (fun s ->
      if s.parallel && s.name <> "adaptive" then Some s.name else None)
    all

let find name = List.find_opt (fun s -> String.equal s.name name) all

let find_exn name =
  match find name with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "unknown scheduler %S (valid: %s)" name
         (String.concat ", " (List.map (fun s -> s.name) all)))

let instantiate (cfg : Sched_config.t) actions =
  let spec = find_exn cfg.Sched_config.scheduler in
  (match (spec.needs_prediction, cfg.Sched_config.summary) with
  | true, None ->
    invalid_arg
      (Printf.sprintf
         "Registry.instantiate: scheduler %S needs a prediction summary"
         spec.name)
  | _ -> ());
  if cfg.Sched_config.workers > 1 && not spec.parallel then
    invalid_arg
      (Printf.sprintf
         "Registry.instantiate: scheduler %S is serial (workers=%d requested)"
         spec.name cfg.Sched_config.workers);
  (List.assq spec table) cfg actions
