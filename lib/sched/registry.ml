type spec = {
  name : string;
  needs_prediction : bool;
  deterministic : bool;
  parallel : bool;
  description : string;
}

(* What a name builds: a decision policy over the shared substrate, or the
   adaptive meta-scheduler, which builds its children through {!instantiate}.
   This table is the only place a name is bound to a policy, its prediction
   flag and its description; [parallel] follows from the policy's shape. *)
type impl = Policy of Decision.policy | Meta

let entry ?(deterministic = true) name ~prediction description impl =
  let parallel =
    match impl with
    | Policy (Serial _) -> false
    | Policy (Parallel _) | Meta -> true
  in
  ( { name; needs_prediction = prediction; deterministic; parallel;
      description },
    impl )

let serial policy = Policy (Serial policy)

let parallel policy = Policy (Parallel policy)

let table =
  [ entry "seq" ~prediction:false
      "sequential request execution in total order" (serial Seq_sched.policy);
    entry "sat" ~prediction:false
      "single active thread [Jimenez-Peris et al.]" (serial Sat.policy);
    entry "psat" ~prediction:true
      "predicted SAT: early token release by lock prediction"
      (serial Sat.policy);
    entry "lsa" ~prediction:false
      "loose synchronisation, leader/follower [Basile et al.]"
      (serial Lsa.policy);
    entry "pds" ~prediction:false
      "preemptive deterministic scheduling [Basile et al.]"
      (serial Pds.policy);
    entry "ppds" ~prediction:true "predicted PDS: prediction-shrunk rounds"
      (serial Pds.policy);
    entry "mat" ~prediction:false "multiple active threads [Reiser et al.]"
      (serial Mat.policy);
    entry "mat-ll" ~prediction:true "MAT + last-lock analysis (Figure 2)"
      (serial Mat.policy);
    entry "pmat" ~prediction:true
      "predicted MAT: lock prediction by code analysis (4.3)"
      (serial Pmat.policy);
    entry "cgs" ~prediction:true
      "conflict-graph scheduling: delivery-time classes, worker pool"
      (parallel Cgs.cgs);
    entry "pcgs" ~prediction:true
      "predicted CGS: early release of prediction-exact classes"
      (parallel Cgs.pcgs);
    entry "wss" ~prediction:true
      "workspace speculation: copy-on-write execution, slot-order merge"
      (parallel Cgs.wss);
    entry "cgs+ws" ~prediction:true
      "CGS with a workspace safety net for opaque (Top-class) requests"
      (parallel Cgs.safety_net);
    (* parallel: it may hand a worker pool to a conflict-graph child *)
    entry "adaptive" ~prediction:true
      "request analyser choosing the child scheduler at run time (5)" Meta;
    entry "freefall" ~deterministic:false ~prediction:false
      "non-deterministic baseline (native JVM behaviour)"
      (serial Freefall.policy) ]

let all = List.map fst table

let paper_figure1 = [ "seq"; "sat"; "lsa"; "pds"; "mat" ]

(* The entries backed by a decision policy: all but the meta-scheduler. *)
let decisions flag =
  List.filter_map
    (function s, Policy _ when flag s -> Some s.name | _ -> None)
    table

let deterministic_decisions = decisions (fun s -> s.deterministic)

let parallel_decisions = decisions (fun s -> s.parallel)

let row name =
  match List.find_opt (fun (s, _) -> String.equal s.name name) table with
  | Some row -> row
  | None ->
    invalid_arg
      (Printf.sprintf "unknown scheduler %S (valid: %s)" name
         (String.concat ", " (List.map (fun s -> s.name) all)))

let find name = List.find_opt (fun s -> String.equal s.name name) all

let find_exn name = fst (row name)

let rec instantiate (cfg : Sched_config.t) actions =
  let spec, impl = row cfg.Sched_config.scheduler in
  if spec.needs_prediction && cfg.Sched_config.summary = None then
    invalid_arg
      (Printf.sprintf
         "Registry.instantiate: scheduler %S needs a prediction summary"
         spec.name);
  if cfg.Sched_config.workers > 1 && not spec.parallel then
    invalid_arg
      (Printf.sprintf
         "Registry.instantiate: scheduler %S is serial (workers=%d requested)"
         spec.name cfg.Sched_config.workers);
  match impl with
  | Policy policy ->
    Decision.instantiate policy ~needs_prediction:spec.needs_prediction cfg
      actions
  | Meta -> Adaptive.of_config ~instantiate cfg actions
