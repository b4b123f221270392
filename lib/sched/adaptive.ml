open Detmt_runtime

let fully_predictable = function
  | None -> false
  | Some (cs : Detmt_analysis.Predict.class_summary) ->
    cs.methods <> []
    && List.for_all
         (fun (m : Detmt_analysis.Predict.method_summary) -> not m.fallback)
         cs.methods

let recommend ~workers ~conflict_rate ~summary ~avg_concurrency =
  if avg_concurrency <= 1.05 then "seq"
  else if fully_predictable summary then
    if workers > 1 && conflict_rate <= 0.05 && avg_concurrency >= 2.0 then
      "cgs"
      (* a worker pool is available and locks almost never contend: the
         conflict graph stays edge-free and class-disjoint requests run
         concurrently — the one regime where a serial token costs real
         throughput *)
    else if avg_concurrency < 2.0 then "psat"
      (* barely-overlapping clients: the single token almost never blocks
         anybody, and prediction releases it early when it would *)
    else if avg_concurrency <= 48.0 then "pmat"
    else "ppds"
      (* heavy fan-in: batched rounds amortise the decision cost that
         pMAT's per-event queue scan pays on every delivery *)
  else "mat"

(* The children the analyser can pick.  (Not routed through {!Registry} to
   keep the module dependency one-way.)  Prediction-based children degrade
   to their pessimistic base module when no summary is available; the
   conflict-graph children degrade to MAT (without a summary every class is
   opaque, so CGS would serialise). *)
let make_child name ~config ~summary ~workers actions =
  let inst (module D : Decision.Serial) =
    Decision.instantiate (module D) ~config ~summary actions
  in
  let pinst (module D : Decision.Parallel) =
    Decision.instantiate_parallel (module D) ~config ~summary ~workers
      actions
  in
  match (name, summary) with
  | "seq", _ -> inst (module Seq_sched.Base)
  | "sat", _ -> inst (module Sat.Base)
  | "psat", Some _ -> inst (module Sat.Predicted)
  | "psat", None -> inst (module Sat.Base)
  | "mat", _ -> inst (module Mat.Base)
  | "pmat", Some _ -> inst (module Pmat.Base)
  | "pmat", None -> inst (module Mat.Base)
  | "pds", _ -> inst (module Pds.Base)
  | "ppds", Some _ -> inst (module Pds.Predicted)
  | "ppds", None -> inst (module Pds.Base)
  | "cgs", Some _ -> pinst (module Cgs.Base)
  | "cgs", None -> inst (module Mat.Base)
  | "pcgs", Some _ -> pinst (module Cgs.Predicted)
  | "pcgs", None -> inst (module Mat.Base)
  | other, _ -> invalid_arg ("Adaptive: unknown child scheduler " ^ other)

type t = {
  actions : Sched_iface.actions;
  config : Config.t;
  summary : Detmt_analysis.Predict.class_summary option;
  workers : int;
  window : int;
  on_switch : string -> unit;
  mutable child : Sched_iface.sched;
  mutable child_name : string;
  mutable alive_threads : int;
  (* interaction-pattern statistics for the current window *)
  mutable window_requests : int;
  mutable concurrency_sum : int; (* alive threads observed at each delivery *)
  mutable window_locks : int;
  mutable window_contended : int; (* lock requests finding the mutex held *)
}

let switch t name =
  if not (String.equal name t.child_name) then begin
    (* Only legal at quiescence: the fresh child starts with no thread
       state, which is exactly the replica's situation. *)
    assert (t.alive_threads = 0);
    t.child <-
      make_child name ~config:t.config ~summary:t.summary ~workers:t.workers
        t.actions;
    t.child_name <- name;
    t.on_switch name
  end

(* Quiescent point: re-evaluate once enough of the stream has been seen. *)
let reconsider t =
  if t.alive_threads = 0 && t.window_requests >= t.window then begin
    let avg_concurrency =
      float_of_int t.concurrency_sum /. float_of_int t.window_requests
    in
    (* The lock-pattern half of the paper's analyser: how often a requested
       mutex was actually held.  Deterministic because the child's execution
       is — every replica observes the same contention sequence. *)
    let conflict_rate =
      if t.window_locks = 0 then 0.0
      else float_of_int t.window_contended /. float_of_int t.window_locks
    in
    t.window_requests <- 0;
    t.concurrency_sum <- 0;
    t.window_locks <- 0;
    t.window_contended <- 0;
    switch t
      (recommend ~workers:t.workers ~conflict_rate ~summary:t.summary
         ~avg_concurrency)
  end

let on_request t tid =
  t.window_requests <- t.window_requests + 1;
  t.alive_threads <- t.alive_threads + 1;
  t.concurrency_sum <- t.concurrency_sum + t.alive_threads;
  t.child.on_request tid

let on_terminate t tid =
  t.alive_threads <- t.alive_threads - 1;
  t.child.on_terminate tid;
  reconsider t

let on_lock t tid ~syncid ~mutex =
  t.window_locks <- t.window_locks + 1;
  if not (t.actions.Sched_iface.mutex_free_for ~tid ~mutex) then
    t.window_contended <- t.window_contended + 1;
  t.child.on_lock tid ~syncid ~mutex

let iface t =
  { Sched_iface.name = "adaptive";
    on_request = on_request t;
    on_lock = on_lock t;
    on_acquired =
      (fun tid ~syncid ~mutex -> t.child.on_acquired tid ~syncid ~mutex);
    on_unlock =
      (fun tid ~syncid ~mutex ~freed ->
        t.child.on_unlock tid ~syncid ~mutex ~freed);
    on_wait = (fun tid ~mutex -> t.child.on_wait tid ~mutex);
    on_wakeup = (fun tid ~mutex -> t.child.on_wakeup tid ~mutex);
    on_reacquired = (fun tid ~mutex -> t.child.on_reacquired tid ~mutex);
    on_nested_begin = (fun tid -> t.child.on_nested_begin tid);
    on_nested_reply = (fun tid -> t.child.on_nested_reply tid);
    on_terminate = on_terminate t;
    on_lockinfo =
      (fun tid ~syncid ~mutex -> t.child.on_lockinfo tid ~syncid ~mutex);
    on_ignore = (fun tid ~syncid -> t.child.on_ignore tid ~syncid);
    on_loop_enter = (fun tid ~loopid -> t.child.on_loop_enter tid ~loopid);
    on_loop_exit = (fun tid ~loopid -> t.child.on_loop_exit tid ~loopid);
    on_control = (fun ~sender c -> t.child.on_control ~sender c);
    on_ws_event = (fun tid ev -> t.child.on_ws_event tid ev);
    snapshot = (fun () -> t.child.snapshot ());
    restore = (fun kv -> t.child.restore kv) }

let of_config ?(window = 20) ?(on_switch = fun _ -> ())
    (cfg : Sched_config.t) actions : Sched_iface.sched =
  let config = cfg.Sched_config.runtime
  and summary = cfg.Sched_config.summary
  and workers = cfg.Sched_config.workers in
  (* Prior before anything has been measured: assume moderate concurrency
     and full contention — the conflict-graph child is only picked once a
     window has demonstrated that locks do not contend. *)
  let initial =
    recommend ~workers ~conflict_rate:1.0 ~summary ~avg_concurrency:4.0
  in
  let t =
    { actions; config; summary; workers; window; on_switch;
      child = make_child initial ~config ~summary ~workers actions;
      child_name = initial; alive_threads = 0; window_requests = 0;
      concurrency_sum = 0; window_locks = 0; window_contended = 0 }
  in
  t.on_switch initial;
  iface t
