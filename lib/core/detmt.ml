(* detmt — deterministic multithreading strategies for replicated objects.

   Umbrella module: re-exports the public surface of every sub-library so
   applications can [open Detmt] (or use [Detmt.Mat], [Detmt.Active], ...)
   without naming the individual findlib sub-packages.

   Layering, bottom-up:
   - {!Engine}/{!Rng}/{!Cpu}/{!Trace}: deterministic discrete-event substrate
   - {!Ast}/{!Builder}/{!Class_def}: the mini object language
   - {!Callgraph}/{!Param_class}/{!Paths}/{!Predict}: static lock analysis
   - {!Transform}/{!Verify}: scheduler-call injection (the TPL substitute)
   - {!Metrics}/{!Recorder}/{!Audit}/{!Chrome}: the flight recorder
   - {!Totem}/{!Group}/{!Dedup}: total-order group communication
   - {!Replica}/{!Interp}/{!Mutex_table}/{!Condvar}: the replica runtime
   - {!Registry}/{!Bookkeeping} and the decision modules: the schedulers
   - {!Active}/{!Passive}/{!Client}/{!Consistency}/{!Failover}: replication
   - {!Schedule}/{!Explore}: bounded schedule-space model checking
   - {!Figure1}/{!Disjoint}/{!Tail_compute}/{!Prodcons}: paper workloads
   - {!Experiment}: the experiment registry — every table and figure *)

(* simulation substrate *)
module Engine = Detmt_sim.Engine
module Rng = Detmt_sim.Rng
module Cpu = Detmt_sim.Cpu
module Trace = Detmt_sim.Trace
module Timeline = Detmt_sim.Timeline
module Pqueue = Detmt_sim.Pqueue

(* statistics *)
module Summary = Detmt_stats.Summary
module Table = Detmt_stats.Table
module Series = Detmt_stats.Series

(* language *)
module Ast = Detmt_lang.Ast
module Builder = Detmt_lang.Builder
module Class_def = Detmt_lang.Class_def
module Pretty = Detmt_lang.Pretty
module Wellformed = Detmt_lang.Wellformed
module Dml = Detmt_lang.Dml

(* analysis *)
module Syncid = Detmt_analysis.Syncid
module Callgraph = Detmt_analysis.Callgraph
module Param_class = Detmt_analysis.Param_class
module Loops = Detmt_analysis.Loops
module Paths = Detmt_analysis.Paths
module Last_lock = Detmt_analysis.Last_lock
module Predict = Detmt_analysis.Predict
module Interference = Detmt_analysis.Interference

(* transformation *)
module Inline = Detmt_transform.Inline
module Inject = Detmt_transform.Inject
module Transform = Detmt_transform.Transform
module Verify = Detmt_transform.Verify

(* observability — the flight recorder (strictly read-only) and the
   continuous-telemetry layer (windowed series, hot-path profiler,
   critical-path analysis, OpenMetrics exposition).  [Timeseries] is the
   obs window store; the plain [Series] name stays with the stats chart
   module it has always meant. *)
module Json = Detmt_obs.Json
module Metrics = Detmt_obs.Metrics
module Hdr = Detmt_obs.Hdr
module Timeseries = Detmt_obs.Timeseries
module Profile = Detmt_obs.Profile
module Critical_path = Detmt_obs.Critical_path
module Openmetrics = Detmt_obs.Openmetrics
module Audit = Detmt_obs.Audit
module Recorder = Detmt_obs.Recorder
module Chrome = Detmt_obs.Chrome

(* group communication *)
module Message = Detmt_gcs.Message
module Totem = Detmt_gcs.Totem
module Dedup = Detmt_gcs.Dedup
module Group = Detmt_gcs.Group
module Faults = Detmt_gcs.Faults

(* runtime *)
module Request = Detmt_runtime.Request
module Mutex_table = Detmt_runtime.Mutex_table
module Condvar = Detmt_runtime.Condvar
module Runtime_config = Detmt_runtime.Config
module Object_state = Detmt_runtime.Object_state
module Op = Detmt_runtime.Op
module Interp = Detmt_runtime.Interp
module Sched_iface = Detmt_runtime.Sched_iface
module Replica = Detmt_runtime.Replica

(* schedulers: the shared substrate (two-module architecture) and the
   decision modules *)
module Bookkeeping = Detmt_sched.Bookkeeping
module Sched_config = Detmt_sched.Sched_config
module Substrate = Detmt_sched.Substrate
module Decision = Detmt_sched.Decision
module Seq_index = Detmt_sched.Seq_index
module Fqueue = Detmt_sched.Fqueue
module Waitq = Detmt_sched.Waitq
module Registry = Detmt_sched.Registry
module Seq_sched = Detmt_sched.Seq_sched
module Sat = Detmt_sched.Sat
module Lsa = Detmt_sched.Lsa
module Pds = Detmt_sched.Pds
module Mat = Detmt_sched.Mat
module Pmat = Detmt_sched.Pmat
module Freefall = Detmt_sched.Freefall
module Adaptive = Detmt_sched.Adaptive

(* replication *)
module Active = Detmt_replication.Active
module Shard = Detmt_replication.Shard
module Reconfig = Detmt_replication.Reconfig
module Passive = Detmt_replication.Passive
module Client = Detmt_replication.Client
module Consistency = Detmt_replication.Consistency
module Failover = Detmt_replication.Failover
module Chaos = Detmt_replication.Chaos

(* schedule-space exploration *)
module Schedule = Detmt_explore.Schedule
module Explore = Detmt_explore.Explore

(* workloads *)
module Figure1 = Detmt_workload.Figure1
module Sharded = Detmt_workload.Sharded
module Hotspot = Detmt_workload.Hotspot
module Disjoint = Detmt_workload.Disjoint
module Tail_compute = Detmt_workload.Tail_compute
module Prodcons = Detmt_workload.Prodcons

(* experiments *)
module Experiment = Experiment
module Model = Model
