open Detmt_sim
open Detmt_stats
open Detmt_replication
module W = Detmt_workload
module Json = Detmt_obs.Json
module Recorder = Detmt_obs.Recorder
module Timeseries = Detmt_obs.Timeseries

(* ------------------------------------------------------------------ *)
(* Configurations                                                       *)

type workload = {
  wname : string;
  cls : Detmt_lang.Class_def.t;
  gen : Client.request_gen;
}

let mk wname cls gen = { wname; cls; gen }

let figure1_wl wname p = { wname; cls = W.Figure1.cls p; gen = W.Figure1.gen p }

let tail_wl wname p =
  { wname; cls = W.Tail_compute.cls p; gen = W.Tail_compute.gen p }

let sharded_wl wname p = { wname; cls = W.Sharded.cls p; gen = W.Sharded.gen p }

let hotspot_wl wname p = { wname; cls = W.Hotspot.cls p; gen = W.Hotspot.gen p }

let workload wname =
  let cls, gen = W.Catalog.find wname in
  { wname; cls; gen }

type system = Static of int | Autoscale of Reconfig.policy

type drive = Closed | Open_loop of float | Kill_leader of float

type config = {
  workload : workload;
  system : system;
  scheduler : string;
  workers : int;
  clients : int;
  requests : int;
  replicas : int;
  seed : int64;
  latency_ms : float;
  pds_batch : int;
  bookkeeping_ms : float;
  batching : Detmt_gcs.Totem.batching option;
  drive : drive;
}

let base =
  let p = Active.default_params in
  { workload = workload "figure1"; system = Static 1; scheduler = p.scheduler;
    workers = p.workers; clients = 8; requests = 10; replicas = p.replicas;
    seed = 42L; latency_ms = p.net_latency_ms;
    pds_batch = p.config.pds_batch;
    bookkeeping_ms = p.config.bookkeeping_overhead_ms; batching = None;
    drive = Closed }

(* The configuration as ordered (key, JSON value) fields: the JSON object,
   the table's configuration columns and the de-duplication key. *)
let config_fields c =
  [ ("workload", Json.String c.workload.wname);
    ("system",
     Json.String
       (match c.system with
       | Static n -> Printf.sprintf "static-%d" n
       | Autoscale _ -> "autoscale"));
    ("scheduler", Json.String c.scheduler);
    ("workers", Json.Int c.workers);
    ("clients", Json.Int c.clients);
    ("requests", Json.Int c.requests);
    ("replicas", Json.Int c.replicas);
    ("seed", Json.Int (Int64.to_int c.seed));
    ("latency_ms", Json.Float c.latency_ms);
    ("pds_batch", Json.Int c.pds_batch);
    ("bookkeeping_ms", Json.Float c.bookkeeping_ms);
    ("batch",
     Json.Int
       (match c.batching with
       | Some b -> b.Detmt_gcs.Totem.max_batch
       | None -> 1));
    ("drive",
     Json.String
       (match c.drive with
       | Closed -> "closed"
       | Open_loop rate -> Printf.sprintf "open-loop %g/s" rate
       | Kill_leader at -> Printf.sprintf "kill-leader@%gms" at)) ]

(* ------------------------------------------------------------------ *)
(* Rows and the runner                                                  *)

type outcome = {
  expected : int;
  replies : int;
  mean_ms : float;
  p95_ms : float;
  throughput_per_s : float;
  duration_ms : float;
  consistent : bool;
  fingerprint : int64;
  metrics : (string * float) list;
}

type cost = {
  wall_ms : float;
  minor_words : float;
  major_words : float;
  series_points : int;
  peak_pending : float;
}

type row = { config : config; outcome : outcome; cost : cost }

let metric r name =
  Option.value (List.assoc_opt name r.outcome.metrics) ~default:Float.nan

(* The host rates, computed from the cost so that the outcome stays a
   function of the configuration: events per wall-clock second, and minor
   words per executed event and per answered request — [nan] for a row
   that counts no events or answers no request. *)
let host_rates r =
  let per n d = if d > 0.0 then n /. d else Float.nan in
  let events = metric r "events" in
  [ ("events_per_s", per events (r.cost.wall_ms /. 1000.0));
    ("words_per_event", per r.cost.minor_words events);
    ("words_per_request",
     per r.cost.minor_words (float_of_int r.outcome.replies)) ]

(* What a table column or a claim reads: a host rate, else a metric. *)
let column r name =
  match List.assoc_opt name (host_rates r) with
  | Some v -> v
  | None -> metric r name

(* Host-side cost of one call: wall-clock milliseconds and GC-allocated
   words.  Host measurements only, so recording them cannot perturb the
   run. *)
let costed f =
  let minor0 = Gc.minor_words () in
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let s1 = Gc.quick_stat () in
  ( r,
    (t1 -. t0) *. 1000.0,
    Gc.minor_words () -. minor0,
    s1.Gc.major_words -. s0.Gc.major_words )

let system ?obs ?(trace_events = false) engine c =
  let base =
    { Active.default_params with
      Active.scheduler = c.scheduler; workers = c.workers;
      replicas = c.replicas; net_latency_ms = c.latency_ms;
      batching = c.batching;
      config =
        { Detmt_runtime.Config.default with
          pds_batch = c.pds_batch; bookkeeping_overhead_ms = c.bookkeeping_ms;
          trace_events } }
  in
  let initial_groups =
    match c.system with Static n -> n | Autoscale _ -> 1
  in
  let t =
    Reconfig.create ?obs ~engine ~cls:c.workload.cls
      ~params:{ Reconfig.default_params with Reconfig.initial_groups; base }
      ()
  in
  (match c.system with
  | Autoscale policy -> Reconfig.set_autoscale t policy
  | Static _ -> ());
  t

let flag b = if b then 1.0 else 0.0

(* Scheduler activity from the recorder.  LSA splits its grants between
   leader broadcasts and follower enforcement, so the grant counter sums
   the names; the adaptive meta-scheduler books under its children's
   names, so its counters read zero. *)
let sched_metrics obs scheduler =
  if not (Recorder.enabled obs) then []
  else
    let m = Recorder.metrics obs in
    let c suffix =
      Detmt_obs.Metrics.counter_value m ("sched." ^ scheduler ^ "." ^ suffix)
    in
    [ ("grants",
       float_of_int
         (c "grants" + c "grant_broadcasts" + c "follower_grants"
         + c "independent_grants"));
      ("deferrals", float_of_int (c "deferrals"));
      ("totem_deliveries",
       float_of_int (Detmt_obs.Metrics.counter_value m "totem.deliveries")) ]

(* The broadcast kinds {!Active} counts: every row reports each of them,
   so all rows share one metric schema. *)
let message_kinds =
  [ "barrier"; "control"; "nested-reply"; "pds-dummy"; "request" ]

let run ?obs c =
  let obs = match obs with Some o -> o | None -> Recorder.create () in
  let engine = Engine.create () in
  let system = system ~obs engine c in
  let closed ?until_ms () =
    ignore
      (Reconfig.run_clients_stats system ~clients:c.clients
         ~requests_per_client:c.requests ~gen:c.workload.gen ~seed:c.seed
         ?until_ms ())
  in
  let drive () =
    match c.drive with
    | Closed -> closed ()
    | Kill_leader at ->
      Engine.schedule_at engine ~time:at (fun () ->
          Reconfig.kill_replica system ~group:0 ~offset:0);
      closed ~until_ms:60_000.0 ()
    | Open_loop rate ->
      let horizon = 10.0 *. (float_of_int c.requests *. 1000.0 /. rate) in
      Client.run_open_loop ~engine ~submit:(Reconfig.submit system)
        ~rate_per_s:rate ~requests:c.requests ~gen:c.workload.gen ~seed:c.seed
        ~until_ms:horizon ()
  in
  let (), wall_ms, minor_words, major_words = costed drive in
  let replies = Reconfig.replies_received system in
  let times = Reconfig.response_times system in
  let groups = Reconfig.groups_ever system in
  let reports = Reconfig.reports system in
  let agree f = List.for_all f reports in
  let states = agree (fun r -> r.Consistency.states_agree)
  and acquisitions = agree (fun r -> r.Consistency.acquisitions_agree)
  and traces = agree (fun r -> r.Consistency.traces_agree)
  and epochs = Reconfig.epochs_agree system in
  let sum f = float_of_int (List.fold_left (fun n g -> n + f g) 0 groups) in
  let i f = float_of_int (f system) in
  let failover =
    match c.drive with
    | Kill_leader kill_at ->
      let a = Failover.analyze ~kill_at (Reconfig.reply_times system) in
      [ ("takeover_ms", a.Failover.takeover_ms);
        ("replies_after", float_of_int a.replies_after) ]
    | Closed | Open_loop _ -> []
  in
  let metrics =
    [ ("events", float_of_int (Engine.events_executed engine));
      ("broadcasts", i Reconfig.broadcasts);
      ("wire_batches", sum Active.wire_batches) ]
    @ List.map
        (fun kind ->
          ( "msg." ^ kind,
            sum (fun g ->
                Option.value ~default:0
                  (List.assoc_opt kind (Active.message_stats g))) ))
        message_kinds
    @ [ (* replica 0's busy time in every incarnation *)
        ("cpu_busy_ms",
         List.fold_left
           (fun acc g ->
             match Active.replicas g with
             | r :: _ -> acc +. Detmt_runtime.Replica.cpu_busy_ms r
             | [] -> acc)
           0.0 groups);
        ("states_agree", flag states);
        ("acquisitions_agree", flag acquisitions);
        ("traces_agree", flag traces);
        ("epochs_agree", flag epochs);
        ("groups_final", i Reconfig.group_count);
        ("epoch", i Reconfig.epoch);
        ("splits", i Reconfig.splits);
        ("merges", i Reconfig.merges);
        ("swaps", i Reconfig.swaps);
        ("held", i Reconfig.held_requests);
        ("fast_path", i Reconfig.fast_path_requests);
        ("cross_group", i Reconfig.cross_group_requests) ]
    @ failover @ sched_metrics obs c.scheduler
  in
  let duration_ms = Engine.now engine in
  let ts = Recorder.timeseries obs in
  let peak = Timeseries.peak ts "engine.pending" in
  { config = c;
    outcome =
      { expected =
          (match c.drive with
          | Open_loop _ -> c.requests
          | Closed | Kill_leader _ -> c.clients * c.requests);
        replies; mean_ms = Summary.mean times;
        p95_ms = Summary.quantile times 0.95;
        throughput_per_s =
          (if duration_ms > 0.0 then
             1000.0 *. float_of_int replies /. duration_ms
           else 0.0);
        duration_ms;
        consistent = states && acquisitions && epochs;
        fingerprint = Reconfig.fingerprint system;
        metrics };
    cost =
      { wall_ms; minor_words; major_words;
        series_points = Timeseries.point_count ts;
        peak_pending = (if Float.is_nan peak then 0.0 else peak) } }

(* ------------------------------------------------------------------ *)
(* Grids and claims                                                     *)

type spec = {
  name : string;
  title : string;
  grid : config list;
  run : config list -> row list * string;
  columns : string list;
  claims : row list -> (string * bool) list;
}

let dedupe configs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let k = Json.to_string (Json.Obj (config_fields c)) in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    configs

(* Unknown names pass through: the runner reports them. *)
let parallel s =
  match Detmt_sched.Registry.find s with
  | Some spec -> spec.Detmt_sched.Registry.parallel
  | None -> true

let restrict ?clients ?shards ?scheduler ?workers ?seed grid =
  let set o f c = match o with Some v -> f c v | None -> c in
  grid
  |> List.filter (fun c ->
         match (shards, c.system) with
         | Some n, Static g -> g <= n
         | _ -> true)
  |> List.map (fun c ->
         c
         |> set clients (fun c clients -> { c with clients })
         |> set scheduler (fun c scheduler ->
                { c with
                  scheduler;
                  workers = (if parallel scheduler then c.workers else 1) })
         |> set workers (fun c workers -> { c with workers })
         |> set seed (fun c seed -> { c with seed }))
  |> dedupe

(* [axes f xs ys] is the grid [f x y] in x-major order. *)
let axes f xs ys = List.concat_map (fun x -> List.map (f x) ys) xs

(* [c] at every client count x pool width x scheduler, clients-major. *)
let cross ?(workers = [ 1 ]) c clients schedulers =
  axes
    (fun clients (workers, scheduler) -> { c with scheduler; workers; clients })
    clients
    (axes (fun w s -> (w, s)) workers schedulers)

let run_grid grid = List.map (fun c -> run c) grid

(* Append the metrics [f] derives for each row (from the whole grid). *)
let derive f rows =
  List.map
    (fun r ->
      { r with
        outcome = { r.outcome with metrics = r.outcome.metrics @ f rows r } })
    rows

let in_workload wname rows =
  List.filter (fun r -> r.config.workload.wname = wname) rows

let max_clients rows =
  List.fold_left (fun acc r -> max acc r.config.clients) 0 rows

(* The row of [scheduler] at [workers] and the largest client count. *)
let row_at rows ~workers scheduler =
  let clients = max_clients rows in
  List.find_opt
    (fun r ->
      r.config.scheduler = scheduler && r.config.workers = workers
      && r.config.clients = clients)
    rows

(* A claim is reported only when the rows it needs are there. *)
let claim name = function Some holds -> [ (name, holds) ] | None -> []

(* A claim comparing two rows of one workload at its largest client
   count. *)
let compare_at_max ~claim:name ~wname (a, wa) (b, wb) holds rows =
  let rows = in_workload wname rows in
  claim name
    (match (row_at rows ~workers:wa a, row_at rows ~workers:wb b) with
    | Some x, Some y -> Some (holds x.outcome y.outcome)
    | _ -> None)

let faster ~claim ~wname ?(by = 1.0) winner loser =
  compare_at_max ~claim ~wname winner loser (fun x y ->
      x.mean_ms < by *. y.mean_ms)

let deterministic s =
  match Detmt_sched.Registry.find s with
  | Some spec -> spec.Detmt_sched.Registry.deterministic
  | None -> false

(* Every row answers every request and its replicas agree; schedulers the
   registry does not claim deterministic are exempt from agreement. *)
let complete ?(name = "every run answers every request and agrees") rows =
  claim name
    (if rows = [] then None
     else
       Some
         (List.for_all
            (fun r ->
              r.outcome.replies = r.outcome.expected
              && (r.outcome.consistent
                 || not (deterministic r.config.scheduler)))
            rows))

(* By default a spec runs every grid point, appends the [derived] metrics
   and prints [note] after its tables. *)
let spec ?(columns = []) ?(claims = fun _ -> []) ?(derived = fun _ _ -> [])
    ?(note = "") ?run ~title name grid =
  let run =
    match run with
    | Some run -> run
    | None -> fun grid -> (derive derived (run_grid grid), note)
  in
  { name; title; grid = dedupe grid; run; columns; claims }

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1, with the E19/E20 riders and registry coverage        *)

let all_schedulers =
  List.map (fun s -> s.Detmt_sched.Registry.name) Detmt_sched.Registry.all

let fig1 () =
  let paper = Detmt_sched.Registry.paper_figure1 in
  (* E19 setting: 4096 mutexes (two requests almost never share one) and no
     nested calls (pMAT's announcement gating is pure overhead). *)
  let e19 =
    { base with
      workload =
        figure1_wl "figure1-low-conflict"
          { W.Figure1.default with W.Figure1.n_mutexes = 4096; p_nested = 0.0 };
      requests = 2 }
  in
  let e20a = { base with workload = workload "sharded-opaque"; requests = 2 } in
  let e20b = { base with workload = workload "tail"; requests = 2 } in
  let grid =
    cross base [ 1; 2; 4; 8; 16; 32 ] paper
    (* the registry coverage: every decision module at 8 and 64 clients *)
    @ cross base [ 8; 64 ] all_schedulers
    (* E19: the serial pMAT baseline, then cgs and pcgs at each width *)
    @ List.concat_map
        (fun clients ->
          cross e19 [ clients ] [ "pmat" ]
          @ cross ~workers:[ 1; 2; 4; 8 ] e19 [ clients ] [ "cgs"; "pcgs" ])
        [ 64; 256; 1024 ]
    (* E20a: the workspace safety net; E20b: the early-release tail gap *)
    @ cross ~workers:[ 1; 4 ] e20a [ 64; 256 ] [ "cgs"; "cgs+ws"; "wss" ]
    @ cross ~workers:[ 1; 4 ] e20b [ 16; 64 ] [ "cgs"; "pcgs" ]
  in
  let run grid =
    let rows = run_grid grid in
    let series =
      List.map
        (fun s ->
          let series = Series.create ~name:s in
          List.iter
            (fun r ->
              if r.config.scheduler = s then
                Series.add series ~x:(float_of_int r.config.clients)
                  ~y:r.outcome.mean_ms)
            (in_workload "figure1" rows);
          series)
        paper
    in
    let series = List.filter (fun s -> Series.points s <> []) series in
    ( rows,
      (if series = [] then ""
       else Format.asprintf "%a@." Series.chart series)
      ^ "Expected shape: SEQ worst and degrading linearly; LSA best; MAT \
         ahead of SAT/PDS.\n\
         E19: cgs scales near-linearly with the pool on the 4096-mutex \
         workload and passes pMAT at 4 workers.\n\
         E20: cgs+ws and wss at 4 workers beat cgs at 4 (the workspace \
         absorbs Top-class requests); pcgs beats cgs on the tail workload \
         (early release overlaps the 20 ms tails).\n" )
  in
  let claims rows =
    complete rows
    @ faster ~claim:"E1: MAT beats SEQ" ~wname:"figure1" ("mat", 1) ("seq", 1)
        rows
    @ faster ~claim:"E1: LSA beats MAT" ~wname:"figure1" ("lsa", 1) ("mat", 1)
        rows
    @ faster ~claim:"E19: cgs at 4 workers beats pMAT"
        ~wname:"figure1-low-conflict" ("cgs", 4) ("pmat", 1) rows
    @ faster ~claim:"E20a: cgs+ws at 4 workers beats cgs at 4"
        ~wname:"sharded-opaque" ("cgs+ws", 4) ("cgs", 4) rows
    @ faster ~claim:"E20a: wss at 4 workers beats cgs at 4"
        ~wname:"sharded-opaque" ("wss", 4) ("cgs", 4) rows
    @ faster ~claim:"E20b: pcgs at 4 workers beats cgs at 4" ~wname:"tail"
        ("pcgs", 4) ("cgs", 4) rows
  in
  spec "fig1" grid ~run ~claims
    ~columns:[ "grants"; "deferrals" ]
    ~title:
      "E1 / Figure 1: mean response time vs #clients, 3 replicas \
       (10-iteration method; p=0.2 nested 12ms; p=0.2 compute 10ms; 100 \
       mutexes), with the E19/E20 pool grids"

(* ------------------------------------------------------------------ *)
(* E1b–E4                                                               *)

let fig1b () =
  spec "fig1b"
    (cross { base with workload = workload "compute-heavy" }
       [ 1; 2; 4; 8; 16; 32 ]
       (Detmt_sched.Registry.paper_figure1 @ [ "pmat" ]))
    ~claims:
      (faster ~claim:"MAT at least 20% faster than SAT" ~wname:"compute-heavy"
         ~by:0.8 ("mat", 1) ("sat", 1))
    ~title:
      "E1b: compute-heavy ablation — a 20ms lock-free front computation per \
       request, where MAT's concurrent secondaries beat SAT"

(* Render a small run's per-thread schedule — the visual form of the
   paper's Figures 2 and 3. *)
let timeline ?(scheduler = "mat") ?(workload = `Tail) () =
  let wl =
    match workload with
    | `Tail ->
      tail_wl "tail"
        { W.Tail_compute.default with W.Tail_compute.tail_ms = 10.0 }
    | `Disjoint ->
      mk "disjoint" (W.Disjoint.cls W.Disjoint.default) W.Disjoint.gen
  in
  let c = { base with workload = wl; scheduler; clients = 3; requests = 2 } in
  let engine = Engine.create () in
  let system = system ~trace_events:true engine c in
  ignore
    (Reconfig.run_clients_stats system ~clients:c.clients
       ~requests_per_client:c.requests ~gen:wl.gen ~seed:c.seed ());
  match List.concat_map Active.replicas (Reconfig.live_systems system) with
  | r :: _ ->
    Timeline.of_trace
      (Trace.timed_events (Detmt_runtime.Replica.trace r))
  | [] -> Timeline.of_trace []

let with_timelines workload schedulers note grid =
  let rows = run_grid grid in
  ( rows,
    String.concat ""
      (List.map
         (fun scheduler ->
           Format.asprintf "schedule under %s:@.%a" scheduler
             (fun ppf -> Timeline.render ppf)
             (timeline ~scheduler ~workload ()))
         schedulers)
    ^ note )

let fig2 () =
  spec "fig2"
    (cross { base with workload = workload "tail" } [ 2; 4; 8; 16 ]
       [ "mat"; "mat-ll"; "pmat" ])
    ~run:
      (with_timelines `Tail [ "mat"; "mat-ll" ]
         "Expected shape: MAT+LL and PMAT hand the primary role over right \
          after the last unlock and run the 20 ms tails concurrently; MAT \
          serialises them.\n")
    ~claims:
      (faster ~claim:"MAT+LL under 0.6x MAT" ~wname:"tail" ~by:0.6
         ("mat-ll", 1) ("mat", 1))
    ~title:
      "E2 / Figure 2: the last-lock hand-off — 1ms critical section, 20ms \
       tail computation, shared mutex"

let fig3 () =
  spec "fig3"
    (cross { base with workload = workload "disjoint" } [ 2; 4; 8; 16 ]
       [ "seq"; "mat"; "mat-ll"; "pmat" ])
    ~run:
      (with_timelines `Disjoint [ "mat"; "pmat" ]
         "Expected shape: MAT degenerates to SEQ although the locks are \
          disjoint; PMAT grants them concurrently (the figure's 'ideal').\n")
    ~claims:(fun rows ->
      compare_at_max ~claim:"MAT within 5% of SEQ on disjoint locks"
        ~wname:"disjoint" ("mat", 1) ("seq", 1)
        (fun m s -> abs_float (m.mean_ms -. s.mean_ms) < 0.05 *. s.mean_ms)
        rows
      @ faster ~claim:"PMAT under half of MAT" ~wname:"disjoint" ~by:0.5
          ("pmat", 1) ("mat", 1) rows)
    ~title:
      "E3 / Figure 3: non-conflicting mutexes — each client locks a private \
       mutex (5ms critical section, 2ms tail)"

let figure4 () =
  let open Detmt_lang in
  let source =
    let open Builder in
    cls ~cname:"Figure4" ~mutex_fields:[ ("myo", 7) ] ~state_fields:[ "st" ]
      [ meth "foo" ~params:1
          [ if_
              (field_eq_arg "myo" 0)
              [ sync (arg 0) [ state_incr "st" 1 ] ]
              [ sync (field "myo") [ state_incr "st" 1 ] ];
          ];
      ]
  in
  let transformed, _summary = Detmt_transform.Transform.predictive source in
  Format.asprintf
    "--- source ---------------------------------------------------@.%a@.@.--- \
     after code analysis and injection ----------------------------@.%a@."
    Pretty.method_def
    (Class_def.find_method_exn source "foo")
    Pretty.method_def
    (Class_def.find_method_exn transformed "foo")

let fig4 () =
  spec "fig4" [] ~run:(fun _ -> ([], figure4 ()))
    ~title:"E4 / Figure 4: code transformation and injection"

(* ------------------------------------------------------------------ *)
(* E5–E13                                                               *)

let wan () =
  let c = { base with workload = workload "figure1" } in
  spec "wan"
    (axes
       (fun latency_ms scheduler -> { c with latency_ms; scheduler })
       [ 0.1; 0.5; 2.0; 8.0; 20.0; 50.0; 100.0; 200.0 ] [ "lsa"; "mat" ])
    ~columns:[ "broadcasts" ]
    ~claims:(fun rows ->
      let slope s =
        match
          List.filter (fun r -> r.config.scheduler = s) rows
          |> List.sort (fun a b ->
                 compare a.config.latency_ms b.config.latency_ms)
        with
        | [] | [ _ ] -> None
        | near :: rest ->
          let far = List.nth rest (List.length rest - 1) in
          Some (far.outcome.mean_ms -. near.outcome.mean_ms)
      in
      claim "LSA degrades faster with latency than MAT"
        (match (slope "lsa", slope "mat") with
        | Some lsa, Some mat -> Some (lsa > mat)
        | _ -> None))
    ~title:
      "E5: LSA vs MAT under growing one-way network latency (8 clients) — \
       LSA broadcasts every grant"

(* The disjoint workload has no nested invocations, so killing replica 0
   does not disturb the external-call invoker role: any take-over delay is
   purely the scheduler's.  LSA stalls until the failure is detected and a
   new leader decides; the symmetric algorithms continue seamlessly. *)
let failover () =
  let c =
    { base with workload = workload "disjoint"; requests = 30;
      drive = Kill_leader 150.0 }
  in
  spec "failover"
    (List.map (fun scheduler -> { c with scheduler }) [ "lsa"; "mat"; "sat" ])
    ~columns:[ "takeover_ms"; "replies_after" ]
    ~claims:(fun rows ->
      let takeover s holds =
        List.find_map
          (fun r ->
            if r.config.scheduler = s then Some (holds (metric r "takeover_ms"))
            else None)
          rows
      in
      claim "LSA pays a take-over delay (> 10 ms)" (takeover "lsa" (( < ) 10.0))
      @ claim "MAT pays none (< 1 ms)" (takeover "mat" (( > ) 1.0)))
    ~title:
      "E6: leader failover at t=150ms (detection timeout 50ms) — extra reply \
       gap caused by the failure"

let pds () =
  let c = { base with scheduler = "pds" } in
  spec "pds"
    (axes
       (fun pds_batch clients -> { c with pds_batch; clients })
       [ 1; 2; 4; 8; 16 ] [ 2; 8; 32 ])
    ~columns:[ "msg.pds-dummy" ]
    ~title:
      "E7: PDS batch-size sensitivity and dummy-message overhead — small \
       batches serialise; large ones need dummies below the batch size"

(* Two extremes plus the paper's workload: disjoint locks, where prediction
   buys full concurrency (the bookkeeping cost merely erodes it), and a
   single shared mutex, where prediction cannot reorder anything — there
   the injected calls are pure overhead.  This is the section 5 question:
   "at which point performance decreases again due to runtime overhead". *)
let overhead () =
  let contended =
    tail_wl "tail-contended"
      { W.Tail_compute.lock_ms = 5.0; tail_ms = 2.0; shared_mutex = true }
  in
  spec "overhead"
    (List.concat_map
       (fun workload ->
         axes
           (fun bookkeeping_ms scheduler ->
             { base with workload; scheduler; bookkeeping_ms })
           [ 0.0; 0.01; 0.1; 0.5; 1.0; 2.0; 5.0; 10.0 ]
           [ "mat"; "pmat" ])
       [ workload "disjoint"; contended; workload "figure1" ])
    ~title:
      "E8: prediction gain vs bookkeeping cost per injected call (8 clients) \
       — the section 5 crossover"

let prodcons () =
  spec "prodcons"
    (List.map
       (fun scheduler ->
         { base with workload = workload "prodcons"; scheduler })
       [ "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat" ])
    ~claims:(complete ~name:"every scheduler completes and agrees")
    ~title:
      "E9: producer/consumer over condition variables (8 clients; SEQ \
       excluded: it deadlocks, see section 1)"

(* High contention (one shared mutex) so that nondeterminism has room to
   show: freefall must diverge; LSA agrees on state and per-mutex
   acquisition order but not on full traces (followers replay the leader's
   decisions with a different event interleaving). *)
let determinism () =
  spec "determinism"
    (List.map
       (fun scheduler ->
         { base with workload = workload "tail"; requests = 5; scheduler })
       [ "seq"; "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat"; "freefall" ])
    ~columns:[ "states_agree"; "acquisitions_agree"; "traces_agree" ]
    ~claims:(fun rows ->
      let det, free =
        List.partition (fun r -> deterministic r.config.scheduler) rows
      in
      complete det
        ~name:"deterministic schedulers agree on state and acquisitions"
      @ claim "freefall diverges"
          (if free = [] then None
           else
             Some
               (List.for_all
                  (fun r -> metric r "acquisitions_agree" = 0.0)
                  free)))
    ~title:
      "E10: replica-consistency matrix (shared-mutex workload, 8 clients x 5 \
       requests)"

let saturation () =
  spec "saturation"
    (axes
       (fun rate scheduler ->
         { base with scheduler; clients = 1; requests = 150;
           drive = Open_loop rate })
       [ 10.0; 25.0; 50.0; 100.0; 200.0 ]
       [ "seq"; "sat"; "mat"; "lsa"; "pmat" ])
    ~claims:(fun rows ->
      (* a backlog still growing at the horizon is the strongest form of
         saturation *)
      let value r =
        if r.outcome.replies < r.outcome.expected then Float.infinity
        else r.outcome.mean_ms
      in
      let top =
        List.fold_left
          (fun acc r ->
            match r.config.drive with Open_loop x -> Float.max acc x | _ -> acc)
          0.0 rows
      in
      let at s =
        List.find_opt
          (fun r -> r.config.scheduler = s && r.config.drive = Open_loop top)
          rows
      in
      claim "SEQ saturates before LSA (3x) at the highest rate"
        (match (at "seq", at "lsa") with
        | Some seq, Some lsa -> Some (value seq > 3.0 *. value lsa)
        | _ -> None))
    ~title:
      "E13: open-loop (Poisson) saturation on the Figure-1 workload — mean \
       response vs offered load"

(* The model's MAT/SAT distinction is the pre-lock computation, which the
   paper's base workload barely has: use the compute-heavy variant. *)
let model () =
  spec "model"
    (cross { base with workload = workload "compute-heavy" } [ 4; 8; 16; 32 ]
       [ "seq"; "sat"; "mat"; "lsa" ])
    ~derived:(fun _ r ->
      let w =
        Model.of_figure1 ~clients:r.config.clients W.Figure1.compute_heavy
      in
      let model = Model.predict_response_ms w ~scheduler:r.config.scheduler in
      [ ("model_ms", model);
        ("err_pct",
         100.0 *. (model -. r.outcome.mean_ms) /. r.outcome.mean_ms) ])
    ~columns:[ "model_ms"; "err_pct" ]
    ~title:
      "E11: the section-5 analytic model against the simulator \
       (compute-heavy Figure-1 workload)"

(* The bank from examples/bank.ml in miniature: methods over disjoint
   account groups never interfere; a method on a request-supplied mutex
   interferes with everything. *)
let interference () =
  let report () =
    let open Detmt_lang.Builder in
    Detmt_analysis.Interference.analyse
      (Detmt_lang.Class_def.make ~cname:"Audit"
         ~mutex_fields:[ ("ledger", 100); ("journal", 101) ]
         ~state_fields:[ "st" ]
         [ meth "post_ledger" [ sync (field "ledger") [ state_incr "st" 1 ] ];
           meth "post_journal" [ sync (field "journal") [ state_incr "st" 1 ] ];
           meth "audit_self" [ sync this [ state_incr "st" 1 ] ];
           meth "touch_any" ~params:1 [ sync (arg 0) [ state_incr "st" 1 ] ] ])
  in
  spec "interference" []
    ~run:(fun _ ->
      ( [],
        Format.asprintf "%a@." Detmt_analysis.Interference.pp_report
          (report ()) ))
    ~title:
      "E12: static interference analysis on a four-method class (section 5)"

(* ------------------------------------------------------------------ *)
(* E14 / E16 — multi-group replication                                  *)

let shard () =
  let grid =
    axes
      (fun clients (cross_ratio, n) ->
        { base with
          workload =
            sharded_wl
              (Printf.sprintf "sharded(cross=%g)" cross_ratio)
              { W.Sharded.default with W.Sharded.cross_ratio };
          system = Static n; clients; requests = 4 })
      [ 64; 256; 1024 ]
      (axes (fun x n -> (x, n)) [ 0.0; 0.1 ] [ 1; 2; 4; 8 ])
  in
  spec "shard" grid
    (* speedup against the 1-shard run of the same clients and workload *)
    ~derived:(fun rows r ->
      List.filter_map
        (fun b ->
          if b.config.system = Static 1 && b.config.clients = r.config.clients
             && b.config.workload.wname = r.config.workload.wname
             && b.outcome.throughput_per_s > 0.0
          then
            Some
              ( "speedup_vs_1shard",
                r.outcome.throughput_per_s /. b.outcome.throughput_per_s )
          else None)
        rows)
    ~note:
      "Expected shape: near-linear scaling at 0% cross (disjoint closures \
       never coordinate across groups); the two-phase path erodes the gain \
       as the transfer ratio grows.\n"
    ~columns:[ "fast_path"; "cross_group"; "speedup_vs_1shard" ]
    ~claims:(fun rows ->
      let two =
        List.filter
          (fun r ->
            r.config.system = Static 2
            && r.config.workload.wname = "sharded(cross=0)")
          rows
      in
      complete rows
      @
      if two = [] then []
      else
        [ ( "2 shards out-throughput 1 at 0% cross",
            List.for_all (fun r -> metric r "speedup_vs_1shard" > 1.0) two ) ])
    ~title:
      "E14: sharded multi-group replication — throughput vs shard count (MAT \
       inside each group)"

(* The grid's controller setting: tick fast, split eagerly, never merge
   (mid-run merges only pay off on workloads that go cold, and this one
   never does), and grow past the static grid's ceiling — the statics stop
   at 8 groups, the autoscaler may reach 16.  The split drains are a fixed
   up-front cost, so the sweep runs long enough (16 requests per client)
   to amortise them; the hotspot drifts twice over those 16 requests. *)
let elastic_bench_policy =
  { Reconfig.interval_ms = 0.5; split_above = 4; merge_below = -1;
    max_live = 16 }

let elastic_bench_workload =
  { W.Hotspot.default with W.Hotspot.drift_every = 8 }

let elastic () =
  let c =
    { base with workload = hotspot_wl "hotspot(drift=8)" elastic_bench_workload;
      requests = 16 }
  in
  let grid =
    axes
      (fun clients system -> { c with system; clients })
      [ 256; 1024 ]
      [ Static 1; Static 2; Static 4; Static 8; Autoscale elastic_bench_policy ]
  in
  spec "elastic" grid
    (* the autoscaler's p95 against the best static count of its clients:
       above 1.00x the autoscaler wins *)
    ~derived:(fun rows r ->
      let statics =
        List.filter_map
          (fun b ->
            match b.config.system with
            | Static _ when b.config.clients = r.config.clients ->
              Some b.outcome.p95_ms
            | _ -> None)
          rows
      in
      match (r.config.system, statics) with
      | Autoscale _, _ :: _ when r.outcome.p95_ms > 0.0 ->
        [ ( "p95_speedup_vs_best_static",
            List.fold_left Float.min Float.infinity statics
            /. r.outcome.p95_ms ) ]
      | _ -> [])
    ~note:
      "Expected shape: every static count leaves the drifting hotspot's p95 \
       near the single-group figure; the autoscaler splits past the static \
       ceiling and lands above 1.00x against the best static at every \
       client count.\n"
    ~columns:[ "groups_final"; "epoch"; "held"; "p95_speedup_vs_best_static" ]
    ~claims:(fun rows ->
      let autos =
        List.filter
          (fun r -> match r.config.system with Autoscale _ -> true | _ -> false)
          rows
      in
      complete rows
      @ List.map
          (fun r ->
            ( Printf.sprintf
                "autoscaler reconfigures and beats every static count on p95 \
                 at %d clients"
                r.config.clients,
              metric r "epoch" > 0.0
              && metric r "p95_speedup_vs_best_static" > 1.0 ))
          autos)
    ~title:
      "E16: elastic reconfiguration — autoscaling vs static shard counts on \
       the drifting Zipf-hotspot workload"

(* ------------------------------------------------------------------ *)
(* E18 — the engine core                                                *)

(* A self-sustaining chain of typed events: 64 staggered seeds, each
   handler re-posts itself while the budget lasts.  Nothing but the engine
   core runs: the ceiling the full-stack rows are measured against. *)
let raw_chain c =
  let engine = Engine.create () in
  let budget = ref 200_000 in
  let h = ref 0 in
  h :=
    Engine.register_handler engine (fun x ->
        if !budget > 0 then begin
          decr budget;
          Engine.post engine ~delay:0.01 !h (x + 1)
        end);
  for i = 0 to 63 do
    Engine.post engine ~delay:(0.01 *. float_of_int i) !h i
  done;
  let (), wall_ms, minor_words, major_words =
    costed (fun () -> Engine.run engine)
  in
  { config = c;
    outcome =
      { expected = 0; replies = 0; mean_ms = 0.0; p95_ms = 0.0;
        throughput_per_s = 0.0; duration_ms = Engine.now engine;
        consistent = true; fingerprint = 0L;
        metrics =
          [ ("events", float_of_int (Engine.events_executed engine)) ] };
    cost =
      { wall_ms; minor_words; major_words; series_points = 0;
        peak_pending = 0.0 } }

(* The conflict-graph family's load-independence points: the pool at 4
   workers, 64 and 256 clients x 2 requests.  cgs runs figure1 (per-mutex
   heads); cgs+ws runs single-group sharded-opaque (speculations and
   commit barriers). *)
let load_points = [ ("cgs", "figure1"); ("cgs+ws", "sharded-opaque") ]

let load_independence rows =
  List.concat_map
    (fun (scheduler, wname) ->
      let at clients =
        List.find_opt
          (fun r ->
            r.config.scheduler = scheduler && r.config.workers = 4
            && r.config.workload.wname = wname && r.config.clients = clients)
          rows
      in
      claim
        (Printf.sprintf
           "%s@4 on %s: words/request at 256 clients <= 1.5x the 64-client \
            row"
           scheduler wname)
        (match (at 64, at 256) with
        | Some lo, Some hi ->
          Some
            (column hi "words_per_request"
            <= 1.5 *. column lo "words_per_request")
        | _ -> None))
    load_points

(* E18's words/event bounds on figure1@256.  The replica hot path (trace
   and acquisition folds, mutex and field lookups, scheduler gates), pMAT's
   claim refresh and the §4.3 bookkeeping allocate nothing per op, the
   request lifecycle around them allocates no closure, tuple or boxed key
   (E30), event times are boxed only when the clock moves (E31), the
   interpreter yields its ops in the cursor rather than as fresh records
   (E32), and the client's waiters, latches and log and each replica's
   held-mutex counts sit in pooled slots (E34).  Each bound is the row's
   E34 level plus under 10%, so a regression on any of those paths fails
   the claim whatever the host's load. *)
let figure1_words_bounds = [ ("seq", 5.0); ("mat", 4.1); ("pmat", 3.9) ]

(* E18's words/event bounds for the conflict-graph family at 4 workers and
   256 clients: cgs on figure1 and cgs+ws on sharded-opaque.  A request's
   workspace (pooled, on compiled field offsets) and its conflict-graph
   decisions (classes as sorted int arrays, recycled nodes, loops instead
   of closures) allocate nothing (E33).  Each bound is the row's E34 level
   plus under 10%. *)
let parallel_words_bounds =
  [ ("cgs", "figure1", 5.4); ("cgs+ws", "sharded-opaque", 19.7) ]

(* The raw chain's words/event: its E31 level (0.043, the clock re-boxed
   once per new instant) plus under 10%. *)
let raw_chain_words_bound = 0.047

(* Raw typed-event throughput, then full-stack points (clients through
   Reconfig, Active and Totem to the scheduler) with observability off.
   Larger macro points are [--clients 8192] / [16384] away. *)
let engine () =
  let raw =
    { base with workload = { (workload "figure1") with wname = "raw-chain" } }
  in
  spec "engine"
    ((raw
     :: List.map
          (fun scheduler ->
            { base with scheduler; clients = 256; requests = 4 })
          [ "seq"; "mat"; "lsa"; "pmat" ])
    @ axes
        (fun (scheduler, wname) clients ->
          { base with
            workload = workload wname; scheduler; workers = 4; clients;
            requests = 2 })
        load_points [ 64; 256 ])
    ~run:(fun grid ->
      ( List.map
          (fun c ->
            if c.workload.wname = "raw-chain" then raw_chain c
            else run ~obs:Recorder.disabled c)
          grid,
        "Expected shape: the raw chain boxes only the clock, once per new \
         instant (about 0.04 words/event); the macro rows sit well under \
         the pre-wheel baseline recorded in EXPERIMENTS.md E18.\n" ))
    ~columns:
      [ "events"; "events_per_s"; "words_per_event"; "words_per_request" ]
    ~claims:(fun rows ->
      claim "every run executes events"
        (if rows = [] then None
         else Some (List.for_all (fun r -> metric r "events" > 0.0) rows))
      @ List.filter_map
          (fun r ->
            match (r.config.workload.wname, r.config.scheduler) with
            | "raw-chain", _ ->
              (* Only the clock's re-box when the instant moves
                 (EXPERIMENTS.md E31): a boxed posted or popped time would
                 cost 2 words on every event. *)
              Some
                ( Printf.sprintf "raw chain at most %g words/event"
                    raw_chain_words_bound,
                  column r "words_per_event" <= raw_chain_words_bound )
            | wname, scheduler
              when r.config.clients = 256 && r.config.workers = 4 ->
              List.find_map
                (fun (s, w, bound) ->
                  if s = scheduler && w = wname then
                    Some
                      ( Printf.sprintf "%s@4 on %s@256 under %g words/event"
                          scheduler wname bound,
                        column r "words_per_event" < bound )
                  else None)
                parallel_words_bounds
            | "figure1", scheduler when r.config.clients = 256 ->
              Option.map
                (fun bound ->
                  ( Printf.sprintf "%s on figure1@256 under %g words/event"
                      scheduler bound,
                    column r "words_per_event" < bound ))
                (List.assoc_opt scheduler figure1_words_bounds)
            | _ -> None)
          rows
      @ load_independence rows)
    ~title:
      "E18: engine core throughput — typed events, timing wheel, fused \
       delivery"

(* Built on demand: a grid holds workload classes, which programs that
   never run an experiment should not pay for at start-up. *)
let specs () =
  List.map
    (fun spec -> spec ())
    [ fig1; fig1b; fig2; fig3; fig4; wan; failover; pds; overhead; prodcons;
      determinism; saturation; model; interference; shard; elastic; engine ]

let find name = List.find_opt (fun s -> s.name = name) (specs ())

(* ------------------------------------------------------------------ *)
(* The emitter                                                          *)

let fmt_metric v =
  if Float.is_nan v then "-"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f" v

let json_cell = function
  | Json.String s -> s
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%g" f
  | j -> Json.to_string j

(* Consecutive rows of one workload form a section. *)
let sections rows =
  List.fold_right
    (fun r acc ->
      match acc with
      | (x :: _ as section) :: rest
        when x.config.workload.wname = r.config.workload.wname ->
        (r :: section) :: rest
      | _ -> [ r ] :: acc)
    rows []

let outcome_cells r =
  let o = r.outcome in
  [ ("replies", Printf.sprintf "%d/%d" o.replies o.expected);
    ("mean_ms", Printf.sprintf "%.2f" o.mean_ms);
    ("p95_ms", Printf.sprintf "%.2f" o.p95_ms);
    ("req/s", Printf.sprintf "%.0f" o.throughput_per_s);
    ("consistent", string_of_bool o.consistent) ]

let tables spec rows =
  let sections = sections rows in
  List.map
    (fun rows ->
      let fields = List.map (fun r -> config_fields r.config) rows in
      let varies k =
        match List.map (List.assoc k) fields with
        | v :: vs -> List.exists (( <> ) v) vs
        | [] -> false
      in
      let varying =
        match List.filter varies (List.map fst (List.hd fields)) with
        | [] -> [ "scheduler" ]
        | keys -> keys
      in
      let title =
        match sections with
        | [ _ ] -> spec.title
        | _ -> spec.title ^ " — " ^ (List.hd rows).config.workload.wname
      in
      let t =
        Table.create ~title
          ~columns:(varying @ List.map fst (outcome_cells (List.hd rows))
                    @ spec.columns)
      in
      List.iter2
        (fun r f ->
          Table.add_row t
            (List.map (fun k -> json_cell (List.assoc k f)) varying
            @ List.map snd (outcome_cells r)
            @ List.map (fun m -> fmt_metric (column r m)) spec.columns))
        rows fields;
      t)
    sections

let finite v = if Float.is_finite v then Json.Float v else Json.Null

let row_json r =
  let o = r.outcome and k = r.cost in
  Json.Obj
    [ ("config", Json.Obj (config_fields r.config));
      ("outcome",
       Json.Obj
         [ ("expected", Json.Int o.expected);
           ("replies", Json.Int o.replies);
           ("mean_response_ms", finite o.mean_ms);
           ("p95_response_ms", finite o.p95_ms);
           ("throughput_per_s", Json.Float o.throughput_per_s);
           ("duration_ms", Json.Float o.duration_ms);
           ("consistent", Json.Bool o.consistent);
           ("fingerprint", Json.String (Printf.sprintf "%Lx" o.fingerprint));
           ("metrics",
            Json.Obj (List.map (fun (n, v) -> (n, finite v)) o.metrics)) ]);
      ("cost",
       Json.Obj
         ([ ("wall_ms", Json.Float k.wall_ms);
            ("minor_words", Json.Float k.minor_words);
            ("major_words", Json.Float k.major_words);
            ("series_points", Json.Int k.series_points);
            ("peak_pending", Json.Float k.peak_pending) ]
         @ List.map (fun (n, v) -> (n, finite v)) (host_rates r))) ]

(* schema_version history: v2 added the host-cost columns, v3 the engine
   suite's events_per_s / words_per_event, v4 is the uniform row: every
   BENCH file is {config, outcome, cost} rows plus the spec's claims; v5
   moves the host rates from the engine rows' outcome into every row's
   cost, so an outcome holds no host measurement. *)
let json spec rows =
  Json.Obj
    [ ("schema_version", Json.Int 5);
      ("experiment", Json.String spec.name);
      ("title", Json.String spec.title);
      ("claims",
       Json.List
         (List.map
            (fun (claim, holds) ->
              Json.Obj
                [ ("claim", Json.String claim); ("holds", Json.Bool holds) ])
            (spec.claims rows)));
      ("rows", Json.List (List.map row_json rows)) ]

let pp_row ppf r =
  let line (k, v) = Format.fprintf ppf "%-18s %s@." (k ^ ":") v in
  List.iter line
    (List.map (fun (k, v) -> (k, json_cell v)) (config_fields r.config)
    @ outcome_cells r
    @ [ ("makespan_ms", Printf.sprintf "%.1f" r.outcome.duration_ms);
        ("fingerprint", Printf.sprintf "%Lx" r.outcome.fingerprint) ]
    @ List.map (fun (k, v) -> (k, fmt_metric v)) r.outcome.metrics)
