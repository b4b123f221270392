(* detmt's benchmark.

     detmt_bench.exe --workload NAME --seed N --seconds S --trace 0|1
                     [--clients C --requests R --seeds K] [--pin HEX]

   With --trace 0 it times whole rounds with observability off and prints
   the end-to-end metrics; with --trace 1 it makes the traced rounds and
   prints the per-layer metrics.  A round runs the workload once per
   client seed the workload derives from N.  Rounds repeat until S seconds
   have passed; every run's outputs are checked, and every round must
   repeat the first one exactly.  The last line printed is one JSON object

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   where [attempted] counts the requests of every run and [failed] the
   requests of the rounds that failed a check.  The exit code is 1 when a
   check failed.  --clients/--requests/--seeds resize the workload (the
   self-test shrinks it); the pinned fingerprint then applies only when
   given with --pin. *)

open Detmt
module W = Workloads

let now = Unix.gettimeofday

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* ------------------------------------------------------------------ *)
(* Runs, rounds and their checks                                       *)

(* One set-up plus one run to completion.  [obs] and [on_engine] select the
   observability of the run; the wall time covers the clients' start up to
   the drained event queue.  The system itself is not kept. *)
type sample = {
  wall_s : float;
  minor_words : float;
  times : Summary.t;  (** client response times *)
  result : (W.outcome, string) result;
}

let one w ~seed ~obs ~on_engine =
  Gc.compact ();
  let inst = W.setup w ~obs ~on_engine in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let run =
    try Ok (W.run w inst ~seed) with e -> Error (Printexc.to_string e)
  in
  let t1 = now () in
  let m1 = Gc.minor_words () in
  { wall_s = t1 -. t0; minor_words = m1 -. m0;
    times = W.response_times inst;
    result = Result.map (fun () -> W.outcome w inst) run }

(* A round: [f seed] once per client seed of the round. *)
let round w ~seed f = List.map f (W.seeds w seed)

let outcomes samples =
  List.filter_map (fun s -> Result.to_option s.result) samples

let replies samples =
  float_of_int (List.fold_left (fun n o -> n + o.W.replies) 0 (outcomes samples))

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reference : W.outcome list option;
      (** the first round's outcomes: every later round must repeat them *)
}

let judge tally w ~pin samples =
  let expected = w.W.clients * w.W.requests * List.length samples in
  tally.attempted <- tally.attempted + expected;
  let os = outcomes samples in
  let errors =
    List.filter_map
      (fun s -> match s.result with Error m -> Some m | Ok _ -> None)
      samples
  in
  let pinned =
    match pin with
    | Some p when errors = [] && W.fingerprint os <> p ->
      [ Printf.sprintf "fingerprint %Lx, pinned %Lx" (W.fingerprint os) p ]
    | _ -> []
  in
  let repeat =
    match tally.reference with
    | None ->
      tally.reference <- Some os;
      []
    | Some r when r = os -> []
    | Some _ -> [ "outcome differs from the first round of this process" ]
  in
  let problems = errors @ List.concat_map W.failures os @ pinned @ repeat in
  if problems <> [] then begin
    tally.failed <- tally.failed + expected;
    List.iter (Printf.printf "check failed: %s: %s\n%!" w.W.name) problems
  end

(* Repeat [f] until [seconds] have passed since [start], at least [min]
   times; the results come back in run order. *)
let repeat ~start ~seconds ~min f =
  let rec go acc n =
    if n >= min && now () -. start >= seconds then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

let off = Recorder.disabled

let no_probe _ = ()

(* Rounds repeat identical deterministic work, so what differs between
   two runs of one client seed is host noise, and noise only ever adds
   time.  A run's cost is therefore estimated by the fastest of its
   repetitions: on a shared host that is far steadier than the median,
   which moves whenever a slow phase of the host covers half the run. *)
let fastest = List.fold_left Float.min Float.infinity

(* The fastest run of each client seed, summed over the round's seeds. *)
let fastest_round rounds =
  match rounds with
  | [] -> 0.0
  | r :: _ ->
    List.mapi
      (fun i _ -> fastest (List.map (fun r -> (List.nth r i).wall_s) rounds))
      r
    |> List.fold_left ( +. ) 0.0

(* Set-up steps take microseconds, so they are timed in batches: the mean
   of [batch] consecutive timings.  Batches are spread over the whole
   measuring time, [batches] at a time, and the fastest batch counts. *)
let batch = 40

let batches = 3

let batch_means f =
  List.init batches (fun _ ->
      let t = ref 0.0 in
      for _ = 1 to batch do
        t := !t +. f ()
      done;
      !t /. float_of_int batch)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (--trace 0)                                      *)

let end_to_end w ~seed ~seconds ~pin tally =
  let start = now () in
  let timed () =
    let samples =
      round w ~seed (fun seed -> one w ~seed ~obs:off ~on_engine:no_probe)
    in
    judge tally w ~pin samples;
    samples
  in
  (* The first round, in a fresh process, gives the peak heap; it also
     warms the process, so its wall time is not used. *)
  let first = timed () in
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let setups = ref [] in
  let rounds =
    repeat ~start ~seconds ~min:3 (fun () ->
        let r = timed () in
        setups :=
          batch_means (fun () ->
              (W.setup w ~obs:off ~on_engine:no_probe).W.setup_s)
          @ !setups;
        r)
  in
  let times =
    List.fold_left
      (fun acc s -> Summary.merge acc s.times)
      (Summary.create ()) first
  in
  let makespan = sumf (fun o -> o.W.makespan_ms) (outcomes first) in
  [ ("setup_s", "s", fastest !setups);
    ("wall_s", "s", fastest_round rounds);
    ("minor_words_per_request", "words",
     median
       (List.map
          (fun r -> ratio (sumf (fun s -> s.minor_words) r) (replies r))
          rounds));
    ("peak_heap_mb", "MB",
     float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.0);
    ("vt_mean_response_ms", "ms", Summary.mean times);
    ("vt_p50_response_ms", "ms", Summary.median times);
    ("vt_p95_response_ms", "ms", Summary.quantile times 0.95);
    ("vt_throughput_per_s", "1/s", ratio (1000.0 *. replies first) makespan)
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (--trace 1)                                       *)

(* The benchmark's own engine probe: every pop and every callback is
   timed, so the two sums cover the run's wall time with nothing
   sampled.  An all-float record keeps the updates allocation-free. *)
type clocks = {
  mutable pop_s : float;
  mutable fire_s : float;
  mutable t0 : float;
}

let probe_on clocks peak engine =
  Engine.set_probe engine
    (Some
       { Engine.pop_begin =
           (fun () ->
             let p = Engine.pending engine in
             if p > !peak then peak := p;
             clocks.t0 <- now ());
         pop_end =
           (fun () -> clocks.pop_s <- clocks.pop_s +. (now () -. clocks.t0));
         fire_begin = (fun () -> clocks.t0 <- now ());
         fire_end =
           (fun () -> clocks.fire_s <- clocks.fire_s +. (now () -. clocks.t0))
       })

(* The columns of [Recorder.breakdowns] the benchmark reports: the gcs
   layer's broadcast and reply_net, the sched layer's sched_start and
   policy_wait, and the runtime's lock_wait, nested_idle, commit_hold and
   exec. *)
let breakdown_columns =
  [ ("client_queue", fun (b : Recorder.breakdown) -> b.client_queue);
    ("broadcast", fun b -> b.broadcast);
    ("reply_net", fun b -> b.reply_net);
    ("sched_start", fun b -> b.sched_start);
    ("policy_wait", fun b -> b.policy_wait);
    ("lock_wait", fun b -> b.lock_wait);
    ("nested_idle", fun b -> b.nested_idle);
    ("commit_hold", fun b -> b.commit_hold);
    ("exec", fun b -> b.exec) ]

let message_kinds =
  [ "request"; "nested-reply"; "control"; "barrier"; "pds-dummy" ]

(* What the benchmark reads from one run's full recorder: the counters
   below, where [sched.<suffix>] sums every scheduler's
   [sched.<name>.<suffix>], and the per-request latency breakdowns.  It is
   read right after its run, so only one recorder is alive at a time. *)
let counter_names =
  [ "sched.grants"; "sched.deferrals"; "replica.requests_delivered";
    "replica.requests_completed"; "replica.ws.commits";
    "replica.ws.aborts_stale"; "replica.ws.aborts_unsafe";
    "replica.pool.dispatches"; "totem.broadcasts"; "totem.deliveries";
    "totem.transmissions"; "totem.wire_batches" ]
  @ List.map (fun k -> "totem.msg." ^ k) message_kinds

type reading = {
  counts : (string * float) list;
  breakdowns : Recorder.breakdown list;
}

let read obs =
  let m = Recorder.metrics obs in
  let value name =
    match String.split_on_char '.' name with
    | [ "sched"; suffix ] ->
      List.fold_left
        (fun acc n ->
          if String.starts_with ~prefix:"sched." n
             && String.ends_with ~suffix:("." ^ suffix) n
          then acc + Metrics.counter_value m n
          else acc)
        0 (Metrics.names m)
    | _ -> Metrics.counter_value m name
  in
  { counts = List.map (fun n -> (n, float_of_int (value n))) counter_names;
    breakdowns = Recorder.breakdowns obs }

(* The recorder-based metrics of a round, and its grant count. *)
let recorder_layers readings ~replies =
  let c name = sumf (fun r -> List.assoc name r.counts) readings in
  let commits = c "replica.ws.commits"
  and stale = c "replica.ws.aborts_stale"
  and unsafe = c "replica.ws.aborts_unsafe" in
  let breakdowns = List.concat_map (fun r -> r.breakdowns) readings in
  let vt =
    List.concat_map
      (fun (col, f) ->
        let s = Summary.create () in
        List.iter (fun b -> Summary.add s (f b)) breakdowns;
        let q p = if Summary.count s = 0 then 0.0 else Summary.quantile s p in
        [ (Printf.sprintf "vt.%s_ms.p50" col, "ms", q 0.5);
          (Printf.sprintf "vt.%s_ms.p95" col, "ms", q 0.95) ])
      breakdown_columns
  in
  ( c "sched.grants",
    [ ("sched.grants", "count", c "sched.grants");
      ("sched.deferrals", "count", c "sched.deferrals");
      ("runtime.requests_delivered", "count", c "replica.requests_delivered");
      ("runtime.requests_completed", "count", c "replica.requests_completed");
      ("runtime.ws_commits", "count", commits);
      ("runtime.ws_aborts_stale", "count", stale);
      ("runtime.ws_aborts_unsafe", "count", unsafe);
      ("runtime.ws_commit_ratio", "ratio",
       ratio commits (commits +. stale +. unsafe));
      ("runtime.pool_dispatches", "count", c "replica.pool.dispatches");
      ("gcs.broadcasts_per_request", "count",
       ratio (c "totem.broadcasts") replies);
      ("gcs.deliveries", "count", c "totem.deliveries");
      ("gcs.transmissions", "count", c "totem.transmissions");
      ("gcs.wire_batches", "count", c "totem.wire_batches") ]
    @ List.map
        (fun k -> ("gcs.msg." ^ k, "count", c ("totem.msg." ^ k)))
        message_kinds
    @ vt )

(* One traced cycle: an untraced round, a round under the benchmark's
   probe (with the profiler's decision taps, whose probe it replaces), a
   round with the profiler alone and a round with the full recorder. *)
type cycle = {
  untraced : sample list;
  probed : sample list;
  profiled : sample list;
  recorded : sample list;
  clocks : clocks;
  peak_pending : int;
  decide_calls : int;
  decide_s : float;
}

let cycle ?(read_recorders = false) w ~seed ~pin tally =
  let checked samples =
    judge tally w ~pin samples;
    samples
  in
  let untraced =
    checked
      (round w ~seed (fun seed -> one w ~seed ~obs:off ~on_engine:no_probe))
  in
  let clocks = { pop_s = 0.0; fire_s = 0.0; t0 = 0.0 } and peak = ref 0 in
  let profiles = ref [] in
  let probed =
    checked
      (round w ~seed (fun seed ->
           let p = Profile.create () in
           profiles := p :: !profiles;
           one w ~seed ~obs:(Recorder.profile_only p)
             ~on_engine:(probe_on clocks peak)))
  in
  let decisions = List.concat_map Profile.decision_rows !profiles in
  let profiled =
    checked
      (round w ~seed (fun seed ->
           one w ~seed
             ~obs:(Recorder.profile_only (Profile.create ()))
             ~on_engine:no_probe))
  in
  let readings = ref [] in
  let recorded =
    checked
      (round w ~seed (fun seed ->
           let obs = Recorder.create () in
           let s = one w ~seed ~obs ~on_engine:no_probe in
           if read_recorders then readings := read obs :: !readings;
           s))
  in
  ( { untraced; probed; profiled; recorded; clocks; peak_pending = !peak;
      decide_calls =
        List.fold_left (fun n r -> n + r.Profile.d_calls) 0 decisions;
      decide_s = sumf (fun r -> r.Profile.d_seconds) decisions },
    List.rev !readings )

let per_layer w ~seed ~seconds ~pin tally =
  let start = now () in
  (* A first, untimed round warms the process. *)
  judge tally w ~pin
    (round w ~seed (fun seed -> one w ~seed ~obs:off ~on_engine:no_probe));
  (* Only the first cycle's recorders are read: their counts are exact. *)
  let first, readings = cycle ~read_recorders:true w ~seed ~pin tally in
  let replies = replies first.untraced in
  let grants, recorder_metrics = recorder_layers readings ~replies in
  let cycles =
    first
    :: repeat ~start ~seconds ~min:0 (fun () -> fst (cycle w ~seed ~pin tally))
  in
  let med f = median (List.map f cycles) in
  let wall f = med (fun c -> sumf (fun s -> s.wall_s) (f c)) in
  let wall_off = wall (fun c -> c.untraced) in
  let wall_traced = wall (fun c -> c.probed) in
  let pop_s = med (fun c -> c.clocks.pop_s) in
  let fire_s = med (fun c -> c.clocks.fire_s) in
  let decide_s = med (fun c -> c.decide_s) in
  let decide_calls = float_of_int first.decide_calls in
  let os = outcomes first.untraced in
  let events = float_of_int (List.fold_left (fun n o -> n + o.W.events) 0 os) in
  let counti f = float_of_int (List.fold_left (fun n o -> n + f o) 0 os) in
  let words f = med (fun c -> sumf (fun s -> s.minor_words) (f c)) in
  let cls, _ = w.W.build () in
  let transform () =
    let t0 = now () in
    if W.needs_prediction w then ignore (Transform.predictive cls)
    else ignore (Transform.basic cls);
    now () -. t0
  in
  if decide_s > fire_s then
    Printf.printf
      "flag: %s: sampled sched.decide_s %.3f s exceeds sim.fire_s %.3f s\n"
      w.W.name decide_s fire_s;
  [ ("sim.events", "count", events);
    ("sim.events_per_request", "count", ratio events replies);
    ("sim.peak_pending", "count", float_of_int first.peak_pending);
    ("sim.pop_s", "s", pop_s);
    ("sim.fire_s", "s", fire_s);
    ("sched.decide_calls", "count", decide_calls);
    ("sched.decide_s", "s", decide_s);
    ("sched.decide_us_per_call", "us", 1e6 *. ratio decide_s decide_calls);
    ("sched.decide_share", "ratio", ratio decide_s fire_s);
    ("sched.calls_per_grant", "ratio", ratio decide_calls grants);
    ("runtime.dispatch_other_s", "s", fire_s -. decide_s) ]
  @ recorder_metrics
  @ [ ("replication.fast_path", "count", counti (fun o -> o.W.fast_path));
      ("replication.cross_path", "count", counti (fun o -> o.W.cross_path));
      ("replication.held", "count", counti (fun o -> o.W.held));
      ("replication.splits", "count", counti (fun o -> o.W.splits));
      ("replication.groups_final", "count",
       median (List.map (fun o -> float_of_int o.W.groups_final) os));
      ("replication.duplicate_replies", "count",
       counti (fun o -> o.W.duplicates));
      ("replication.create_s", "s",
       fastest
         (batch_means (fun () ->
              (W.setup w ~obs:off ~on_engine:no_probe).W.create_s)));
      ("transform.class_s", "s", fastest (batch_means transform));
      ("obs.recorder_overhead", "ratio",
       ratio (wall (fun c -> c.recorded)) wall_off);
      ("obs.recorder_words_per_request", "words",
       ratio (words (fun c -> c.recorded) -. words (fun c -> c.untraced)) replies);
      ("obs.profile_overhead", "ratio",
       ratio (wall (fun c -> c.profiled)) wall_off);
      ("trace.coverage", "ratio", ratio (pop_s +. fire_s) wall_traced);
      ("trace.overhead", "ratio", ratio wall_traced wall_off);
      ("trace.wall_s", "s", wall_traced);
      ("trace.untraced_wall_s", "s", wall_off) ]

(* ------------------------------------------------------------------ *)
(* Command line and report                                             *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let report ~correct tally metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed (String.concat ", " body)

let () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10.0 in
  let trace = ref 0 and clients = ref 0 and requests = ref 0 in
  let seeds = ref 0 in
  let pin = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME  " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
      ("--seed", Arg.Set_int seed, "N  client seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  how long to repeat rounds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
      ("--clients", Arg.Set_int clients, "C  override the client count");
      ("--requests", Arg.Set_int requests, "R  override requests per client");
      ("--seeds", Arg.Set_int seeds, "K  override client seeds per round");
      ("--pin", Arg.Set_string pin, "HEX  fingerprint the rounds must repeat")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "detmt_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let resized = !clients > 0 || !requests > 0 || !seeds > 0 in
  let pick n default = if n > 0 then n else default in
  let w =
    { w with
      W.clients = pick !clients w.W.clients;
      requests = pick !requests w.W.requests;
      seeds = pick !seeds w.W.seeds }
  in
  let pin =
    if !pin <> "" then Some (Int64.of_string ("0x" ^ !pin))
    else if (not resized) && !seed = W.default_seed then Some w.W.pinned
    else None
  in
  let tally = { attempted = 0; failed = 0; reference = None } in
  let measure = if !trace = 0 then end_to_end else per_layer in
  let metrics = measure w ~seed:!seed ~seconds:!seconds ~pin tally in
  Option.iter
    (fun os -> Printf.printf "fingerprint %s %Lx\n" w.W.name (W.fingerprint os))
    tally.reference;
  let correct = tally.failed = 0 in
  report ~correct tally metrics;
  exit (if correct then 0 else 1)
