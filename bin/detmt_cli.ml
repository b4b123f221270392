(* detmt-cli: command-line driver for the deterministic-multithreading
   experiments.

   [bench] runs any grid of the experiment registry (every figure of the
   paper and every derived experiment) and checks its claims; [run],
   [trace], [metrics], [profile] and [top] each observe one run, described
   by one [Experiment.config] that {!Cli_args.config} builds from the run
   flags, on the system [Experiment.system] builds from it; and [sched]
   lists the available decision modules.  All subcommands share the flag
   vocabulary of {!Cli_args}: [--scheduler], [--workload], [--seed],
   [--shards], [-o]. *)

open Cmdliner
module A = Cli_args

let render csv t =
  if csv then Detmt.Table.to_csv t else Format.asprintf "%a@." Detmt.Table.pp t

let emit csv t = print_string (render csv t)

(* ------------------------------ run --------------------------------- *)

let load_dml path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  match Detmt.Dml.parse src with
  | Ok cls -> cls
  | Error msg ->
    Format.eprintf "%s: %s@." path msg;
    exit 2

let histogram_flag =
  Arg.(value & flag
       & info [ "histogram" ]
           ~doc:"Also print a response-time histogram.")

let run_cmd =
  let run config histogram =
    (* the histogram reads the recorder's response-time family *)
    let obs =
      if histogram then Detmt.Recorder.create () else Detmt.Recorder.disabled
    in
    Detmt.Experiment.pp_row Format.std_formatter
      (Detmt.Experiment.run ~obs config);
    let m = Detmt.Recorder.metrics obs in
    match Detmt.Metrics.view m "active.response_ms" with
    | Some (Detmt.Metrics.Hist_view h) when histogram ->
      Format.printf "@.response-time histogram (ms):@.%a@." Detmt.Hdr.pp h;
      List.iter
        (fun (le, n) -> Format.printf "  <= %9.2f  %d@." le n)
        (Detmt.Hdr.cumulative h)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one scheduler and report.")
    Term.(const run $ A.config $ histogram_flag)

(* Machine-checkable registry listing: one row per decision module with its
   determinism and prediction flags.  CI greps this to assert the registry
   is complete. *)
let sched_cmd =
  let show () =
    Format.printf "%-9s %-13s %-10s %s@." "NAME" "DETERMINISTIC"
      "PREDICTION" "DESCRIPTION";
    List.iter
      (fun s ->
        Format.printf "%-9s %-13s %-10s %s@." s.Detmt.Registry.name
          (if s.Detmt.Registry.deterministic then "yes" else "no")
          (if s.Detmt.Registry.needs_prediction then "yes" else "no")
          s.Detmt.Registry.description)
      Detmt.Registry.all
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "List every registered scheduler with its determinism and \
          prediction flags.")
    Term.(const show $ const ())

let transform_cmd =
  let show workload file predictive =
    let cls =
      match file with
      | Some path -> load_dml path
      | None -> (Detmt.Experiment.workload workload).cls
    in
    let transformed =
      if predictive then fst (Detmt.Transform.predictive cls)
      else Detmt.Transform.basic cls
    in
    Format.printf "%a@." Detmt.Pretty.class_def transformed
  in
  let predictive_flag =
    Arg.(value & flag
         & info [ "predictive" ]
             ~doc:"Apply the predictive transformation (with lock \
                   announcements) instead of the basic one.")
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Print a workload class after the scheduler-call transformation.")
    Term.(const show $ A.workload $ A.file $ predictive_flag)

let analyse_cmd =
  let show workload file =
    let cls =
      match file with
      | Some path -> load_dml path
      | None -> (Detmt.Experiment.workload workload).cls
    in
    let _, summary = Detmt.Transform.predictive cls in
    Format.printf "prediction summary of %s:@."
      summary.Detmt.Predict.class_name;
    List.iter
      (fun (m : Detmt.Predict.method_summary) ->
        Format.printf "  %s:%s@." m.mname
          (if m.fallback then
             Printf.sprintf " FALLBACK (%s)"
               (Option.value ~default:"?" m.fallback_reason)
           else "");
        List.iter
          (fun (i : Detmt.Predict.sid_info) ->
            Format.printf "    sid %-3d %-18s %s%s@." i.sid
              (Format.asprintf "%a" Detmt.Pretty.sync_param i.param)
              (Detmt.Param_class.show i.classification)
              (match i.in_loops with
              | [] -> ""
              | l ->
                "  [in loops "
                ^ String.concat "," (List.map string_of_int l)
                ^ "]"))
          m.sids;
        List.iter
          (fun (l : Detmt.Predict.loop_info) ->
            Format.printf "    loop %-2d sids={%s} %s%s@." l.lid
              (String.concat "," (List.map string_of_int l.sids))
              (if l.changing then "changing" else "fixed")
              (if l.opaque then " (opaque call)" else ""))
          m.loops)
      summary.Detmt.Predict.methods;
    Detmt.Interference.pp_report Format.std_formatter
      (Detmt.Interference.analyse cls)
  in
  Cmd.v
    (Cmd.info "analyse"
       ~doc:
         "Print the static lock analysis of a workload: prediction summary \
          and interference report.")
    Term.(const show $ A.workload $ A.file)

(* ------------------------- flight recorder -------------------------- *)

let write_out out s =
  match out with
  | None -> print_string s
  | Some path ->
    let oc = open_out path in
    output_string oc s;
    close_out oc;
    Format.eprintf "wrote %s@." path

(* "<scheduler> on <workload>, C clients x R requests": the run every
   single-run title names. *)
let run_title what (c : Detmt.Experiment.config) =
  Printf.sprintf "%s: %s on %s, %d clients x %d requests" what c.scheduler
    c.workload.wname c.clients c.requests

let trace_format_arg =
  let doc =
    "Export format: breakdown (per-request latency table), chrome \
     (trace-event JSON for Perfetto / chrome://tracing), audit (scheduler \
     decision log), critical (dominant latency component per request, \
     aggregated overall / per shard / per epoch)."
  in
  Arg.(value & opt string "breakdown" & info [ "format" ] ~docv:"FMT" ~doc)

(* Every format [trace] accepts, in the order its usage text names them,
   with its renderer: the one list an unknown [--format] is told about. *)
let trace_formats =
  [ ( "breakdown",
      fun ~csv (c : Detmt.Experiment.config) obs ->
        let title = run_title "Per-request latency breakdown (ms)" c in
        render csv (Detmt.Recorder.breakdown_table ~title obs) );
    ("chrome", fun ~csv:_ _ obs -> Detmt.Chrome.to_string obs);
    ( "audit",
      fun ~csv:_ _ obs ->
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        List.iter
          (fun e -> Format.fprintf ppf "%a@." Detmt.Audit.pp_entry e)
          (Detmt.Recorder.audit_entries obs);
        Format.pp_print_flush ppf ();
        Buffer.contents buf );
    ( "critical",
      fun ~csv (c : Detmt.Experiment.config) obs ->
        let report = Detmt.Critical_path.analyse ~replicas:c.replicas obs in
        let title = run_title "Critical path" c in
        render csv (Detmt.Critical_path.table ~title report) ) ]

let trace_cmd =
  (* Determinism contract: the recorded run is the exact run [detmt-cli run]
     performs with the same flags — the recorder is read-only. *)
  let run (c : Detmt.Experiment.config) format csv out =
    match List.assoc_opt format trace_formats with
    | None ->
      Format.eprintf "unknown trace format %S (%s)@." format
        (String.concat ", " (List.map fst trace_formats));
      exit 2
    | Some export ->
      let obs = Detmt.Recorder.create () in
      ignore (Detmt.Experiment.run ~obs c);
      write_out out (export ~csv c obs)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one workload with the flight recorder on and export the \
          request spans: a per-request latency breakdown whose columns sum \
          to the measured response time, Chrome trace-event JSON, or the \
          scheduler decision audit log.")
    Term.(const run $ A.config $ trace_format_arg $ A.csv $ A.output)

(* Render the windowed time series as extra CSV-safe table rows: one row
   per track with the per-window headline values joined by commas — label
   cells containing commas exercise the CSV quoting path. *)
let series_table ~title ts =
  let t =
    Detmt.Table.create ~title
      ~columns:[ "series"; "kind"; "windows"; "peak"; "values" ]
  in
  List.iter
    (fun name ->
      match Detmt.Timeseries.kind ts name with
      | None -> ()
      | Some kind ->
        let wins = Detmt.Timeseries.windows ts name in
        Detmt.Table.add_row t
          [ name;
            (match kind with
            | Detmt.Timeseries.Rate -> "rate"
            | Detmt.Timeseries.Sample -> "sample");
            string_of_int (List.length wins);
            Printf.sprintf "%g" (Detmt.Timeseries.peak ts name);
            String.concat ","
              (List.map
                 (fun w ->
                   Printf.sprintf "%g" (Detmt.Timeseries.window_value kind w))
                 wins) ])
    (Detmt.Timeseries.names ts);
  t

let metrics_cmd =
  let run (c : Detmt.Experiment.config) csv json format series out =
    let obs = Detmt.Recorder.create () in
    ignore (Detmt.Experiment.run ~obs c);
    let m = Detmt.Recorder.metrics obs in
    match format with
    | "openmetrics" -> write_out out (Detmt.Openmetrics.export m)
    | "table" ->
      if json then
        write_out out (Detmt.Json.to_string (Detmt.Metrics.to_json m))
      else
        write_out out
          (render csv (Detmt.Metrics.to_table ~title:(run_title "Metrics" c) m)
          ^
          if series then
            render csv
              (series_table ~title:"Windowed series (virtual time)"
                 (Detmt.Recorder.timeseries obs))
          else "")
    | other ->
      Format.eprintf "unknown metrics format %S (table, openmetrics)@." other;
      exit 2
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry as JSON.")
  in
  let format_arg =
    Arg.(
      value
      & opt string "table"
      & info [ "f"; "format" ] ~docv:"FMT"
          ~doc:
            "Output format: table (default; honours $(b,--csv)/$(b,--json)) \
             or openmetrics (OpenMetrics text exposition).")
  in
  let series_flag =
    Arg.(
      value & flag
      & info [ "series" ]
          ~doc:
            "Also print the virtual-time-windowed series (one row per \
             track, per-window values).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one workload with the flight recorder on and print the \
          metrics registry: scheduler grants/deferrals/queue depths, Totem \
          broadcast/retransmit/dedup counters, replica request counters.  \
          $(b,-f openmetrics) emits the OpenMetrics text exposition; \
          $(b,--series) appends the windowed virtual-time series.")
    Term.(
      const run $ A.config $ A.csv $ json_flag $ format_arg $ series_flag
      $ A.output)

(* ----------------------------- profile ------------------------------ *)

(* Hot-path profile of one configuration: wall-clock phase timers
   (pop/dispatch/grant/flush), per-decision-module cost, and allocation
   accounting.  The baseline is the identical run with observability fully
   off; the profiled run uses [Recorder.profile_only], whose metric/span
   sites stay no-ops, so the overhead is the cost of the timers alone.
   [--check-overhead] gates on what the profiler adds deterministically
   (timed activations, minor words); the wall overhead is reported over the
   interleaved pairs and never gated, since host noise alone moves a 0.1 s
   run by tens of percent. *)
let profile_cmd =
  let run (c : Detmt.Experiment.config) repeats check_overhead json out =
    if repeats < 1 then begin
      Format.eprintf "profile: --repeats must be >= 1@.";
      exit 2
    end;
    let timed obs =
      Gc.compact ();
      let words0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      ignore (Detmt.Experiment.run ~obs c);
      let wall_s = Unix.gettimeofday () -. t0 in
      { Detmt.Profile.wall_s; minor_words = Gc.minor_words () -. words0 }
    in
    let p = Detmt.Profile.create () in
    (* Baseline and profiled runs alternate, so host drift over the repeats
       lands on both sides of a pair instead of reading as profiler cost. *)
    let pairs =
      List.init repeats (fun _ ->
          let baseline = timed Detmt.Recorder.disabled in
          Detmt.Profile.reset p;
          (baseline, timed (Detmt.Recorder.profile_only p)))
    in
    let o = Detmt.Profile.overhead p pairs in
    if json then
      write_out out
        (Detmt.Json.to_string
           (Detmt.Profile.report ~scheduler:c.scheduler
              ~workload:c.workload.wname ~workers:c.workers ~clients:c.clients
              ~requests:c.requests
              ~shards:(match c.system with Static n -> n | Autoscale _ -> 1)
              o p)
        ^ "\n")
    else begin
      emit false
        (Detmt.Profile.to_table ~title:(run_title "Hot-path profile" c) p);
      let a = Detmt.Profile.alloc p in
      Format.printf "allocation:    %.0f minor + %.0f major words (%.0f \
                     promoted)@."
        a.Detmt.Profile.minor_words a.major_words a.promoted_words;
      Format.printf "activations:   %d outermost, %d timed (%.3f%%)@."
        o.outermost o.timed o.timed_pct;
      Format.printf "minor words:   %.0f baseline, %.0f profiled (%+.2f%%)@."
        o.words_baseline o.words_profiled o.words_pct;
      Format.printf
        "wall overhead: %+.2f%% median, IQR %+.2f%% .. %+.2f%% over %d \
         interleaved pairs (not gated)@."
        o.wall_median_pct o.wall_q1_pct o.wall_q3_pct o.pairs
    end;
    match check_overhead with
    | None -> ()
    | Some bound_pct -> (
      match Detmt.Profile.violations o ~bound_pct with
      | [] -> ()
      | over ->
        List.iter
          (fun (what, pct) ->
            Format.eprintf "profiler %s %.2f%% exceeds the %.2f%% bound@."
              what pct bound_pct)
          over;
        exit 1)
  in
  let repeats_arg =
    Arg.(
      value & opt int 3
      & info [ "repeats" ] ~docv:"N"
          ~doc:"Interleaved baseline/profiled run pairs (default 3).")
  in
  let check_overhead_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "check-overhead" ] ~docv:"PCT"
          ~doc:
            "Exit non-zero when the profiler times more than PCT percent of \
             its activations, or its run allocates more than PCT percent \
             more minor words than the obs-off baseline (the CI gate). \
             Both are deterministic; the wall overhead is only reported.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the profile as JSON.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile the hot path of one run: wall-clock time per engine phase \
          (pop/dispatch/grant/flush), per-decision-module callback cost, \
          and allocation (Gc.quick_stat deltas) — plus the profiler's own \
          overhead against interleaved observability-off baseline runs.")
    Term.(
      const run $ A.config $ repeats_arg $ check_overhead_arg $ json_flag
      $ A.output)

(* ------------------------------- top --------------------------------- *)

let sparkline values =
  let levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                  "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                  "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  let peak = List.fold_left Stdlib.max 0.0 values in
  if peak <= 0.0 then String.concat "" (List.map (fun _ -> " ") values)
  else
    String.concat ""
      (List.map
         (fun v ->
           if v <= 0.0 then " "
           else
             let i = int_of_float (v /. peak *. 7.0) in
             levels.(Stdlib.max 0 (Stdlib.min 7 i)))
         values)

let default_top_tracks =
  [ "active.inflight"; "active.replies"; "active.response_ms";
    "engine.pending"; "totem.deliveries"; "totem.wire_batches";
    "reconfig.replies"; "reconfig.epoch";
    "reconfig.held_backlog" ]

(* Live terminal view of a run: the engine is driven one virtual-time
   window at a time ([Engine.run ~until] leaves the queue intact between
   frames), and each frame renders the recorder's windowed series, the
   queue depth and epoch events.  Stepping the engine in slices executes
   exactly the same events at the same virtual times as one uninterrupted
   run, so the displayed run is the run every other command reproduces. *)
let top_cmd =
  let run (c : Detmt.Experiment.config) frame_ms delay frames no_ansi tracks =
    if frame_ms <= 0.0 then begin
      Format.eprintf "top: --frame-ms must be positive@.";
      exit 2
    end;
    let engine = Detmt.Engine.create () in
    let obs = Detmt.Recorder.create ~width_ms:frame_ms () in
    let sys = Detmt.Experiment.system ~obs engine c in
    let submit = Detmt.Reconfig.submit sys in
    let replies () = Detmt.Reconfig.replies_received sys in
    ignore
      (Detmt.Client.start_clients ~engine ~submit ~clients:c.clients
         ~requests_per_client:c.requests ~gen:c.workload.gen ~seed:c.seed ());
    let expected = c.clients * c.requests in
    let ts = Detmt.Recorder.timeseries obs in
    let frame = ref 0 in
    let render () =
      if not no_ansi then print_string "\027[2J\027[H";
      Printf.printf "detmt top — %s on %s  vt=%.1f ms  frame %d\n"
        c.scheduler c.workload.wname (Detmt.Engine.now engine) !frame;
      Printf.printf
        "events=%d  queue=%d  replies=%d/%d\n\n"
        (Detmt.Engine.events_executed engine)
        (Detmt.Engine.pending engine) (replies ()) expected;
      let names = Detmt.Timeseries.names ts in
      let shown =
        match tracks with
        | [] -> List.filter (fun n -> List.mem n names) default_top_tracks
        | picks -> List.filter (fun n -> List.mem n names) picks
      in
      List.iter
        (fun name ->
          match Detmt.Timeseries.kind ts name with
          | None -> ()
          | Some kind ->
            let wins = Detmt.Timeseries.windows ts name in
            let values =
              List.map (Detmt.Timeseries.window_value kind) wins
            in
            let tail =
              let n = List.length values in
              if n > 48 then List.filteri (fun i _ -> i >= n - 48) values
              else values
            in
            Printf.printf "%-24s %8g |%s|\n" name
              (Detmt.Timeseries.peak ts name)
              (sparkline tail))
        shown;
      flush stdout
    in
    let rec loop until =
      if
        Detmt.Engine.pending engine > 0 && (frames = 0 || !frame < frames)
      then begin
        Detmt.Engine.run ~until engine;
        incr frame;
        render ();
        if delay > 0.0 then Unix.sleepf delay;
        loop (until +. frame_ms)
      end
    in
    loop frame_ms;
    Printf.printf
      "\nrun %s: %d/%d replies in %.1f virtual ms (%d events, %d frames)\n"
      (if replies () = expected then "complete" else "stopped")
      (replies ()) expected
      (Detmt.Engine.now engine)
      (Detmt.Engine.events_executed engine)
      !frame
  in
  let frame_ms_arg =
    Arg.(
      value & opt float 20.0
      & info [ "frame-ms" ] ~docv:"MS"
          ~doc:
            "Virtual milliseconds per frame (also the series window \
             width; default 20).")
  in
  let delay_arg =
    Arg.(
      value & opt float 0.0
      & info [ "delay" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock pause between frames for a live feel (default 0: \
             render as fast as the run executes).")
  in
  let frames_arg =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N"
          ~doc:"Stop after N frames (0 = run to completion).")
  in
  let no_ansi_flag =
    Arg.(
      value & flag
      & info [ "no-ansi" ]
          ~doc:
            "Print frames sequentially instead of redrawing the screen \
             (for logs and CI).")
  in
  let track_arg =
    Arg.(
      value & opt_all string []
      & info [ "track" ] ~docv:"NAME"
          ~doc:"Series track to display (repeatable; default: a curated \
                set of the tracks present).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live-refreshing terminal view of a run: windowed virtual-time \
          series, event-queue depth, reply progress and epoch events, one \
          frame per virtual-time window.  The sliced run executes exactly \
          the events of an uninterrupted one, so what you watch is the run \
          every other command reproduces.")
    Term.(
      const run $ A.config $ frame_ms_arg $ delay_arg $ frames_arg
      $ no_ansi_flag $ track_arg)

(* --------------------------- fingerprint ---------------------------- *)

(* Determinism oracle: run a fixed matrix of workloads x schedulers and
   print one line per combination with the per-replica trace and state
   fingerprints.  Two builds of the scheduler core are behaviourally
   identical exactly when this output is bit-identical — the refactoring
   contract of the two-module scheduler architecture. *)

let replica_fp r =
  Printf.sprintf "%d:%Lx/%Lx" (Detmt.Replica.id r)
    (Detmt.Trace.fingerprint (Detmt.Replica.trace r))
    (Detmt.Replica.state_fingerprint r)

let fingerprint_cmd =
  let run seed workers clients requests shards with_obs schedulers workloads
      =
    let schedulers =
      if schedulers <> [] then schedulers
      else Detmt.Registry.deterministic_decisions
    in
    let workloads =
      if workloads <> [] then workloads else [ "figure1"; "prodcons" ]
    in
    List.iter
      (fun workload ->
        let workload = Detmt.Experiment.workload workload in
        List.iter
          (fun scheduler ->
            (* seq deadlocks on prodcons (section 1); the stalled run still
               has a deterministic prefix, which is what we fingerprint. *)
            let engine = Detmt.Engine.create () in
            (* --obs turns the full telemetry stack on (metrics, windowed
               series, spans, profiler); the output must stay bit-identical
               — the read-only contract, diffable from CI. *)
            let obs =
              if with_obs then
                Detmt.Recorder.create ~profile:(Detmt.Profile.create ()) ()
              else Detmt.Recorder.disabled
            in
            let system =
              Detmt.Experiment.system ~obs engine
                { Detmt.Experiment.base with
                  workload; system = Static shards; scheduler; workers }
            in
            ignore
              (Detmt.Reconfig.run_clients_stats system ~clients
                 ~requests_per_client:requests ~gen:workload.gen
                 ~seed:(Int64.of_int seed) ());
            let replies = Detmt.Reconfig.replies_received system
            and fps =
              List.concat_map
                (fun g -> List.map replica_fp (Detmt.Active.live_replicas g))
                (Detmt.Reconfig.live_systems system)
            in
            Format.printf "%-13s %-9s replies=%-3d %s@." workload.wname
              scheduler replies (String.concat " " fps))
          schedulers)
      workloads
  in
  let schedulers_arg =
    A.schedulers_all
      ~doc:
        "Scheduler to fingerprint (repeatable; default: all deterministic \
         ones)."
  in
  let workloads_arg =
    A.workloads_all
      ~doc:
        "Workload to fingerprint (repeatable; default: figure1 and \
         prodcons)."
  in
  let shards_arg =
    A.shards ~default:1
      ~doc:"Fingerprint the multi-group system with this many groups."
  in
  let obs_flag =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Run with the full telemetry stack enabled (metrics, windowed \
             series, spans, hot-path profiler).  The output must be \
             bit-identical to a run without it — the recorder's read-only \
             contract.")
  in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:
         "Print the determinism oracle: per-replica trace and state \
          fingerprints for a fixed matrix of workloads and schedulers.  \
          Bit-identical output across two builds proves the scheduler \
          refactoring preserved every grant decision.")
    Term.(
      const run $ A.seed $ A.workers $ A.clients $ A.requests
      $ shards_arg $ obs_flag $ schedulers_arg $ workloads_arg)

(* ------------------------------ explore ------------------------------ *)

(* Bounded schedule-space model checking.  Two modes:
   - enumeration: split --budget across a scheduler x workload matrix and
     search the delivery-interleaving envelope for divergences; any found
     counterexample is ddmin-shrunk and (with -o) written as a replayable
     witness.  Exit 1 when a divergence survives.
   - --replay FILE: re-execute one checked-in schedule and report its
     verdict; --expect makes the exit code assert it (the CI hooks). *)

let explore_cmd =
  let run replay expect do_shrink budget max_depth max_width skews seed
      clients requests workers elastic schedulers workloads output =
    match replay with
    | Some path ->
      let sched =
        try Detmt.Schedule.load path
        with Failure msg ->
          Format.eprintf "%s@." msg;
          exit 2
      in
      let verdict, canonical, outcome =
        try Detmt.Explore.replay sched
        with Invalid_argument msg ->
          Format.eprintf "%s: %s@." path msg;
          exit 2
      in
      Format.printf "schedule:   %s (%d entries)@." path
        (Detmt.Schedule.size sched);
      Format.printf "scheduler:  %s  workload: %s  seed: %d@."
        sched.Detmt.Schedule.scheduler sched.Detmt.Schedule.workload
        sched.Detmt.Schedule.seed;
      let pp_run what (o : Detmt.Checked_run.outcome) =
        Format.printf "%-11s replies=%d/%d outstanding=%d order=%Lx@." what
          o.o_replies o.o_expected o.o_outstanding o.o_order_fp
      in
      pp_run "canonical:" canonical;
      pp_run "perturbed:" outcome;
      (match outcome.o_divergence with
      | Some d ->
        Format.printf "divergence: %a@." Detmt.Consistency.pp_divergence d
      | None -> ());
      Format.printf "verdict:    %s@."
        (Detmt.Explore.verdict_to_string verdict);
      let divergent =
        match verdict with Detmt.Explore.Divergent _ -> true | _ -> false
      in
      (match expect with
      | Some "divergent" when not divergent ->
        Format.printf "FAIL: expected a divergence, got none@.";
        exit 1
      | Some "clean" when divergent ->
        Format.printf "FAIL: expected a clean replay, got a divergence@.";
        exit 1
      | Some "divergent" | Some "clean" | None -> ()
      | Some other ->
        Format.printf "unknown --expect value %S (divergent|clean)@." other;
        exit 2)
    | None ->
      let schedulers =
        if schedulers <> [] then schedulers
        else Detmt.Registry.deterministic_decisions
      in
      let workloads =
        if workloads <> [] then workloads
        else if elastic then [ "hotspot" ]
        else [ "figure1"; "prodcons" ]
      in
      let combos =
        List.concat_map
          (fun w -> List.map (fun s -> (s, w)) schedulers)
          workloads
      in
      let per_combo = max 2 (budget / max 1 (List.length combos)) in
      let skews = if skews = [] then Detmt.Explore.default_skews else skews in
      let found = ref [] in
      List.iter
        (fun (scheduler, workload) ->
          let base =
            Detmt.Schedule.make ~seed ~clients ~requests ~workers ~elastic
              ~scheduler ~workload []
          in
          let result =
            Detmt.Explore.explore ~skews ?max_depth ?max_width
              ~budget:per_combo base
          in
          let st = result.Detmt.Explore.stats in
          Format.printf
            "%-13s %-9s explored=%-4d pruned=%-4d order-shifted=%-4d \
             depth<=%d %s@."
            workload scheduler st.Detmt.Explore.explored
            st.Detmt.Explore.pruned st.Detmt.Explore.order_shifted
            st.Detmt.Explore.max_frontier_depth
            (match result.Detmt.Explore.divergent with
            | [] -> "ok"
            | (_, reason) :: _ -> "DIVERGENT: " ^ reason);
          found := !found @ result.Detmt.Explore.divergent)
        combos;
      (match !found with
      | [] ->
        Format.printf
          "certified: no divergence in the explored envelope \
           (%d schedules/combination)@."
          per_combo
      | (sched, reason) :: _ ->
        Format.printf "@.divergence (%s), %d entries before shrinking@."
          reason (Detmt.Schedule.size sched);
        let final =
          if do_shrink then begin
            let minimal, probes, reproduced = Detmt.Explore.shrink sched in
            if reproduced then
              Format.printf "shrunk to %d entries in %d probes@."
                (Detmt.Schedule.size minimal) probes
            else Format.printf "shrink probe did not reproduce; keeping@.";
            minimal
          end
          else sched
        in
        (match output with
        | Some path ->
          Detmt.Schedule.save final path;
          Format.printf "witness written to %s@." path
        | None -> print_string (Detmt.Schedule.to_string final));
        exit 1)
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a schedule file instead of exploring.")
  in
  let expect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect" ] ~docv:"VERDICT"
          ~doc:
            "With $(b,--replay): exit non-zero unless the verdict matches \
             ($(b,divergent) or $(b,clean); order-shifted counts as clean).")
  in
  let shrink_arg =
    Arg.(
      value & opt bool true
      & info [ "shrink" ] ~docv:"BOOL"
          ~doc:"Delta-debug a found divergence to a minimal witness.")
  in
  let budget_arg =
    Arg.(
      value & opt int 2000
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Total number of schedules to run, split evenly across the \
             scheduler x workload matrix.")
  in
  let depth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"Maximum perturbation entries per schedule (default 2).")
  in
  let width_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-width" ] ~docv:"N"
          ~doc:"Maximum children pushed per search node (default 32).")
  in
  let skew_arg =
    Arg.(
      value & opt_all float []
      & info [ "skew" ] ~docv:"MS"
          ~doc:
            "Delivery-delay magnitude to try (repeatable; default the \
             jitter-scale envelope).  Large values reach failure-detection \
             and recovery races the default envelope deliberately avoids.")
  in
  let elastic_flag =
    Arg.(
      value & flag
      & info [ "elastic" ]
          ~doc:
            "Explore the elastic substrate: every schedule runs through a \
             live split/merge cycle (split at 6ms, merge at 20ms), the \
             oracles additionally check that each epoch transition applies \
             and agrees bit-identically across every incarnation, and \
             crash/recovery candidates land inside the reconfiguration \
             window.  Default workload: hotspot.")
  in
  let schedulers_arg =
    A.schedulers_all
      ~doc:
        "Scheduler to explore (repeatable; default: all deterministic ones)."
  in
  let workloads_arg =
    A.workloads_all
      ~doc:"Workload to explore (repeatable; default: figure1 and prodcons)."
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded model checking over admissible delivery interleavings: \
          enumerate latency skews, same-instant orderings and batch-flush \
          timings, check every schedule for replica divergence, and shrink \
          any counterexample to a minimal replayable witness.")
    Term.(
      const run $ replay_arg $ expect_arg $ shrink_arg $ budget_arg
      $ depth_arg $ width_arg $ skew_arg $ A.seed
      $ A.int_opt "clients" ~default:4 ~doc:"Closed-loop clients per run."
      $ A.int_opt "requests" ~default:5 ~doc:"Requests per client."
      $ A.workers $ elastic_flag $ schedulers_arg
      $ workloads_arg $ A.output)

(* ------------------------------ chaos ------------------------------- *)

let chaos_cmd =
  let all_scenarios = List.map (fun s -> s.Detmt.Chaos.name) Detmt.Chaos.scenarios in
  let scenario_arg =
    let doc =
      "Scenario to run (repeatable): " ^ String.concat ", " all_scenarios
      ^ ".  Default: all."
    in
    Arg.(value & opt_all string [] & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let chaos_scheduler_arg =
    A.schedulers_all
      ~doc:
        ("Scheduler to sweep (repeatable).  Default: "
        ^ String.concat ", " Detmt.Chaos.default_schedulers ^ ".")
  in
  let chaos_shards_arg =
    A.shards ~default:1
      ~doc:
        "Run the sweep over the sharded system with this many groups; every \
         invariant (exactly-once, divergence, recovery) is checked per \
         group and aggregated."
  in
  let quick_flag =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Smaller load (2 clients x 3 requests) for CI smoke runs.")
  in
  let forensics_flag =
    Arg.(value & flag
         & info [ "forensics" ]
             ~doc:
               "On a divergence, replay the failing combination with the \
                flight recorder on (determinism makes the replay \
                bit-identical) and dump the scheduler decision audit window \
                around the first divergent checkpoint.")
  in
  let forensics ~seed ~clients ~requests_per_client ~cls ~gen
      (o : Detmt.Chaos.outcome) (d : Detmt.Consistency.divergence) =
    match Detmt.Chaos.find_scenario o.Detmt.Chaos.o_scenario with
    | None -> ()
    | Some scenario ->
      let obs = Detmt.Recorder.create () in
      ignore
        (Detmt.Chaos.run ~seed ~shards:o.Detmt.Chaos.o_shards ~clients
           ~requests_per_client ~obs ~scenario
           ~scheduler:o.Detmt.Chaos.o_scheduler ~cls ~gen ());
      Format.printf
        "@.forensics: %s/%s first divergence at checkpoint seq %d \
         (replica %d hash %Lx vs replica %d hash %Lx)@."
        o.Detmt.Chaos.o_scenario o.Detmt.Chaos.o_scheduler d.seq d.replica_a
        d.hash_a d.replica_b d.hash_b;
      List.iter
        (fun (f, a, b) ->
          Format.printf "  field %-12s %d vs %d@." f a b)
        d.differing_fields;
      (match
         Detmt.Recorder.checkpoint_time obs ~replica:d.replica_a ~seq:d.seq
       with
      | None ->
        Format.printf
          "  (no checkpoint time recorded for replica %d seq %d)@."
          d.replica_a d.seq
      | Some at ->
        let margin = 5.0 in
        let window = Detmt.Recorder.audit_window obs ~around:at ~margin in
        Format.printf
          "  audit window %.2f ms around t=%.2f ms (%d of %d decisions):@."
          margin at (List.length window)
          (Detmt.Recorder.audit_count obs);
        List.iter
          (fun e -> Format.printf "  %a@." Detmt.Audit.pp_entry e)
          window)
  in
  let run csv seed shards workers scenario_names scheduler_names quick
      with_forensics workload =
    let { Detmt.Experiment.cls; gen; _ } = Detmt.Experiment.workload workload in
    let scenario_names =
      if scenario_names = [] then all_scenarios else scenario_names
    in
    let schedulers =
      if scheduler_names = [] then Detmt.Chaos.default_schedulers
      else scheduler_names
    in
    let clients, requests_per_client = if quick then (2, 3) else (4, 5) in
    let seed = Int64.of_int seed in
    let outcomes =
      Detmt.Chaos.sweep ~seed ~shards ~workers ~schedulers ~scenario_names
        ~clients ~requests_per_client ~cls ~gen ()
    in
    emit csv (Detmt.Chaos.table outcomes);
    if with_forensics then
      List.iter
        (fun o ->
          Option.iter
            (forensics ~seed ~clients ~requests_per_client ~cls ~gen o)
            o.Detmt.Chaos.o_run.o_divergence)
        outcomes;
    let failed = List.filter (fun o -> not (Detmt.Chaos.ok o)) outcomes in
    if failed <> [] then begin
      Format.eprintf "%d of %d combinations violated an invariant@."
        (List.length failed) (List.length outcomes);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep fault scenarios (lossy links, duplicates, partitions, \
          crash+recovery) across the deterministic schedulers and check the \
          robustness invariants; exits 1 on any violation.")
    Term.(
      const run $ A.csv $ A.seed $ chaos_shards_arg $ A.workers
      $ scenario_arg $ chaos_scheduler_arg $ quick_flag $ forensics_flag
      $ A.workload)

(* ------------------------------ shard ------------------------------- *)

let cross_arg =
  Arg.(
    value & opt float 0.1
    & info [ "cross" ] ~docv:"RATIO"
        ~doc:
          "Fraction of requests whose lock closure spans two objects (the \
           cross-shard two-phase path when they land on different shards).")

let batch_arg =
  Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"K"
        ~doc:
          "Coalesce up to K ordered requests per wire batch inside each \
           group (1 = batching off).")

let batch_delay_arg =
  Arg.(
    value & opt float 0.2
    & info [ "batch-delay" ] ~docv:"MS"
        ~doc:"Flush an under-filled batch after this many virtual ms.")

let shard_cmd =
  let run shards clients requests seed scheduler workers cross batch
      batch_delay =
    let sharded =
      { Detmt.Sharded.default with Detmt.Sharded.cross_ratio = cross }
    in
    let batching =
      if batch > 1 then
        Some { Detmt.Totem.max_batch = batch; delay_ms = batch_delay }
      else None
    in
    Detmt.Experiment.pp_row Format.std_formatter
      (Detmt.Experiment.run
         { Detmt.Experiment.base with
           workload =
             { wname = Printf.sprintf "sharded(cross=%g)" cross;
               cls = Detmt.Sharded.cls sharded;
               gen = Detmt.Sharded.gen sharded };
           system = Static shards; scheduler; workers; clients; requests;
           seed = Int64.of_int seed; batching })
  in
  let shards_arg =
    A.shards ~default:2
      ~doc:"Number of independent replica groups the object space is split \
            across."
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run the sharded workload once across N replica groups and report \
          routing, latency, throughput and the determinism fingerprint.")
    Term.(
      const run $ shards_arg $ A.clients $ A.requests $ A.seed
      $ A.scheduler $ A.workers $ cross_arg $ batch_arg
      $ batch_delay_arg)

(* ------------------------------ reshard ------------------------------ *)

(* One elastic run, end to end: split / (optional hot-swap) / merge at
   fixed virtual times — or the autoscaling controller — over the hotspot
   workload, then print the transition log and check every elastic
   invariant.  Exit 1 on any violation: the CI smoke hook. *)

let reshard_cmd =
  let run clients requests seed scheduler autoscale swap_to =
    let hotspot = Detmt.Experiment.elastic_bench_workload in
    let gen = Detmt.Hotspot.gen hotspot in
    let engine = Detmt.Engine.create () in
    let system =
      Detmt.Experiment.system engine
        { Detmt.Experiment.base with
          workload =
            { wname = "hotspot(drift=8)"; cls = Detmt.Hotspot.cls hotspot;
              gen };
          system =
            (if autoscale then Autoscale Detmt.Experiment.elastic_bench_policy
             else Static 1);
          scheduler }
    in
    if not autoscale then begin
      Detmt.Reconfig.request_at system ~at:6.0 (Detmt.Reconfig.Split 0);
      (match swap_to with
      | Some s ->
        Detmt.Reconfig.request_at system ~at:12.0
          (Detmt.Reconfig.Hot_swap { group = 0; scheduler = s })
      | None -> ());
      Detmt.Reconfig.request_at system ~at:20.0
        (Detmt.Reconfig.Merge { from_g = 1; into = 0 })
    end;
    ignore
      (Detmt.Reconfig.run_clients_stats system ~clients
         ~requests_per_client:requests ~gen ~seed:(Int64.of_int seed) ());
    let expected = clients * requests in
    let replies = Detmt.Reconfig.replies_received system in
    Format.printf "mode:         %s (%s)@."
      (if autoscale then "autoscale" else "split/merge cycle")
      scheduler;
    Format.printf "clients:      %d x %d requests@." clients requests;
    Format.printf "replies:      %d/%d (%d held behind barriers)@." replies
      expected
      (Detmt.Reconfig.held_requests system);
    List.iter
      (fun tr ->
        Format.printf
          "transition:   epoch %d at %.1fms (barrier seq %d) %s -> %d \
           groups@."
          tr.Detmt.Reconfig.tr_epoch tr.Detmt.Reconfig.tr_at_ms
          tr.Detmt.Reconfig.tr_barrier_seq
          (Detmt.Reconfig.command_to_string tr.Detmt.Reconfig.tr_command)
          tr.Detmt.Reconfig.tr_groups)
      (Detmt.Reconfig.transitions system);
    let states = Detmt.Reconfig.states_agree system in
    let epochs = Detmt.Reconfig.epochs_agree system in
    let dups = Detmt.Reconfig.duplicate_client_replies system in
    Format.printf "epoch:        %d (%d live groups)@."
      (Detmt.Reconfig.epoch system)
      (Detmt.Reconfig.group_count system);
    Format.printf "states agree: %b   epochs agree: %b   duplicates: %d@."
      states epochs dups;
    Format.printf "fingerprint:  %Lx@." (Detmt.Reconfig.fingerprint system);
    let expected_transitions = if autoscale then 1 else 2 in
    if
      replies <> expected || dups <> 0 || (not states) || (not epochs)
      || Detmt.Reconfig.epoch system < expected_transitions
    then begin
      Format.printf "FAIL: an elastic invariant was violated@.";
      exit 1
    end
  in
  let autoscale_flag =
    Arg.(
      value & flag
      & info [ "autoscale" ]
          ~doc:
            "Hand control to the deterministic autoscaling controller \
             instead of the fixed split/merge cycle.")
  in
  let swap_arg =
    Arg.(
      value
      & opt (some A.scheduler_name) None
      & info [ "swap-to" ] ~docv:"SCHEDULER"
          ~doc:
            "Also hot-swap group 0 to this scheduler at 12ms, between the \
             split and the merge (cycle mode only).")
  in
  Cmd.v
    (Cmd.info "reshard"
       ~doc:
         "Run one live reconfiguration cycle — split, optional scheduler \
          hot-swap, merge (or $(b,--autoscale)) — over the hotspot \
          workload, print the transition log, and verify every elastic \
          invariant: exactly-once replies, state and epoch agreement \
          across all incarnations.  Non-zero exit on any violation.")
    Term.(
      const run $ A.clients
      $ A.int_opt "requests" ~default:6 ~doc:"Requests per client."
      $ A.seed
      $ A.scheduler $ autoscale_flag $ swap_arg)

(* ------------------------------ bench ------------------------------- *)

let bench_cmd =
  let run name shards clients seed scheduler workers json csv out =
    let specs =
      match name with
      | "all" -> Detmt.Experiment.specs ()
      | "list" ->
        List.iter
          (fun (s : Detmt.Experiment.spec) ->
            Format.printf "%-13s %s@." s.name s.title)
          (Detmt.Experiment.specs ());
        []
      | name -> (
        match Detmt.Experiment.find name with
        | Some s -> [ s ]
        | None ->
          Format.eprintf "unknown experiment %S; try 'bench list'@." name;
          exit 2)
    in
    let violated = ref 0 in
    List.iter
      (fun (spec : Detmt.Experiment.spec) ->
        let grid =
          Detmt.Experiment.restrict ?clients ?shards ?scheduler ?workers
            ~seed:(Int64.of_int seed) spec.grid
        in
        let rows, text = spec.run grid in
        List.iter (emit csv) (Detmt.Experiment.tables spec rows);
        if not csv then print_string text;
        List.iter
          (fun (claim, holds) ->
            if not holds then incr violated;
            (if csv then Format.eprintf else Format.printf)
              "claim %-6s %s@." (if holds then "ok" else "FAILED") claim)
          (spec.claims rows);
        if json then
          write_out
            (Some
               (match out with
               | Some path when List.length specs = 1 -> path
               | _ -> Printf.sprintf "BENCH_%s.json" spec.name))
            (Detmt.Json.to_string (Detmt.Experiment.json spec rows) ^ "\n"))
      specs;
    if !violated > 0 then begin
      Format.eprintf "%d claim(s) violated@." !violated;
      exit 1
    end
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Experiment to run: a registry name (see $(b,bench list)), or \
             $(b,all).")
  in
  let opt_arg c name docv doc =
    Arg.(value & opt (some c) None & info [ name ] ~docv ~doc)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run an experiment grid, print its tables and check its claims \
          (non-zero exit on a violated one); with $(b,--json), write the \
          uniform rows to BENCH_<experiment>.json (or the $(b,-o) path).")
    Term.(
      const run $ name_arg
      $ opt_arg Arg.int "shards" "N"
          "Drop grid points with more than N groups."
      $ opt_arg Arg.int "clients" "N" "Run every grid point at N clients."
      $ A.seed
      $ opt_arg A.scheduler_name "scheduler" "NAME"
          "Run every grid point under this scheduler."
      $ opt_arg Arg.int "workers" "N" "Run every grid point at this pool width."
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Also write the rows as a BENCH JSON file.")
      $ A.csv $ A.output)

let default =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "detmt-cli" ~version:"1.0.0"
      ~doc:
        "Deterministic multithreading strategies for replicated objects — \
         experiment driver."
  in
  let cmds =
    [ run_cmd; bench_cmd; trace_cmd; metrics_cmd; profile_cmd; top_cmd;
      chaos_cmd; fingerprint_cmd; explore_cmd; shard_cmd; reshard_cmd;
      analyse_cmd; sched_cmd; transform_cmd ]
  in
  exit (Cmd.eval (Cmd.group ~default info cmds))
