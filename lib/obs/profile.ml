(* Hot-path profiler: wall-clock phase timers, per-decision-module cost
   counters and allocation accounting.

   The profiler measures where *real* time goes while the simulation runs —
   pop (priority-queue selection), dispatch (event callback execution),
   grant (a scheduler decision being performed against the replica) and
   flush (Totem batch transmission).  It reads [Unix.gettimeofday] and
   [Gc.quick_stat] only; it never touches the virtual clock, so runs with
   the profiler attached stay bit-identical to runs without (enforced by
   test_obs).  Phases nest (a grant happens inside a dispatch, and a grant
   can cascade into further grants); each phase times its outermost
   activation only, so a phase's seconds never double-count its own
   re-entries — but dispatch deliberately *includes* the grant and flush
   time spent inside event callbacks.

   Decision-module taps count every scheduler callback and time the
   outermost one, keyed by the module's registry name, giving a per-module
   decision-cost profile across a heterogeneous (hot-swapped) run. *)

type phase =
  | Pop
  | Dispatch
  | Grant
  | Flush

let phase_name = function
  | Pop -> "pop"
  | Dispatch -> "dispatch"
  | Grant -> "grant"
  | Flush -> "flush"

let phase_index = function Pop -> 0 | Dispatch -> 1 | Grant -> 2 | Flush -> 3

let phases = [ Pop; Dispatch; Grant; Flush ]

(* Timestamps are the profiler's whole cost: two [Unix.gettimeofday] per
   timed activation, across hundreds of thousands of pops/dispatches/
   decisions per run, is a ~25% slowdown.  So every call is *counted*
   exactly, but only one outermost activation in [1 lsl sample_shift] is
   *timed*; reported seconds scale the measured sample back up by the
   activation count.  Phase costs are homogeneous enough (the same code
   path over and over) that the estimate converges fast, and the stride is
   deterministic, so profiled runs stay reproducible. *)
let sample_shift = 10

let sample_mask = (1 lsl sample_shift) - 1

type cell = {
  mutable calls : int; (* every call, nested ones included *)
  mutable outer : int; (* outermost activations *)
  mutable sampled : int; (* outermost activations actually timed *)
  mutable seconds : float; (* measured over [sampled] activations *)
  mutable t0 : float;
  mutable depth : int;
  mutable timing : bool; (* this outermost activation is being timed *)
}

let fresh_cell () =
  { calls = 0; outer = 0; sampled = 0; seconds = 0.0; t0 = 0.0; depth = 0;
    timing = false }

type t = {
  cells : cell array; (* indexed by phase_index *)
  decisions : (string, cell) Hashtbl.t;
  mutable gc0 : Gc.stat;
  mutable minor0 : float;
  mutable wall0 : float;
}

(* [Gc.quick_stat] omits the words sitting in the current minor heap (it
   reads the counters, not the allocation pointer), so a short run that
   never triggers a minor collection would report zero; [Gc.minor_words]
   reads the pointer and is exact. *)
let create () =
  { cells = Array.init 4 (fun _ -> fresh_cell ());
    decisions = Hashtbl.create 8; gc0 = Gc.quick_stat ();
    minor0 = Gc.minor_words (); wall0 = Unix.gettimeofday () }

let reset t =
  Array.iter
    (fun c ->
      c.calls <- 0;
      c.outer <- 0;
      c.sampled <- 0;
      c.seconds <- 0.0;
      c.depth <- 0;
      c.timing <- false)
    t.cells;
  Hashtbl.reset t.decisions;
  t.gc0 <- Gc.quick_stat ();
  t.minor0 <- Gc.minor_words ();
  t.wall0 <- Unix.gettimeofday ()

let cell_begin c =
  c.calls <- c.calls + 1;
  c.depth <- c.depth + 1;
  if c.depth = 1 then begin
    c.outer <- c.outer + 1;
    if (c.outer - 1) land sample_mask = 0 then begin
      c.timing <- true;
      c.t0 <- Unix.gettimeofday ()
    end
  end

let cell_end c =
  if c.depth > 0 then begin
    c.depth <- c.depth - 1;
    if c.depth = 0 && c.timing then begin
      c.seconds <- c.seconds +. Unix.gettimeofday () -. c.t0;
      c.sampled <- c.sampled + 1;
      c.timing <- false
    end
  end

(* Measured seconds scaled from the timed sample to every activation. *)
let cell_seconds c =
  if c.sampled = 0 then 0.0
  else c.seconds *. float_of_int c.outer /. float_of_int c.sampled

let phase_begin t p = cell_begin t.cells.(phase_index p)

let phase_end t p = cell_end t.cells.(phase_index p)

let decision_cell t name =
  match Hashtbl.find_opt t.decisions name with
  | Some c -> c
  | None ->
    let c = fresh_cell () in
    Hashtbl.add t.decisions name c;
    c

(* A resolved decision cell: callers on the per-callback hot path hoist the
   string-keyed lookup to wrapper-construction time. *)
type handle = cell

let decision_handle t name = decision_cell t name

let handle_begin = cell_begin

let handle_end = cell_end

(* Install engine probes so pop/dispatch are timed without the engine ever
   depending on the observability layer. *)
let attach_engine t engine =
  let pop = t.cells.(phase_index Pop)
  and fire = t.cells.(phase_index Dispatch) in
  Detmt_sim.Engine.set_probe engine
    (Some
       { Detmt_sim.Engine.pop_begin = (fun () -> cell_begin pop);
         pop_end = (fun () -> cell_end pop);
         fire_begin = (fun () -> cell_begin fire);
         fire_end = (fun () -> cell_end fire) })

(* -------------------------------- reports ---------------------------- *)

type phase_row = {
  p_phase : string;
  p_calls : int;
  p_seconds : float;
}

let phase_rows t =
  List.map
    (fun p ->
      let c = t.cells.(phase_index p) in
      { p_phase = phase_name p; p_calls = c.calls;
        p_seconds = cell_seconds c })
    phases

type decision_row = {
  d_module : string;
  d_calls : int;
  d_seconds : float;
}

let decision_rows t =
  Hashtbl.fold
    (fun name c acc ->
      { d_module = name; d_calls = c.calls; d_seconds = cell_seconds c }
      :: acc)
    t.decisions []
  |> List.sort (fun a b -> String.compare a.d_module b.d_module)

type alloc = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

let alloc t =
  let g = Gc.quick_stat () in
  { minor_words = Gc.minor_words () -. t.minor0;
    major_words = g.Gc.major_words -. t.gc0.Gc.major_words;
    promoted_words = g.Gc.promoted_words -. t.gc0.Gc.promoted_words }

let wall_seconds t = Unix.gettimeofday () -. t.wall0

let to_table ?(title = "hot-path profile") t =
  let table =
    Detmt_stats.Table.create ~title
      ~columns:[ "phase"; "calls"; "seconds"; "us/call" ]
  in
  let row name calls seconds =
    Detmt_stats.Table.add_row table
      [ name; string_of_int calls; Printf.sprintf "%.6f" seconds;
        (if calls = 0 then "-"
         else Printf.sprintf "%.3f" (seconds *. 1e6 /. float_of_int calls)) ]
  in
  List.iter (fun r -> row r.p_phase r.p_calls r.p_seconds) (phase_rows t);
  List.iter
    (fun r -> row ("decide:" ^ r.d_module) r.d_calls r.d_seconds)
    (decision_rows t);
  table

let to_json t =
  let a = alloc t in
  Json.Obj
    [ ( "phases",
        Json.Obj
          (List.map
             (fun r ->
               ( r.p_phase,
                 Json.Obj
                   [ ("calls", Json.Int r.p_calls);
                     ("seconds", Json.Float r.p_seconds) ] ))
             (phase_rows t)) );
      ( "decisions",
        Json.Obj
          (List.map
             (fun r ->
               ( r.d_module,
                 Json.Obj
                   [ ("calls", Json.Int r.d_calls);
                     ("seconds", Json.Float r.d_seconds) ] ))
             (decision_rows t)) );
      ( "alloc",
        Json.Obj
          [ ("minor_words", Json.Float a.minor_words);
            ("major_words", Json.Float a.major_words);
            ("promoted_words", Json.Float a.promoted_words) ] );
      ("wall_seconds", Json.Float (wall_seconds t)) ]

let overhead_pct ~baseline ~profiled =
  if baseline <= 0.0 then 0.0 else (profiled -. baseline) /. baseline *. 100.0

let report ~scheduler ~workload ~workers ~clients ~requests ~shards ~repeats
    ~wall_baseline ~wall_profiled t =
  Json.Obj
    [ ("scheduler", Json.String scheduler);
      ("workload", Json.String workload);
      ("workers", Json.Int workers);
      ("clients", Json.Int clients);
      ("requests", Json.Int requests);
      ("shards", Json.Int shards);
      ("repeats", Json.Int repeats);
      ("profile", to_json t);
      ("wall_baseline_s", Json.Float wall_baseline);
      ("wall_profiled_s", Json.Float wall_profiled);
      ( "overhead_pct",
        Json.Float
          (overhead_pct ~baseline:wall_baseline ~profiled:wall_profiled) ) ]
