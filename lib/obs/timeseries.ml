(* Virtual-time-windowed time series (the "Obs.Series" store).

   Every counter increment and gauge/histogram sample that flows through an
   enabled recorder is additionally folded into fixed-width windows keyed to
   the *virtual* clock — wall time never appears, so recording is
   deterministic and bit-invisible to the simulation.  Each named track
   keeps a bounded ring of the most recent windows (oldest fall off), so
   retention is O(tracks * retain) regardless of run length.

   Two track kinds:
   - [Rate] tracks (from counters): the window value is the sum of
     increments that landed in the window — a per-window rate.
   - [Sample] tracks (from gauges and histogram observations): the window
     keeps n/sum/min/max/last of the samples that landed in it.

   A window-roll hook fires whenever the head window advances; the recorder
   uses it to snapshot passive gauges (engine queue depth) exactly once per
   window without scheduling any simulation event. *)

type kind =
  | Rate
  | Sample

type agg = {
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  mutable last : float;
}

type window = {
  w_start : float; (* virtual ms of the window's left edge *)
  w_n : int;
  w_sum : float;
  w_min : float;
  w_max : float;
  w_last : float;
}

type track = {
  t_kind : kind;
  mutable wins : (int * agg) list; (* newest first *)
  mutable len : int;
}

type t = {
  width : float; (* window width, virtual ms *)
  retain : int; (* max windows kept per track *)
  tracks : (string, track) Hashtbl.t;
  mutable cur : int; (* highest window index seen, -1 before any *)
  mutable on_roll : (at:float -> unit) option;
  mutable rolling : bool; (* re-entrancy guard for the roll hook *)
}

let create ?(width_ms = 10.0) ?(retain = 256) () =
  if width_ms <= 0.0 then invalid_arg "Timeseries.create: width_ms <= 0";
  if retain < 1 then invalid_arg "Timeseries.create: retain < 1";
  { width = width_ms; retain; tracks = Hashtbl.create 32; cur = -1;
    on_roll = None; rolling = false }

let set_on_roll t f = t.on_roll <- f

let index_of t at = int_of_float (Float.floor (at /. t.width))

let fresh_agg () = { n = 0; sum = 0.0; vmin = infinity; vmax = neg_infinity;
                     last = 0.0 }

let fold_into a v =
  a.n <- a.n + 1;
  a.sum <- a.sum +. v;
  if v < a.vmin then a.vmin <- v;
  if v > a.vmax then a.vmax <- v;
  a.last <- v

let truncate track retain =
  if track.len > retain then begin
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | w :: rest -> w :: take (n - 1) rest
    in
    track.wins <- take retain track.wins;
    track.len <- retain
  end

(* The agg for window [idx] of [track], allocating a new head window when
   the clock moved past the current one.  Out-of-order samples (older than
   the head) fold into their window if still retained, else are dropped. *)
let agg_for t track idx =
  match track.wins with
  | (i, a) :: _ when i = idx -> Some a
  | (i, _) :: _ when idx < i ->
    List.assoc_opt idx track.wins
  | _ ->
    let a = fresh_agg () in
    track.wins <- (idx, a) :: track.wins;
    track.len <- track.len + 1;
    truncate track t.retain;
    Some a

let find_or_add t name kind =
  match Hashtbl.find_opt t.tracks name with
  | Some tr -> tr
  | None ->
    let tr = { t_kind = kind; wins = []; len = 0 } in
    Hashtbl.add t.tracks name tr;
    tr

let roll t ~at idx =
  if idx > t.cur then begin
    t.cur <- idx;
    match t.on_roll with
    | Some f when not t.rolling ->
      t.rolling <- true;
      f ~at;
      t.rolling <- false
    | _ -> ()
  end

let record t name kind ~at ~value =
  let idx = index_of t at in
  roll t ~at idx;
  let track = find_or_add t name kind in
  match agg_for t track idx with
  | Some a -> fold_into a value
  | None -> ()

let bump t ~name ~at ~by = record t name Rate ~at ~value:by

let sample t ~name ~at ~value = record t name Sample ~at ~value

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tracks []
  |> List.sort String.compare

let kind t name =
  Option.map (fun tr -> tr.t_kind) (Hashtbl.find_opt t.tracks name)

let windows t name =
  match Hashtbl.find_opt t.tracks name with
  | None -> []
  | Some tr ->
    List.rev_map
      (fun (i, a) ->
        { w_start = float_of_int i *. t.width; w_n = a.n; w_sum = a.sum;
          w_min = a.vmin; w_max = a.vmax; w_last = a.last })
      tr.wins

(* The headline value of one window: a Rate window is its sum (events per
   window), a Sample window its last value. *)
let window_value kind w = match kind with Rate -> w.w_sum | Sample -> w.w_last

let peak t name =
  match Hashtbl.find_opt t.tracks name with
  | None -> nan
  | Some tr ->
    List.fold_left
      (fun acc (_, a) ->
        let v = match tr.t_kind with Rate -> a.sum | Sample -> a.vmax in
        Stdlib.max acc v)
      neg_infinity tr.wins

let point_count t =
  Hashtbl.fold (fun _ tr acc -> acc + tr.len) t.tracks 0
