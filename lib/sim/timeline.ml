(* State reconstruction: every thread's trace events switch it between a
   small set of states; sampling the switch list renders the row. *)

type state =
  | Absent
  | Running
  | Holding (* at least one lock held *)
  | Blocked (* lock requested, not yet granted *)
  | Waiting (* in a condition-variable wait *)
  | Nested (* inside a nested invocation *)

let char_of_state = function
  | Absent -> ' '
  | Running -> '='
  | Holding -> '#'
  | Blocked -> '.'
  | Waiting -> 'w'
  | Nested -> 'n'

type thread_line = {
  tid : int;
  mutable switches : (float * state) list; (* reverse time order *)
  mutable hold_depth : int;
}

type t = { lines : (int, thread_line) Hashtbl.t; lo : float; hi : float }

let line t tid =
  match Hashtbl.find_opt t tid with
  | Some l -> l
  | None ->
    let l = { tid; switches = []; hold_depth = 0 } in
    Hashtbl.add t tid l;
    l

let push l time state = l.switches <- (time, state) :: l.switches

(* The state a thread returns to when an episode (blocking, waiting,
   nesting) ends. *)
let base_state l = if l.hold_depth > 0 then Holding else Running

let of_trace events =
  let lines = Hashtbl.create 16 in
  let lo = ref infinity and hi = ref neg_infinity in
  let see time =
    if time < !lo then lo := time;
    if time > !hi then hi := time
  in
  let on (time, event) =
    see time;
    match (event : Trace.event) with
    | Trace.Thread_start { tid; _ } -> push (line lines tid) time Running
    | Trace.Thread_end { tid } -> push (line lines tid) time Absent
    | Trace.Lock_requested { tid; _ } -> push (line lines tid) time Blocked
    | Trace.Lock_granted { tid; _ } ->
      let l = line lines tid in
      l.hold_depth <- l.hold_depth + 1;
      push l time Holding
    | Trace.Unlocked { tid; _ } ->
      let l = line lines tid in
      l.hold_depth <- max 0 (l.hold_depth - 1);
      push l time (base_state l)
    | Trace.Wait_begin { tid; _ } ->
      let l = line lines tid in
      (* the wait released the monitor *)
      l.hold_depth <- max 0 (l.hold_depth - 1);
      push l time Waiting
    | Trace.Wait_end { tid; _ } ->
      let l = line lines tid in
      l.hold_depth <- l.hold_depth + 1;
      push l time Holding
    | Trace.Nested_begin { tid; _ } -> push (line lines tid) time Nested
    | Trace.Nested_end { tid; _ } ->
      let l = line lines tid in
      push l time (base_state l)
    | Trace.Ws_commit { tid; _ } ->
      (* the merged speculation proceeds to its reply build *)
      push (line lines tid) time Running
    | Trace.Ws_abort { tid; _ } -> push (line lines tid) time Blocked
    | Trace.Notify _ | Trace.Control_delivered _ | Trace.View_change _ -> ()
  in
  List.iter on events;
  let lo = if !lo = infinity then 0.0 else !lo in
  let hi = if !hi = neg_infinity then 1.0 else !hi in
  { lines; lo; hi }

let threads t =
  Hashtbl.fold (fun tid _ acc -> tid :: acc) t.lines [] |> List.sort compare

let span t = (t.lo, t.hi)

let state_of_line l ~time =
  (* switches are in reverse time order: find the latest at or before. *)
  let rec find = function
    | [] -> Absent
    | (s_time, state) :: rest -> if s_time <= time then state else find rest
  in
  find l.switches

let state_at t ~tid ~time =
  match Hashtbl.find_opt t.lines tid with
  | None -> char_of_state Absent
  | Some l -> char_of_state (state_of_line l ~time)

let render ?(width = 72) ppf t =
  let tids = threads t in
  let span = t.hi -. t.lo in
  let span = if span <= 0.0 then 1.0 else span in
  let sample tid col =
    let time = t.lo +. (span *. (float_of_int col +. 0.5)
                        /. float_of_int width) in
    state_at t ~tid ~time
  in
  List.iter
    (fun tid ->
      Format.fprintf ppf "t%-4d %s@." tid
        (String.init width (sample tid)))
    tids;
  Format.fprintf ppf "      %-8.1f%*.1f ms@." t.lo (width - 8) t.hi;
  Format.fprintf ppf
    "      = running   # holding lock   . blocked   w waiting   n nested@."
