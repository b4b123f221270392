open Detmt_sim

type analysis = {
  kill_at : float;
  gap_before_ms : float;
  gap_after_ms : float;
  takeover_ms : float;
  replies_after : int;
}

let kill_and_measure ~system ~replica ~at =
  Engine.schedule_at (Active.engine system) ~time:at (fun () ->
      Active.kill_replica system replica)

let max_gap times =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (Float.max acc (b -. a)) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 times

let analyze ~kill_at times =
  let before = List.filter (fun t -> t <= kill_at) times in
  let after = List.filter (fun t -> t > kill_at) times in
  (* The failure hole spans from the last pre-failure reply to the first
     post-failure one, so include the boundary in the after-gap. *)
  let boundary =
    match (List.rev before, after) with
    | last :: _, first :: _ -> first -. last
    | _ -> 0.0
  in
  let gap_before_ms = max_gap before in
  let gap_after_ms = Float.max boundary (max_gap after) in
  { kill_at; gap_before_ms; gap_after_ms;
    takeover_ms = Float.max 0.0 (gap_after_ms -. gap_before_ms);
    replies_after = List.length after }

let pp ppf a =
  Format.fprintf ppf
    "kill@%.1fms: max gap %.2fms -> %.2fms (take-over %.2fms, %d replies \
     after)"
    a.kill_at a.gap_before_ms a.gap_after_ms a.takeover_ms a.replies_after
