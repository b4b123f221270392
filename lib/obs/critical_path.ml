(* Critical-path analysis: which wait dominated each request's latency.

   Folds the span tracer's typed wait reasons (via the exact-sum
   [Recorder.breakdown] decomposition) into one dominant component per
   answered request, then aggregates — overall, per shard and per
   reconfiguration epoch.  Shards are derived from the winning replica's id
   (replica ids are [shard * replicas_per_group + offset] by construction
   of [Reconfig]); epochs come from the ["reconfig.epoch"] series
   the reconfigurator records at every barrier, so requests held across a
   barrier are attributed to the epoch in which they were delivered. *)

(* The latency components a request's time can be dominated by, in the
   exact-sum breakdown order (the deterministic tie-break: earliest wins).
   One table, so the names and the values cannot drift apart. *)
let fields : (string * (Recorder.breakdown -> float)) list =
  [ ("client-queue", fun b -> b.client_queue);
    ("broadcast", fun b -> b.broadcast);
    ("sched-start", fun b -> b.sched_start);
    ("lock-contention", fun b -> b.lock_wait);
    ("lock-policy", fun b -> b.policy_wait);
    ("reacquire", fun b -> b.reacquire_wait);
    ("condvar", fun b -> b.condvar_wait);
    ("nested-idle", fun b -> b.nested_idle);
    ("resume-hold", fun b -> b.resume_hold);
    ("commit-hold", fun b -> b.commit_hold);
    ("exec", fun b -> b.exec);
    ("reply-net", fun b -> b.reply_net) ]

let components = List.map fst fields

let component_values b = List.map (fun (k, f) -> (k, f b)) fields

type item = {
  cp_uid : int;
  cp_client : int;
  cp_meth : string;
  cp_replica : int;
  cp_shard : int;
  cp_epoch : int;
  cp_dominant : string;
  cp_dominant_ms : float;
  cp_total_ms : float;
}

type slice = {
  s_count : int;
  s_ms : float; (* dominant-component ms summed over the slice's requests *)
}

type report = {
  items : item list; (* sorted by uid *)
  by_component : (string * slice) list; (* component order, non-empty only *)
  by_shard : (int * (string * slice) list) list; (* ascending shard *)
  by_epoch : (int * (string * slice) list) list; (* ascending epoch *)
}

let dominant b =
  List.fold_left
    (fun (best_k, best_v) (k, v) ->
      if v > best_v then (k, v) else (best_k, best_v))
    ("client-queue", neg_infinity)
    (component_values b)

(* Epoch transition times, oldest first, from the recorded series. *)
let epoch_edges t =
  List.filter_map
    (fun (name, at, value) ->
      if String.equal name "reconfig.epoch" then Some (at, int_of_float value)
      else None)
    (Recorder.series_samples t)

let epoch_at edges time =
  List.fold_left
    (fun acc (at, epoch) -> if at <= time then epoch else acc)
    0 edges

let group_slices items key =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun it ->
      let k = key it in
      let count, ms =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl k)
      in
      Hashtbl.replace tbl k (count + 1, ms +. it.cp_dominant_ms))
    items;
  Hashtbl.fold (fun k (c, ms) acc -> (k, { s_count = c; s_ms = ms }) :: acc)
    tbl []

let by_component items =
  let slices = group_slices items (fun it -> it.cp_dominant) in
  List.filter_map
    (fun c -> Option.map (fun s -> (c, s)) (List.assoc_opt c slices))
    components

let grouped items key =
  let keys =
    List.sort_uniq compare (List.map key items)
  in
  List.map
    (fun k -> (k, by_component (List.filter (fun it -> key it = k) items)))
    keys

let analyse ?(replicas = 3) t =
  let edges = epoch_edges t in
  let delivered =
    (* delivery time per (replica, uid), for epoch attribution *)
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (v : Recorder.span_view) ->
        Hashtbl.replace tbl (v.v_replica, v.v_uid) v.v_delivered_at)
      (Recorder.spans t);
    tbl
  in
  let items =
    List.map
      (fun (b : Recorder.breakdown) ->
        let k, v = dominant b in
        let delivered_at =
          Option.value ~default:0.0
            (Hashtbl.find_opt delivered (b.replica, b.uid))
        in
        { cp_uid = b.uid; cp_client = b.client; cp_meth = b.meth;
          cp_replica = b.replica; cp_shard = b.replica / Stdlib.max 1 replicas;
          cp_epoch = epoch_at edges delivered_at; cp_dominant = k;
          cp_dominant_ms = v; cp_total_ms = b.total })
      (Recorder.breakdowns t)
  in
  { items; by_component = by_component items;
    by_shard = grouped items (fun it -> it.cp_shard);
    by_epoch = grouped items (fun it -> it.cp_epoch) }

let table ?(title = "critical path: dominant latency component") r =
  let t =
    Detmt_stats.Table.create ~title
      ~columns:[ "scope"; "component"; "requests"; "dominant_ms"; "share" ]
  in
  let total_n = List.length r.items in
  let row scope (c, s) =
    Detmt_stats.Table.add_row t
      [ scope; c; string_of_int s.s_count; Printf.sprintf "%.2f" s.s_ms;
        (if total_n = 0 then "-"
         else
           Printf.sprintf "%.0f%%"
             (100.0 *. float_of_int s.s_count /. float_of_int total_n)) ]
  in
  List.iter (row "all") r.by_component;
  List.iter
    (fun (shard, slices) ->
      List.iter (row (Printf.sprintf "shard %d" shard)) slices)
    r.by_shard;
  (match r.by_epoch with
  | [ (0, _) ] -> () (* a run that never reconfigured: epoch = all *)
  | epochs ->
    List.iter
      (fun (epoch, slices) ->
        List.iter (row (Printf.sprintf "epoch %d" epoch)) slices)
      epochs);
  t
