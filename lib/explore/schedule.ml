(* A schedule is the explorer's unit of search and replay: a run
   configuration plus a list of perturbation entries, each naming one
   admissible deviation from the canonical execution.  Entries are keyed by
   stable identifiers (total-order sequence numbers, replica ids, tie-instant
   indices) rather than absolute times wherever possible, so a schedule
   survives shrinking: removing one entry does not invalidate the keys of
   the rest. *)

type entry =
  | Delay of { seq : int; dest : int; extra_ms : float }
      (* hold the delivery of total-order message [seq] to replica [dest]
         back by [extra_ms] beyond its planned arrival *)
  | Reorder of { at_index : int; pick : int }
      (* at the [at_index]-th multi-way simultaneity in the run, fire the
         [pick]-th eligible event instead of the canonical first *)
  | Flush of { after_seq : int }
      (* force the open delivery batch onto the wire right after message
         [after_seq] joins it (no-op without batching) *)
  | Crash of { replica : int; at_ms : float; recover_at_ms : float }
      (* kill [replica] at [at_ms]; recover it at [recover_at_ms]
         ([recover_at_ms <= at_ms] means no recovery) *)

type t = {
  scheduler : string;
  workload : string;
  seed : int;
  clients : int;
  requests : int;
  workers : int;
      (* simulated worker-pool width for the parallel scheduler family;
         1 everywhere else *)
  batching : Detmt_gcs.Totem.batching option;
  elastic : bool;
      (* run through Reconfig with the canonical split/merge cycle instead
         of a static Active group; crash entries name group-0 offsets *)
  entries : entry list;
}

let make ?(seed = 42) ?(clients = 4) ?(requests = 5) ?(workers = 1) ?batching
    ?(elastic = false) ~scheduler ~workload entries =
  { scheduler; workload; seed; clients; requests; workers; batching; elastic;
    entries }

let size t = List.length t.entries

let with_entries t entries = { t with entries }

(* ------------------------- text serialization ------------------------- *)

let entry_to_string = function
  | Delay { seq; dest; extra_ms } ->
    Printf.sprintf "delay seq=%d dest=%d extra_ms=%g" seq dest extra_ms
  | Reorder { at_index; pick } ->
    Printf.sprintf "reorder at=%d pick=%d" at_index pick
  | Flush { after_seq } -> Printf.sprintf "flush after_seq=%d" after_seq
  | Crash { replica; at_ms; recover_at_ms } ->
    Printf.sprintf "crash replica=%d at_ms=%g recover_at_ms=%g" replica at_ms
      recover_at_ms

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b "# detmt explore schedule v1\n";
  Buffer.add_string b (Printf.sprintf "scheduler %s\n" t.scheduler);
  Buffer.add_string b (Printf.sprintf "workload %s\n" t.workload);
  Buffer.add_string b (Printf.sprintf "seed %d\n" t.seed);
  Buffer.add_string b (Printf.sprintf "clients %d\n" t.clients);
  Buffer.add_string b (Printf.sprintf "requests %d\n" t.requests);
  (* emitted only when set, so pre-elastic witnesses round-trip unchanged *)
  if t.workers <> 1 then
    Buffer.add_string b (Printf.sprintf "workers %d\n" t.workers);
  if t.elastic then Buffer.add_string b "elastic true\n";
  Option.iter
    (fun { Detmt_gcs.Totem.max_batch; delay_ms } ->
      Buffer.add_string b
        (Printf.sprintf "batching max_batch=%d delay_ms=%g\n" max_batch
           delay_ms))
    t.batching;
  List.iter
    (fun e ->
      Buffer.add_string b (entry_to_string e);
      Buffer.add_char b '\n')
    t.entries;
  Buffer.contents b

let fail_line n line what =
  failwith (Printf.sprintf "Schedule.of_string: line %d: %s (%S)" n what line)

let of_string s =
  let scheduler = ref None
  and workload = ref None
  and seed = ref 42
  and clients = ref 4
  and requests = ref 5
  and workers = ref 1
  and batching = ref None
  and elastic = ref false
  and entries = ref [] in
  (* Run sizes must be at least 1: a witness with [requests -1] would replay
     no request at all and pass as equivalent. *)
  let count s =
    match int_of_string_opt s with Some v when v >= 1 -> v | _ -> failwith s
  in
  let parse_line n line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then ()
    else
      match String.index_opt line ' ' with
      | None -> fail_line n line "missing argument"
      | Some i -> (
        let key = String.sub line 0 i in
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        (* Only the argument parsers' failures are "malformed arguments";
           [fail_line]'s own [Failure] must pass through. *)
        let args f =
          try f () with Scanf.Scan_failure _ | End_of_file | Failure _ ->
            fail_line n line "malformed arguments"
        in
        match key with
        | "scheduler" -> scheduler := Some rest
        | "workload" -> workload := Some rest
        | "seed" -> args (fun () -> seed := int_of_string rest)
        | "clients" -> args (fun () -> clients := count rest)
        | "requests" -> args (fun () -> requests := count rest)
        | "workers" -> args (fun () -> workers := count rest)
        | "elastic" -> args (fun () -> elastic := bool_of_string rest)
        | "batching" ->
          args (fun () ->
              Scanf.sscanf rest "max_batch=%d delay_ms=%f" (fun m d ->
                  batching :=
                    Some { Detmt_gcs.Totem.max_batch = m; delay_ms = d }))
        | "delay" ->
          args (fun () ->
              Scanf.sscanf rest "seq=%d dest=%d extra_ms=%f" (fun seq dest e ->
                  entries := Delay { seq; dest; extra_ms = e } :: !entries))
        | "reorder" ->
          args (fun () ->
              Scanf.sscanf rest "at=%d pick=%d" (fun at_index pick ->
                  entries := Reorder { at_index; pick } :: !entries))
        | "flush" ->
          args (fun () ->
              Scanf.sscanf rest "after_seq=%d" (fun after_seq ->
                  entries := Flush { after_seq } :: !entries))
        | "crash" ->
          args (fun () ->
              Scanf.sscanf rest "replica=%d at_ms=%f recover_at_ms=%f"
                (fun replica at_ms recover_at_ms ->
                  if replica < 0 then failwith "negative replica";
                  entries :=
                    Crash { replica; at_ms; recover_at_ms } :: !entries))
        | other -> fail_line n line ("unknown directive " ^ other))
  in
  List.iteri (fun i l -> parse_line (i + 1) l) (String.split_on_char '\n' s);
  match (!scheduler, !workload) with
  | Some scheduler, Some workload ->
    { scheduler; workload; seed = !seed; clients = !clients;
      requests = !requests; workers = !workers; batching = !batching;
      elastic = !elastic; entries = List.rev !entries }
  | None, _ -> failwith "Schedule.of_string: missing scheduler line"
  | _, None -> failwith "Schedule.of_string: missing workload line"

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
