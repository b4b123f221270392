(* Shared command-line vocabulary for every detmt-cli subcommand.

   One spelling per concept — [--scheduler], [--workload], [--seed],
   [--shards], [-o]/[--output] — so flags read the same on [run], [bench],
   [chaos], [trace], [fingerprint] and [shard].  The single-run subcommands
   ([run], [trace], [metrics], [profile], [top]) take all their run flags
   as one {!config} term. *)

open Cmdliner

(* A name from a fixed table: any other value is a usage error (exit 124)
   that names the flag and lists the valid names. *)
let name_conv names = Arg.enum (List.map (fun n -> (n, n)) names)

let scheduler_names =
  List.map (fun s -> s.Detmt.Registry.name) Detmt.Registry.all

let scheduler_name = name_conv scheduler_names

let scheduler =
  Arg.(
    value & opt scheduler_name "mat"
    & info [ "scheduler" ] ~docv:"NAME"
        ~doc:("Scheduler to use: " ^ String.concat ", " scheduler_names ^ "."))

let schedulers_all ~doc =
  Arg.(
    value & opt_all scheduler_name [] & info [ "scheduler" ] ~docv:"NAME" ~doc)

let workload_doc =
  "Workload: " ^ String.concat ", " Detmt.Catalog.names ^ "."

let workload_name = name_conv Detmt.Catalog.names

let workload =
  Arg.(
    value & opt workload_name "figure1"
    & info [ "workload" ] ~docv:"NAME" ~doc:workload_doc)

let workloads_all ~doc =
  Arg.(
    value & opt_all workload_name [] & info [ "workload" ] ~docv:"NAME" ~doc)

let int_opt name ~default ~doc =
  Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)

let clients = int_opt "clients" ~default:8 ~doc:"Number of closed-loop clients."

let requests = int_opt "requests" ~default:10 ~doc:"Requests per client."

let replicas =
  int_opt "replicas" ~default:3 ~doc:"Replica-group size (per shard)."

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Master random seed for the client decision streams.")

let workers =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Simulated worker-pool width for the parallel scheduler family \
           (cgs, pcgs, wss, cgs+ws, adaptive); serial schedulers require \
           the default 1.")

(* A group count the multi-group runtime can hold: more than its
   [max_groups] is a usage error, not an exception from deep inside. *)
let shards ~default ~doc =
  let limit = Detmt.Reconfig.default_params.max_groups in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= limit -> Ok n
    | _ ->
      Error (`Msg (Printf.sprintf "expected a group count from 1 to %d" limit))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) default
    & info [ "shards" ] ~docv:"N" ~doc)

let latency =
  Arg.(
    value & opt float 0.5
    & info [ "latency" ] ~docv:"MS"
        ~doc:"One-way network latency between replicas, in virtual ms.")

(* The run one configuration names: the one place the single-run flags
   become an [Experiment.config], always on [Static shards] groups. *)
let config =
  let make workload scheduler workers clients requests replicas seed latency
      shards =
    { Detmt.Experiment.base with
      workload = Detmt.Experiment.workload workload;
      system = Static shards; scheduler; workers; clients; requests; replicas;
      seed = Int64.of_int seed; latency_ms = latency }
  in
  Term.(
    const make $ workload $ scheduler $ workers $ clients $ requests
    $ replicas $ seed $ latency
    $ shards ~default:1
        ~doc:"Run the system on this many replica groups (1 = one group).")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"PATH"
        ~doc:"Write the export to a file instead of stdout.")

let csv =
  Arg.(
    value & flag
    & info [ "csv" ] ~doc:"Emit the table as CSV instead of aligned text.")

let file =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"PATH"
        ~doc:
          "Load the replicated class from a DML source file instead of a \
           built-in workload (see examples/counter.dml).")
