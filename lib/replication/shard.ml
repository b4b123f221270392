(* Static sharded layouts as a thin facade over {!Reconfig}: a system with
   [shards] initial groups and no command or policy. *)

type params = {
  shards : int;
  base : Active.params;
}

type t = Reconfig.t

let create ?obs ~engine ~cls ~params () =
  Reconfig.create ?obs ~engine ~cls
    ~params:
      { Reconfig.default_params with
        Reconfig.initial_groups = params.shards; base = params.base }
    ()

let run_clients_stats = Reconfig.run_clients_stats

let response_times = Reconfig.response_times

let replies_received = Reconfig.replies_received

let consistent = Reconfig.consistent

let groups t = Array.of_list (Reconfig.live_systems t)

let fingerprint = Reconfig.fingerprint

let fast_path_requests = Reconfig.fast_path_requests

let cross_shard_requests = Reconfig.cross_group_requests

let shards = Reconfig.group_count
