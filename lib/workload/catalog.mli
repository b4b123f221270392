(** The built-in workloads by name: the one table through which the
    experiment grids, the CLI's [--workload] and the explorer (its
    witnesses included) resolve a workload name. *)

val names : string list
(** Every workload name {!find} accepts, in table order. *)

val find :
  string -> Detmt_lang.Class_def.t * Detmt_replication.Client.request_gen
(** The class and request generator of a named workload: figure1,
    compute-heavy, disjoint, tail, prodcons, sharded, sharded-opaque,
    hotspot.
    @raise Invalid_argument on another name, listing the valid ones. *)
