(** The sharded-replication workload: a partitionable object space with a
    tunable cross-shard ratio.

    The replicated object exposes two start methods over [objects] mutexes
    (the "object space" the {!Detmt_replication.Reconfig} router partitions):

    - ["update"]: lock one client-chosen object, hold it for [hold_ms] of
      computation, bump the shared counter — a single-object request whose
      lock closure always lands on one shard (the fast path);
    - ["transfer"]: the same sequence over two distinct client-chosen
      objects — with probability ≈ 1 - 1/shards its closure spans two
      shards and exercises the cross-shard two-phase path.

    [cross_ratio] is the probability a request is a transfer; [tail_ms]
    adds lock-free computation after the critical section(s).  As always,
    every random decision is drawn client-side and shipped in the request
    arguments. *)

type params = {
  objects : int;  (** size of the object (mutex) space *)
  cross_ratio : float;  (** probability of a two-object transfer *)
  opaque_ratio : float;
      (** probability of an ["opaque_update"]: the same single-object
          shape as ["update"], but synchronised through a local variable
          the prediction analysis cannot resolve — its conflict class is
          [Top], the misprediction injector for the workspace safety net.
          It bumps a dedicated ["opaque"] counter (not the hot shared
          ["state"]), so its dynamic footprint is near-disjoint from the
          rest of the workload.  A zero ratio (the default) adds neither
          the method, the field, nor any RNG draw, keeping existing
          streams bit-identical. *)
  hold_ms : float;  (** computation inside each critical section *)
  tail_ms : float;  (** lock-free computation after the last unlock *)
}

val default : params
(** 64 objects, 10% transfers, no opaque requests, 1 ms hold, no tail. *)

val cls : params -> Detmt_lang.Class_def.t
(** @raise Invalid_argument when [objects < 1]. *)

val gen : params -> Detmt_replication.Client.request_gen

val opaque_method : string
