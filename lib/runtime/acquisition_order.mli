(** Per-mutex acquisition-order hashes: the determinism property the
    schedulers guarantee.  LSA's leader/follower pair legitimately
    interleaves acquisitions of {e different} mutexes differently, but the
    sequence of owners of each single mutex must match on every replica.

    Owners are identified by the request's (client, per-client sequence)
    pair, not the thread id: tids are total-order slot numbers, and
    nested-invocation messages consume slots, so the tid a given request
    lands on shifts with scheduler timing even when the acquisition order is
    logically identical — the request identity is what cross-scheduler
    differential comparisons need. *)

type t

val create : Detmt_sim.Slot_map.t -> t
(** Over the replica's mutex slots (see {!Mutex_table}). *)

val record : t -> slot:int -> client:int -> client_req:int -> unit
(** Fold one grant of the mutex at [slot] to the request
    [(client, client_req)] into that mutex's hash.  A mutex's first grant
    allocates its 8-byte hash cell; every later grant updates the cell in
    place and allocates nothing. *)

val fingerprint : t -> int64
(** The per-mutex hashes combined in mutex-id order. *)
