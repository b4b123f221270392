(** PDS — preemptive deterministic scheduling (Basile et al. [1]).

    A pool of [Config.pds_batch] worker slots; threads run to their next
    lock request and locks are only granted in rounds, once every busy slot
    has arrived at a deterministic stop.  Includes the paper's optimised
    variant (up to two lock requests per round, which keeps nested
    synchronized blocks and lock coupling live) and the FTflex dummy-message
    mechanism that unblocks incomplete batches at the price of extra
    group-communication traffic (section 3.3).

    The ["ppds"] entry (pPDS) shrinks round membership with the bookkeeping
    module: a member whose exact lock set is known, condvar-free and
    provably disjoint from every other live member leaves the round
    discipline entirely — its locks are granted on demand and the round does
    not wait for it.  It keeps its batch slot until termination, which
    delays the next round decision past its lifetime and keeps every
    decision input deterministic. *)

val policy : Substrate.t -> Detmt_runtime.Sched_iface.sched
(** The ["pds"] registry entry, and ["ppds"] (prediction-shrunk rounds)
    when the substrate carries a bookkeeping module. *)
