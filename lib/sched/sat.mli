(** SAT — single active thread (Jiménez-Peris et al. [6] for transactional
    replicas, adapted by Zhao et al. [13] for object replication; the FTflex
    variant [3] adds condition variables).

    Not concurrency: a new thread may start or resume only when the
    previously active thread suspends (wait, nested invocation, or a lock
    held by a suspended thread) or terminates.  Threads whose suspension
    reason has resolved queue FIFO and are activated one at a time.  Uses
    the idle time of nested invocations but never keeps more than one CPU
    busy (section 3.1).

    The ["psat"] entry (pSAT) adds the bookkeeping module: the activation
    token is released early once the active thread is past its last lock
    acquisition and holds no mutex, and such lock-free threads resume
    nested replies without queueing.  Per-mutex acquisition orders are untouched — a
    lock-free thread can no longer appear in one. *)

val policy : Substrate.t -> Detmt_runtime.Sched_iface.sched
(** The ["sat"] registry entry, and ["psat"] (early token release via lock
    prediction) when the substrate carries a bookkeeping module. *)
