(** MAT — multiple active threads (Reiser et al. [11], section 3.4).

    One primary thread (the only one allowed to acquire locks) plus any
    number of secondary threads that may compute and issue nested
    invocations freely.  The oldest secondary becomes primary when the
    current primary suspends or terminates; resumable ex-primaries take
    priority.  The ["mat-ll"] entry is the Figure 2 variant: with the
    bookkeeping module attached, primacy is handed over as soon as the
    primary has provably released its last lock, and lock-free threads are
    skipped at promotion. *)

val policy : Substrate.t -> Detmt_runtime.Sched_iface.sched
(** The ["mat"] registry entry, and ["mat-ll"] (MAT + last-lock analysis,
    Figure 2) when the substrate carries a bookkeeping module. *)
