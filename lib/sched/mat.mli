(** MAT — multiple active threads (Reiser et al. [11], section 3.4).

    One primary thread (the only one allowed to acquire locks) plus any
    number of secondary threads that may compute and issue nested
    invocations freely.  The oldest secondary becomes primary when the
    current primary suspends or terminates; resumable ex-primaries take
    priority.  {!Last_lock} is the Figure 2 variant: with the bookkeeping
    module attached, primacy is handed over as soon as the primary has
    provably released its last lock, and lock-free threads are skipped at
    promotion. *)

module Base : Decision.Serial
(** ["mat"], no prediction. *)

module Last_lock : Decision.Serial
(** ["mat-ll"]: MAT + last-lock analysis (Figure 2). *)
