(** PMAT — predicted MAT (section 4.3): a queue of equal active threads; a
    lock is granted when every queue predecessor is predicted and provably
    does not conflict.  Requires the predictive transformation's summary
    (the substrate's bookkeeping module answers the conflict queries). *)

module Base : Decision.Serial
(** ["pmat"], needs prediction. *)
