(** SEQ — strictly sequential request execution in total order: one request
    runs from start to finish before the next starts.  Trivially
    deterministic, single-CPU, wastes nested-invocation idle time
    (section 3.1). *)

module Base : Decision.Serial
(** ["seq"], no prediction. *)
