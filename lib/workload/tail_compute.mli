(** Figure 2 workload: a short critical section followed by a long final
    computation (building the reply, section 4.1).

    Plain MAT keeps the primary role through the whole tail; MAT+last-lock
    hands it over right after the unlock (Figure 2(b)).  With
    [shared_mutex = true] every request contends on one mutex (also the
    high-contention workload of the determinism matrix). *)

type params = {
  lock_ms : float;  (** critical-section computation *)
  tail_ms : float;  (** final computation after the last unlock *)
  shared_mutex : bool;  (** all requests use the same mutex? *)
}

val default : params

val cls : params -> Detmt_lang.Class_def.t

val gen : params -> Detmt_replication.Client.request_gen
