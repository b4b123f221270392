(** The Figure 1 benchmark workload.

    "The implementation of that method in the remote object does ten
    iterations of a loop.  Each iteration performs the following operations:
    with probability 0.2, simulate a nested invocation (duration approx.
    12 ms); with probability 0.2, simulate a local computation (duration
    10 ms); execute a sequence of lock, state update, unlock, using a mutex
    chosen by random from a set of 100 mutexes. ... To guarantee
    deterministic behaviour the clients were responsible for all random
    decisions and passed them as method parameters."

    The iterations are unrolled in the class body so that every iteration's
    client-drawn decisions arrive as dedicated request arguments (three per
    iteration: do-nested?, do-compute?, mutex). *)

type params = {
  iterations : int;
  p_nested : float;
  p_compute : float;
  n_mutexes : int;
  nested_ms : float;
  compute_ms : float;
  front_compute_ms : float;
      (** lock-free computation before the loop (0 in the paper's setup) *)
}

val default : params
(** The paper's parameters: 10 iterations, p=0.2 / p=0.2, 100 mutexes,
    12 ms nested calls, 10 ms computations, no front computation. *)

val compute_heavy : params
(** Ablation: 20 ms of lock-free computation before the loop — the
    "computations before changing the object state" case where MAT's
    concurrent secondaries pay off against SAT. *)

val cls : params -> Detmt_lang.Class_def.t
(** The remote object: one exported method ["work"]. *)

val gen : params -> Detmt_replication.Client.request_gen
(** Pre-draws all decisions from the client stream. *)
