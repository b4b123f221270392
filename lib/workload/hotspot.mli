(** The elastic-reconfiguration workload: Zipf-skewed object popularity with
    a drifting hotspot.

    Same replicated object as {!Sharded} — ["update"] locks one
    client-chosen object, ["transfer"] locks two — but the client draw is
    skewed: object ranks follow a Zipf([skew]) law (rank [r] drawn with
    probability proportional to [(r+1){^ -skew}]), and the rank-0 {e center}
    of the hot zone drifts deterministically with the request sequence
    number: for a client's [seq]-th request it sits at
    [seq / drift_every * drift_step mod objects].

    The skew concentrates load on whichever groups own the hot zone's slots
    — the imbalance a static partition cannot fix and
    {!Detmt_replication.Reconfig}'s autoscaler splits away; the drift then
    moves the zone so yesterday's hot groups go cold and get merged back.
    As always, every random decision is drawn client-side and shipped in
    the request arguments, so the workload is a pure function of
    (params, client seed). *)

type params = {
  objects : int;  (** size of the object (mutex) space *)
  skew : float;  (** Zipf exponent [s]; 0 = uniform, higher = hotter *)
  drift_every : int;
      (** requests (per client) between hotspot moves; [<= 0] pins it *)
  drift_step : int;  (** objects the center advances per move *)
  cross_ratio : float;  (** probability of a two-object transfer *)
  hold_ms : float;  (** computation inside each critical section *)
  tail_ms : float;  (** lock-free computation after the last unlock *)
}

val default : params
(** 64 objects, skew 1.1, drift 7 objects every 32 requests, 5% transfers,
    1 ms hold. *)

val cls : params -> Detmt_lang.Class_def.t
(** @raise Invalid_argument when [objects < 1]. *)

val gen : params -> Detmt_replication.Client.request_gen
