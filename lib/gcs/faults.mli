(** Deterministic network-fault injection.

    A seeded plan attached to {!Totem} that models the unfriendly transport
    the GCS hides from the application: per-link latency jitter, message loss
    repaired by ack/retransmit timers (delivery is delayed, never dropped —
    the total order survives), duplicate point-to-point deliveries
    (suppressed by the GCS sequence numbers), and timed link partitions that
    heal.

    Every fault outcome is a pure function of [(seed, seq, sender, dest)], so
    a run replays bit-identically regardless of event-execution order, and
    the same seed yields the same network weather in every run. *)

type partition = {
  src : int option;  (** sending endpoint; [None] matches every sender *)
  dst : int option;  (** receiving endpoint; [None] matches every dest *)
  from_ms : float;   (** cut begins (virtual ms) *)
  until_ms : float;  (** cut heals *)
}

type spec = {
  seed : int64;
  jitter_ms : float;  (** extra uniform per-hop latency in [0, jitter_ms) *)
  loss_prob : float;  (** per-transmission loss probability, in [0, 1) *)
  rto_ms : float;  (** retransmit timeout added per lost transmission *)
  max_retransmits : int;  (** cap; the attempt after the cap always lands *)
  dup_prob : float;  (** probability of a duplicate transport delivery *)
  dup_extra_ms : float;  (** duplicate trails the original by up to this *)
  partitions : partition list;
}

val none : spec
(** A fault-free plan: zero jitter, loss and duplication, no partitions. *)

type t

val create : spec -> t
(** @raise Invalid_argument on out-of-range probabilities or timers. *)

val spec : t -> spec

type delivery = {
  arrival_ms : float;  (** when the (first) copy arrives *)
  duplicate_extra_ms : float option;
      (** a duplicate copy trails by this much, if any *)
  retransmits : int;  (** lost transmissions repaired by the timer *)
}

val plan :
  t ->
  seq:int ->
  sender:int ->
  dest:int ->
  sent_at:float ->
  base_latency_ms:float ->
  delivery
(** Decide the fate of one point-to-point transmission. *)

(** {2 Counters} *)

val transmissions : t -> int

val losses : t -> int
(** Transmissions repaired by a retransmit. *)

val duplicates_injected : t -> int

val partition_holds : t -> int
(** Transmissions delayed behind a partition heal. *)
