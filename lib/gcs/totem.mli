(** Total-order broadcast over the simulated network.

    Models the consensus-based group communication system the paper relies on
    ("FTflex uses a group communication system to guarantee that each replica
    receives all messages in a total order"): every broadcast is stamped with
    a global sequence number and delivered to every live subscriber in
    sequence order, after a per-destination latency.  Messages to a dead
    subscriber are dropped.

    The per-broadcast cost (number of point-to-point deliveries) is counted so
    experiments can report the network load of chatty algorithms such as
    LSA.

    An optional {!Faults} plan degrades the transport underneath: latency
    jitter, losses repaired by retransmit timers, duplicate packets and link
    partitions.  The GCS contract survives all of them — per-subscriber
    deliveries stay in sequence order (a FIFO floor) and every message is
    handed to the application exactly once (a per-subscriber sequence
    watermark suppresses transport duplicates).

    Optional {e batched delivery} models the paper's §3 batching-delay
    phenomenon at the transport: sequence numbers are still assigned at
    broadcast time (the total order is unchanged), but messages are held back
    and put on the wire together — when [max_batch] messages have
    accumulated, or [delay_ms] after the batch opened, whichever comes
    first.  Per-subscriber arrival times are then computed from the flush
    instant, so a batch amortizes broadcast overhead at the cost of added
    delivery latency for the messages that waited. *)

type 'a t

type batching = {
  max_batch : int;  (** flush when this many messages are pending (>= 1) *)
  delay_ms : float;  (** flush this long after a batch opens (>= 0) *)
}

val create :
  ?latency:(sender:int -> dest:int -> float) ->
  ?faults:Faults.t ->
  ?obs:Detmt_obs.Recorder.t ->
  ?batching:batching ->
  Detmt_sim.Engine.t ->
  'a t
(** Default latency: 0.5 ms for every pair; no faults; no batching (every
    broadcast goes on the wire immediately — [batching = Some {max_batch =
    1; _}] is behaviourally identical).  [obs] (default
    {!Detmt_obs.Recorder.disabled}) receives broadcast/delivery/dedup
    counters, the per-delivery watermark lag and — with batching — wire-batch
    counts and a batch-size histogram.
    @raise Invalid_argument when [max_batch < 1] or [delay_ms < 0]. *)

val subscribe : 'a t -> id:int -> ('a Message.t -> unit) -> unit
(** Register a destination.  Ids must be unique.
    @raise Invalid_argument on duplicate id. *)

val resubscribe : 'a t -> id:int -> ('a Message.t -> unit) -> unit
(** Rebind an existing id to a fresh handler and revive it (replica
    rejoin).  Messages broadcast while the id was dead are {e not} replayed
    here — state transfer is the replication layer's job.
    @raise Invalid_argument on an unknown id. *)

val broadcast : 'a t -> sender:int -> 'a -> 'a Message.t
(** Stamp and enqueue a message to all live subscribers; returns the stamped
    message (its [seq] is the total-order slot), the very record every
    subscriber receives.  The sender also receives its own message
    (self-delivery), as in closed-group total-order protocols.

    A broadcast allocates the message and one [Some] cell its subscribers'
    inboxes share; queueing a fault-free delivery allocates no closure, no
    plan and no float box before the engine post. *)

val advance_watermark : 'a t -> id:int -> seq:int -> unit
(** Raise the subscriber's exactly-once watermark to [seq] (no-op when
    already past it).  Called after an out-of-band state transfer so stale
    in-flight copies addressed to the old incarnation are suppressed.
    Suppressions at or below [seq] are counted as {!watermark_suppressed},
    not {!suppressed_duplicates} — they are replay bookkeeping, not
    transport pathology.
    @raise Invalid_argument on an unknown id. *)

(** {2 Dead-sender batch semantics}

    A message sitting in the open batch when its {e sender} dies still
    flushes and delivers to every live subscriber.  This is deliberate: the
    sequence number was assigned at [broadcast] time, so the message owns a
    slot in the total order, and {!val:broadcast}'s caller (the replication
    layer) has already logged it for suffix replay.  Dropping it on sender
    death would leave a permanent gap for live replicas while a later
    recovery replays it from the log — two replicas would then disagree on
    the delivery prefix, which is exactly the divergence the GCS exists to
    prevent.  Sender liveness gates {e new} broadcasts, never sequenced
    ones. *)

val set_alive : 'a t -> int -> bool -> unit
(** Failure injection: a dead subscriber receives nothing until revived. *)

val broadcasts : 'a t -> int
(** Number of [broadcast] calls so far. *)

val deliveries : 'a t -> int
(** Number of point-to-point deliveries performed. *)

val batching : 'a t -> batching option
(** The batching policy the bus was created with. *)

val wire_batches : 'a t -> int
(** Number of batches flushed onto the wire; [0] when batching is
    disabled. *)

val pending_batched : 'a t -> int
(** Messages currently held back in the open batch ([0] when batching is
    disabled). *)

val suppressed_duplicates : 'a t -> int
(** True transport duplicates the sequence watermark kept from the
    application.  Stale copies already covered by an out-of-band
    {!advance_watermark} are excluded — see {!watermark_suppressed}. *)

val watermark_suppressed : 'a t -> int
(** Stale in-flight copies suppressed because {!advance_watermark} marked
    them replay-covered (post-recovery state transfer).  Previously folded
    into {!suppressed_duplicates}, which made recovery flushes look like
    transport duplication in the chaos summaries. *)

val set_delivery_oracle :
  'a t ->
  (seq:int -> sender:int -> dest:int -> planned_ms:float -> float) option ->
  unit
(** Explorer hook: extra non-negative latency added to one point-to-point
    delivery, consulted after the fault plan computes the arrival time
    ([planned_ms]).  The per-subscriber FIFO floor still applies afterwards,
    so the GCS ordering contract is preserved under any oracle; negative
    answers are clamped to [0].  The oracle is also a convenient observation
    tap: it sees every (seq, sender, dest, planned arrival) tuple of the
    run.  [None] (default) removes the hook. *)

val set_flush_oracle : 'a t -> (seq:int -> pending:int -> bool) option -> unit
(** Explorer hook: consulted after each broadcast is added to the open batch
    (batching mode only) with the new message's [seq] and the number of
    [pending] messages; answering [true] forces an immediate wire flush, as
    if the size trigger had fired.  This perturbs only {e when} batches hit
    the wire, never the total order.  [None] (default) removes the hook. *)

val faults : 'a t -> Faults.t option
(** The attached fault plan, for its counters. *)

(** The categories of the network-load reports, named ["barrier"],
    ["control"], ["nested-reply"], ["pds-dummy"] and ["request"]. *)
type kind = Barrier | Control | Nested_reply | Pds_dummy | Request

val count_kind : 'a t -> kind -> unit
(** Attribute the current broadcast to a category; with a recorder attached,
    also bump its [totem.msg.<name>] counter. *)

val kind_names : string array
(** The categories' names, in the constructors' order. *)

val kind_counts : 'a t -> (string * int) list
(** The counts of the categories broadcast so far, by name, sorted. *)
