(** Group membership with failure detection, view changes and rejoins.

    A killed member stops participating immediately; the surviving members
    detect the failure after [detection_timeout_ms] and install a new view.
    The leader of a view is its most senior member — initially the
    lowest-numbered one, which is what the take-over-time experiment
    (section 3.5: LSA "depends on the leader replica ... in case of a failure
    this might lead to a high take-over time") is built on.  A member that
    {!join}s after a failure re-enters at the back of the seniority order, so
    recovery never steals leadership from a replica that stayed up. *)

type cause =
  | Initial  (** the view the group was created with *)
  | Failure of int list  (** members removed by failure detection *)
  | Join of int  (** a (re)joining member was added *)

type view = {
  number : int;
  members : int list;
  leader : int;
  cause : cause;
  epoch : int;
      (** the elastic routing epoch the membership was installed under
          ({!set_epoch}); [0] for a group that never reconfigured *)
}

type t

val create :
  ?epoch:int ->
  Detmt_sim.Engine.t ->
  members:int list ->
  detection_timeout_ms:float ->
  t
(** [epoch] (default 0) tags the initial view — a group created mid-run by an
    elastic reconfiguration starts at the epoch that created it.
    @raise Invalid_argument on an empty member list. *)

val set_epoch : t -> int -> unit
(** Advance the epoch tag (monotone).  Installed by the replication layer at
    a total-order barrier; the current view is left untouched — the tag shows
    up on the next membership change.
    @raise Invalid_argument when the epoch would move backwards. *)

val current_view : t -> view

val alive : t -> int -> bool

val leader : t -> int

val on_view_change : t -> (view -> unit) -> unit
(** Register a callback run when a new view is installed (after failure
    detection, or immediately on a join). Callbacks run in registration
    order. *)

val kill : t -> int -> unit
(** Mark a member failed now; the view change fires after the detection
    timeout.  Killing a dead member is a no-op. *)

val join : t -> int -> unit
(** A recovered member rejoins now: it is removed from the dead set and a
    [Join] view including it is installed immediately (the state-transfer
    handshake is the replication layer's job).  Joining a member already in
    the view only clears its dead flag. *)
