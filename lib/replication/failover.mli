(** Take-over-time analysis (section 3.5).

    "In case of a failure this [leader dependence] might lead to a high
    take-over time [for LSA] that does not exist for MAT and the other
    algorithms, as they treat all replicas equally."

    The take-over time is observed at the clients: the largest hole in the
    reply stream around the failure, compared against the typical inter-reply
    gap before the failure. *)

type analysis = {
  kill_at : float;
  gap_before_ms : float;
      (** largest inter-reply gap while the killed replica was alive *)
  gap_after_ms : float;
      (** largest inter-reply gap in the window after the failure *)
  takeover_ms : float;  (** [gap_after_ms - gap_before_ms], floored at 0 *)
  replies_after : int;
}

val kill_and_measure :
  system:Active.t -> replica:int -> at:float -> unit
(** Schedule the failure: the replica stops executing, the bus stops
    delivering to it, and the group detects the failure after its timeout. *)

val analyze : kill_at:float -> float list -> analysis
(** Analyse the client-side reply arrival times of a finished run, in
    order ({!Active.reply_times}, {!Reconfig.reply_times}). *)

val pp : Format.formatter -> analysis -> unit
