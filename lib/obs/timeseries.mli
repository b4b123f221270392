(** Virtual-time-windowed time series with bounded ring retention.

    The continuous-telemetry store behind the recorder: counter increments
    and gauge/histogram samples are folded into fixed-width windows keyed
    to the simulation clock, and each named track keeps only the most
    recent [retain] windows.  Purely observational — windows are keyed to
    virtual time and never schedule events, so recording on/off leaves the
    simulation bit-identical. *)

type t

type kind =
  | Rate (** from counters: window value = sum of increments *)
  | Sample (** from gauges/histograms: window keeps n/sum/min/max/last *)

type window = {
  w_start : float; (** left edge, virtual ms *)
  w_n : int;
  w_sum : float;
  w_min : float;
  w_max : float;
  w_last : float;
}

val create : ?width_ms:float -> ?retain:int -> unit -> t
(** Defaults: 10 ms windows, 256 retained per track. *)

val bump : t -> name:string -> at:float -> by:float -> unit
(** Fold a counter increment into the window containing [at]. *)

val sample : t -> name:string -> at:float -> value:float -> unit
(** Fold a gauge/histogram sample into the window containing [at]. *)

val set_on_roll : t -> (at:float -> unit) option -> unit
(** Hook invoked once whenever the head window advances (re-entrancy safe);
    the recorder snapshots passive gauges such as engine queue depth here. *)

val names : t -> string list
(** All track names, sorted. *)

val kind : t -> string -> kind option

val windows : t -> string -> window list
(** Retained windows of a track, oldest first. *)

val window_value : kind -> window -> float
(** The headline value of one window: sum for [Rate], last for [Sample]. *)

val peak : t -> string -> float
(** Max headline window value of a track ([Rate]: max per-window sum;
    [Sample]: max sample); [nan] for unknown tracks. *)

val point_count : t -> int
(** Total retained windows across all tracks (the memory footprint). *)
