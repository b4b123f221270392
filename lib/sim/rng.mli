(** Deterministic, splittable pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator flows through this module so
    that a run is a pure function of its seeds.  The generator is the SplitMix64
    construction of Steele, Lea and Flood; it is fast, has a 64-bit state and
    supports {!split}, which derives an independent stream — used to give each
    client, replica and workload its own stream without coordination. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle driven by [t]. *)
