(** Sample accumulator with exact quantiles.

    Samples are stored (the experiments in this repository collect at most a
    few hundred thousand values) so quantiles are exact, not sketched. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** Mean of the samples; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two samples. *)

val min : t -> float

val max : t -> float

val total : t -> float

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0,1\]], nearest-rank; [nan] when empty. *)

val median : t -> float

val merge : t -> t -> t
(** Union of two accumulators (inputs unchanged). *)

val pp : Format.formatter -> t -> unit
(** One-line rendering: [n mean stddev min p50 p95 max]. *)
