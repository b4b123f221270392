(** Log-linear bucketed histogram (HdrHistogram layout).

    Replaces the exact sample lists behind high-volume metrics so memory
    stays O(occupied buckets) at 16k clients.  Each power of two is split
    into 16 linear sub-buckets, bounding the relative error of a quantile
    at ~3.1%.  Count, sum, min and max are exact; quantiles are reported
    as the containing bucket's upper bound clamped to the observed range.
    Fully deterministic: bucket placement is a pure function of the value
    and iteration sorts by bucket index. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val total : t -> float
(** Exact sum of all samples. *)

val mean : t -> float

val min : t -> float

val max : t -> float

val quantile : t -> float -> float
(** Bucket-approximate; [nan] when empty, raises on q outside [0;1]. *)

val cumulative : t -> (float * int) list
(** [(upper_bound, samples <= upper_bound)] per occupied bucket, ascending —
    the OpenMetrics [_bucket{le=...}] series minus the final [+Inf] entry. *)

val bucket_count : t -> int
(** Occupied buckets (the memory footprint), including the zero bucket. *)

val pp : Format.formatter -> t -> unit
