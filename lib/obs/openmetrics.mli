(** OpenMetrics text exposition of the metrics registry.

    Deterministic: families sorted by name, dotted names sanitised with a
    ["detmt_"] prefix, counters suffixed [_total], gauges paired with a
    [<name>_peak] family, histograms exposed as cumulative
    [_bucket{le=...}] series from the {!Hdr} buckets plus [_sum]/[_count],
    terminated by [# EOF]. *)

val export : Metrics.t -> string

