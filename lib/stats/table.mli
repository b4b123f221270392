(** ASCII table rendering for the benchmark harness.

    Every figure in the paper is regenerated as such a table: one row per
    x-value (e.g. number of clients), one column per algorithm. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Cells beyond the column count are dropped; missing cells render empty. *)

val add_float_row : t -> label:string -> float list -> unit
(** Convenience: first column [label], remaining cells ["%.2f"]-formatted. *)

val rows : t -> string list list

val columns : t -> string list

val pp : Format.formatter -> t -> unit

val to_csv : t -> string
(** Comma-separated rendering (header line first). *)
