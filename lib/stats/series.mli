(** Named (x, y) series and a rough ASCII chart, used to render the
    paper-figure reproductions as both tables and plots. *)

type t

val create : name:string -> t

val add : t -> x:float -> y:float -> unit

val points : t -> (float * float) list
(** Points in insertion order. *)

val y_at : t -> float -> float option
(** Exact-x lookup. *)

val chart : Format.formatter -> t list -> unit
(** Plot several series on shared axes (60 columns by 16 rows); each series
    is drawn with its own letter ([A], [B], ...) and a legend is printed
    underneath. *)
