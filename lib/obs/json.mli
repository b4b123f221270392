(** Minimal JSON values and a deterministic printer, used by the
    Chrome-trace and benchmark exporters without an external
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering; object fields keep the order given. *)

val member : string -> t -> t option
(** [member key v] is the field [key] when [v] is an object. *)
