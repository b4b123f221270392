(** Per-mutex FIFO queues of threads admitted by policy but waiting for the
    mutex to become free.  Shared by several decision modules. *)

type t

val create : Detmt_sim.Slot_map.t -> t
(** Queues keyed on the replica's mutex slots
    ({!Detmt_runtime.Sched_iface.actions}[.mutex_slots]). *)

val push : t -> mutex:int -> int -> unit

val head : t -> mutex:int -> int option

val pop : t -> mutex:int -> int option

val mem : t -> mutex:int -> tid:int -> bool

val is_empty : t -> mutex:int -> bool

val waiting : t -> mutex:int -> int list
