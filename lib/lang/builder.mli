(** Combinators for writing programs in the mini object language.

    These read close to the Java the paper analyses:

    {[
      let open Detmt_lang.Builder in
      cls ~cname:"Counter" ~state_fields:[ "count" ]
        [ meth "bump" ~params:1
            [ sync (arg 0) [ state_incr "count" 1 ];
              compute 5.0 ] ]
    ]}

    See {!Dml} for the equivalent concrete syntax. *)

open Ast

(** {1 Synchronisation parameters} *)

val this : sync_param

val arg : int -> sync_param
(** A method parameter — announceable at method entry (section 4.2). *)

val local : string -> sync_param

val field : string -> sync_param
(** An instance variable — spontaneous. *)

val global : string -> sync_param

(** {1 Mutex expressions} *)

val mconst : int -> mexpr

val marg : int -> mexpr

val mfield : string -> mexpr

(** {1 Statements} *)

val compute : float -> stmt
(** A local computation of the given virtual milliseconds. *)

val assign : string -> mexpr -> stmt

val assign_field : string -> mexpr -> stmt

val sync : sync_param -> block -> stmt
(** [synchronized (param) { body }]. *)

val lock_acquire : sync_param -> stmt
(** Explicit java.util.concurrent lock (section 5): acquisition and release
    need not nest lexically. *)

val lock_release : sync_param -> stmt

val wait : sync_param -> stmt

val wait_until : sync_param -> field:string -> min:int -> stmt
(** Java guarded-wait idiom: [while (field < min) param.wait();]. *)

val notify : sync_param -> stmt

val notify_all : sync_param -> stmt

val nested : service:int -> float -> stmt
(** A nested remote invocation of the given duration. *)

val state_incr : string -> int -> stmt
(** Shared-state update; must run under a lock (section 2). *)

val if_ : cond -> block -> block -> stmt

val when_ : cond -> block -> stmt

val for_ : int -> block -> stmt

val for_arg : int -> block -> stmt
(** Iteration count carried in a request argument. *)

val call : string -> stmt

val virtual_call : selector:int -> string list -> stmt
(** Dynamic dispatch: the runtime type (candidate index) travels in request
    argument [selector]. *)

(** {1 Conditions} *)

val arg_bool : int -> cond

val field_eq_arg : string -> int -> cond

(** {1 Methods and classes} *)

val meth :
  ?final:bool -> ?exported:bool -> ?params:int -> string -> block ->
  Class_def.method_def
(** An exported, final method by default — a "start method". *)

val helper :
  ?final:bool -> ?params:int -> string -> block -> Class_def.method_def
(** A non-exported method, reachable only through calls. *)

val cls :
  ?mutex_fields:(string * int) list ->
  ?state_fields:string list ->
  ?globals:(string * int) list ->
  cname:string ->
  Class_def.method_def list ->
  Class_def.t
