(** The order fingerprint's payload identities, computed without building
    the tuple they hash.  Each function returns exactly what
    [Hashtbl.hash] returns for the tuple it names, so fingerprints folded
    from either agree bit for bit. *)

val request : client:int -> client_req:int -> meth:string -> dummy:bool -> int
(** [Hashtbl.hash (0, client, client_req, meth, dummy)]. *)

val nested_reply : tid:int -> call_index:int -> int
(** [Hashtbl.hash (1, tid, call_index)]. *)
