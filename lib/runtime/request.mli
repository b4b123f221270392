(** Client requests as delivered by the total-order broadcast. *)

type t = {
  uid : int;  (** total-order position; doubles as the thread id *)
  client : int;
  client_req : int;  (** per-client sequence number *)
  meth : string;  (** start method to invoke *)
  args : Detmt_lang.Ast.value array;
  sent_at : float;  (** virtual time the client issued the request *)
  dummy : bool;  (** PDS filler message: creates a no-op thread *)
}

val make :
  uid:int ->
  client:int ->
  client_req:int ->
  meth:string ->
  args:Detmt_lang.Ast.value array ->
  sent_at:float ->
  t

val dummy : uid:int -> sent_at:float -> t
