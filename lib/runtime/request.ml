(* Client requests.

   The [uid] is the request's position in the total order established by the
   group communication system, so it is identical on every replica; one
   execution thread per request is created under the same id.  All random
   decisions of the paper's benchmark travel in [args]. *)

type t = {
  uid : int; (* total-order position; doubles as the thread id *)
  client : int;
  client_req : int; (* per-client sequence number, for duplicate detection *)
  meth : string; (* start method to invoke *)
  args : Detmt_lang.Ast.value array;
  sent_at : float; (* virtual time the client issued the request *)
  dummy : bool; (* PDS filler message: creates a no-op thread *)
}

let make ~uid ~client ~client_req ~meth ~args ~sent_at =
  { uid; client; client_req; meth; args; sent_at; dummy = false }

let dummy ~uid ~sent_at =
  { uid; client = -1; client_req = uid; meth = "__dummy"; args = [||];
    sent_at; dummy = true }
