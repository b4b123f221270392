(* The seen-set of packed (client, request) keys: an {!Int_table} key set,
   so a mark allocates nothing until the table doubles. *)
open Detmt_sim

type t = { keys : Int_table.t; mutable duplicates : int }

let key ~client ~request =
  if client < -1 || client >= 1 lsl 30 || request < 0 || request >= 1 lsl 32
  then
    invalid_arg
      (Printf.sprintf "Dedup.key: client %d request %d out of range" client
         request);
  ((client + 1) lsl 32) lor request

let unkey k = ((k asr 32) - 1, k land 0xFFFF_FFFF)

let create () = { keys = Int_table.create_set (); duplicates = 0 }

let seen t ~client ~request = Int_table.mem t.keys (key ~client ~request)

let mark t ~client ~request =
  if Int_table.add t.keys (key ~client ~request) 0 then false
  else begin
    t.duplicates <- t.duplicates + 1;
    true
  end

let count t = Int_table.length t.keys

let duplicates t = t.duplicates

(* State transfer: the rejoining replica inherits the donor's seen-set so a
   client retry of an already-executed request stays suppressed. *)
let copy t = { keys = Int_table.copy t.keys; duplicates = 0 }

(* Shard merge: the surviving group absorbs the retiring group's ledger so a
   retry of a request the retired group executed stays suppressed after its
   objects were re-routed. *)
let merge ~into t =
  Int_table.fold (fun k _ () -> ignore (Int_table.add into.keys k 0)) t.keys ()
