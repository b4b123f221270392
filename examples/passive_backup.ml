(* Passive replication: primary-backup with request-log re-execution — the
   paper's second motivation for deterministic scheduling:

   "State modifications not yet propagated to the backup replicas can be
   applied to them by re-executing method invocations from a request log.
   Such re-executions are consistent to the state of a failed primary only
   if a deterministic scheduling strategy is used."

   A primary executes requests under MAT and logs them; we checkpoint, let
   it process more, then "fail" it and bring a backup up to date by
   replaying the log suffix on top of the checkpoint.  The backup's state
   fingerprint must equal the primary's.

   Run with:  dune exec examples/passive_backup.exe *)

open Detmt

let account_class =
  let open Builder in
  cls ~cname:"Account" ~state_fields:[ "balance"; "ops" ]
    [ meth "deposit" ~params:1
        [ sync (arg 0) [ state_incr "balance" 5; state_incr "ops" 1 ];
          compute 0.5;
        ];
      meth "withdraw" ~params:1
        [ sync (arg 0) [ state_incr "balance" (-2); state_incr "ops" 1 ];
          compute 0.5;
        ];
    ]

let () =
  let engine = Engine.create () in
  let passive =
    Passive.create ~engine ~cls:account_class ~scheduler:"mat" ()
  in
  let rng = Rng.create 2026L in
  let send i =
    let meth = if Rng.bool rng 0.6 then "deposit" else "withdraw" in
    Passive.submit passive ~client:0 ~client_req:i ~meth
      ~args:[| Ast.Vmutex (Rng.int rng 4) |]
      ~on_reply:(fun ~client:_ ~client_req:_ ~response_ms:_ -> ())
  in
  for i = 0 to 19 do send i done;
  Engine.run engine;
  let checkpoint = Passive.checkpoint passive in
  Format.printf "checkpoint taken after %d logged requests@."
    (Passive.log_length passive);

  for i = 20 to 39 do send i done;
  Engine.run engine;
  let primary = Passive.primary passive in
  Format.printf "primary:  %s (fingerprint %Lx)@."
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (Replica.state_snapshot primary)))
    (Replica.state_fingerprint primary);

  (* The primary "fails"; a cold backup restores the checkpoint and replays
     only the un-propagated suffix of the log. *)
  let backup = Passive.replay passive ~from:checkpoint () in
  Format.printf "backup:   %s (fingerprint %Lx)@."
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (Replica.state_snapshot backup)))
    (Replica.state_fingerprint backup);
  let ok =
    Replica.state_fingerprint primary = Replica.state_fingerprint backup
  in
  Format.printf "take-over %s: the re-execution reproduced the primary's \
                 state exactly.@."
    (if ok then "succeeded" else "FAILED");
  if not ok then exit 1
