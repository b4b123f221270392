(* Leader failure and take-over time (section 3.5).

   Three replicas serve eight clients; at t = 150 ms replica 0 — the LSA
   leader — is killed.  Under LSA, the survivors stall until the failure
   detector fires and a new leader takes over the scheduling decisions;
   under MAT, all replicas are equal and the clients barely notice.

   Run with:  dune exec examples/failover_demo.exe *)

open Detmt

let kill_at = 150.0

let run scheduler =
  let wl = Disjoint.default in
  let cls = Disjoint.cls wl in
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls
      ~params:{ Active.default_params with scheduler }
      ()
  in
  Failover.kill_and_measure ~system ~replica:0 ~at:kill_at;
  Client.run_clients ~engine ~system ~clients:8 ~requests_per_client:30
    ~gen:Disjoint.gen ~until_ms:60_000.0 ();
  let times = Active.reply_times system in
  let analysis = Failover.analyze ~kill_at times in
  let report = Consistency.check (Active.live_replicas system) in
  Format.printf "%-7s %a  survivors consistent=%b@." scheduler Failover.pp
    analysis
    (report.Consistency.states_agree && report.Consistency.acquisitions_agree);
  (* A small reply-timeline sketch around the failure. *)
  let window = List.filter (fun t -> t > 100.0 && t < 260.0) times in
  let buckets = Array.make 16 0 in
  List.iter
    (fun t ->
      let i = int_of_float ((t -. 100.0) /. 10.0) in
      if i >= 0 && i < 16 then buckets.(i) <- buckets.(i) + 1)
    window;
  Format.printf "        replies/10ms around the kill (t=100..260):  ";
  Array.iter (fun n -> Format.printf "%c" (if n = 0 then '.' else
      Char.chr (Char.code '0' + min 9 n))) buckets;
  Format.printf "@."

let () =
  Format.printf
    "Leader failover: replica 0 killed at t=%.0f ms, failure detected after \
     %.0f ms.@.@."
    kill_at Active.default_params.detection_timeout_ms;
  List.iter run [ "lsa"; "mat"; "sat"; "pmat" ];
  Format.printf
    "@.LSA shows the hole in the reply stream the paper predicts (high \
     take-over@.time); the symmetric algorithms keep answering because \
     every replica makes@.the same decisions locally.@."
