(* SEQ — strictly sequential request execution in total order.

   The baseline most object replication systems use: one request runs from
   start to finish (nested invocations included) before the next starts.
   Trivially deterministic; never uses more than one CPU; does not use the
   idle time during nested invocations; deadlocks on re-entrant nested
   invocation chains and on any condition-variable wait. *)

open Detmt_runtime
module Audit = Detmt_obs.Audit

type t = {
  sub : Substrate.t;
  pending : int Queue.t; (* delivered, not yet started *)
  mutable active : int option;
}

let release t tid = Substrate.perform t.sub (Substrate.thread t.sub tid)

let activate_next t =
  match Queue.take_opt t.pending with
  | None -> t.active <- None
  | Some tid ->
    t.active <- Some tid;
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "starts";
      Substrate.audit t.sub ~tid ~action:Audit.Start_thread
        ~rule:Audit.Sequential_turn
        ~candidates:(List.of_seq (Queue.to_seq t.pending))
        ()
    end;
    (Substrate.actions t.sub).start_thread tid

let on_request t tid =
  ignore (Substrate.admit t.sub ~tid);
  Queue.add tid t.pending;
  if t.active = None then activate_next t
  else if Substrate.observing t.sub then begin
    Substrate.incr t.sub "deferrals";
    Substrate.observe t.sub "queue_depth"
      (float_of_int (Queue.length t.pending));
    Substrate.audit t.sub ~tid ~action:Audit.Defer ~rule:Audit.Queue_wait
      ~candidates:(Option.to_list t.active)
      ()
  end

let on_lock t tid ~syncid:_ ~mutex =
  (* Only one thread ever runs, so every mutex is free (re-entrant entries
     are short-circuited by the replica). *)
  assert (t.active = Some tid);
  assert ((Substrate.actions t.sub).mutex_free_for ~tid ~mutex);
  if Substrate.observing t.sub then begin
    Substrate.incr t.sub "grants";
    Substrate.audit t.sub ~tid ~action:Audit.Grant_lock ~mutex
      ~rule:Audit.Mutex_free ()
  end;
  release t tid

(* A wait under SEQ can only be woken by the same request chain; resume
   immediately.  (In practice waits deadlock under SEQ — see the paper's
   argument for multithreading.)  Nor does SEQ use the nested idle time:
   the active thread simply continues on its reply. *)
let on_wakeup t tid ~mutex:_ = release t tid

let policy sub : Sched_iface.sched =
  let t = { sub; pending = Queue.create (); active = None } in
  let base =
    Sched_iface.no_op_sched ~name:(Substrate.name sub)
      ~on_request:(on_request t) ~on_lock:(on_lock t) ~on_wakeup:(on_wakeup t)
      ~on_nested_reply:(release t)
  in
  { base with
    on_terminate =
      (fun tid ->
        Substrate.retire t.sub ~tid;
        if t.active = Some tid then activate_next t) }
