(* Freefall — a deliberately NON-deterministic baseline.

   Models what an unmodified JVM does: locks are granted first-come
   first-served, but ties and wake-ups are broken by a per-replica random
   generator, the way OS scheduling jitter would.  Replicas diverge — the
   consistency checker must catch it.  This is the motivation experiment
   (E10): why deterministic multithreading is needed at all. *)

open Detmt_sim
open Detmt_runtime

type kind = Plock | Preacquire

type t = {
  sub : Substrate.t;
  rng : Rng.t;
  waiting : (int * kind) Candidate_index.t; (* tid -> (mutex, kind) *)
}

let grant t tid kind =
  Candidate_index.remove t.waiting tid;
  if Substrate.observing t.sub then Substrate.incr t.sub "grants";
  let actions = Substrate.actions t.sub in
  match kind with
  | Plock -> actions.grant_lock tid
  | Preacquire -> actions.grant_reacquire tid

(* Ascending tid by construction — the same order the replaced fold+sort
   produced, so the random pick consumes the rng stream identically. *)
let candidates t ~mutex =
  Candidate_index.fold t.waiting ~init:[] ~f:(fun tid (m, kind) acc ->
      if m = mutex then (tid, kind) :: acc else acc)
  |> List.rev

let wake_random t ~mutex =
  match candidates t ~mutex with
  | [] -> ()
  | cands ->
    (* Random pick: the per-replica divergence source. *)
    let tid, kind = List.nth cands (Rng.int t.rng (List.length cands)) in
    grant t tid kind

let on_lock t tid ~syncid:_ ~mutex =
  let actions = Substrate.actions t.sub in
  if actions.mutex_free_for ~tid ~mutex then actions.grant_lock tid
  else Candidate_index.add t.waiting ~key:tid (mutex, Plock)

let on_wakeup t tid ~mutex =
  let actions = Substrate.actions t.sub in
  if actions.mutex_free_for ~tid ~mutex then actions.grant_reacquire tid
  else Candidate_index.add t.waiting ~key:tid (mutex, Preacquire)

let policy sub : Sched_iface.sched =
  let actions = Substrate.actions sub in
  let t =
    { sub;
      rng = Rng.create (Int64.of_int (0x5EED + actions.replica_id));
      waiting = Candidate_index.create () }
  in
  let base =
    Sched_iface.no_op_sched ~name:(Substrate.name sub)
      ~on_request:(fun tid ->
        ignore (Substrate.admit sub ~tid);
        actions.start_thread tid)
      ~on_lock:(on_lock t) ~on_wakeup:(on_wakeup t)
      ~on_nested_reply:(fun tid -> actions.resume_nested tid)
  in
  { base with
    on_unlock =
      (fun _tid ~syncid:_ ~mutex ~freed -> if freed then wake_random t ~mutex);
    on_wait = (fun _tid ~mutex -> wake_random t ~mutex);
    on_terminate = (fun tid -> Substrate.retire sub ~tid) }

module Base : Decision.Serial = struct
  let name = "freefall"

  let needs_prediction = false

  let policy = policy
end
