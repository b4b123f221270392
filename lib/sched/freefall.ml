(* Freefall — a deliberately NON-deterministic baseline.

   Models what an unmodified JVM does: locks are granted first-come
   first-served, but ties and wake-ups are broken by a per-replica random
   generator, the way OS scheduling jitter would.  Replicas diverge — the
   consistency checker must catch it.  This is the motivation experiment
   (E10): why deterministic multithreading is needed at all. *)

open Detmt_sim
open Detmt_runtime

type t = {
  sub : Substrate.t;
  rng : Rng.t;
  waiting : Substrate.thread Seq_index.t; (* tid -> thread held at a gate *)
}

let grant t (th : Substrate.thread) =
  Seq_index.remove t.waiting th.tid;
  if Substrate.observing t.sub then Substrate.incr t.sub "grants";
  Substrate.perform t.sub th

(* Ascending tid by construction — the same order the replaced fold+sort
   produced, so the random pick consumes the rng stream identically. *)
let candidates t ~mutex =
  let rec go tid acc =
    if tid < 0 then List.rev acc
    else
      let th = Seq_index.get t.waiting tid in
      go (Seq_index.next_above t.waiting tid)
        (if th.gate_mutex = mutex then th :: acc else acc)
  in
  go (Seq_index.min_key t.waiting) []

let wake_random t ~mutex =
  match candidates t ~mutex with
  | [] -> ()
  | cands ->
    (* Random pick: the per-replica divergence source. *)
    grant t (List.nth cands (Rng.int t.rng (List.length cands)))

(* A lock or a re-acquisition: granted at once when the mutex is free,
   otherwise held until a release picks it. *)
let request t gate tid ~mutex =
  let th = Substrate.thread t.sub tid in
  if (Substrate.actions t.sub).mutex_free_for ~tid ~mutex then
    Substrate.perform t.sub th
  else begin
    Substrate.hold th gate ~mutex;
    Seq_index.add t.waiting tid th
  end

let policy sub : Sched_iface.sched =
  let actions = Substrate.actions sub in
  let t =
    { sub;
      rng = Rng.create (Int64.of_int (0x5EED + actions.replica_id));
      waiting = Seq_index.create () }
  in
  let base =
    Sched_iface.no_op_sched ~name:(Substrate.name sub)
      ~on_request:(fun tid ->
        ignore (Substrate.admit sub ~tid);
        actions.start_thread tid)
      ~on_lock:(fun tid ~syncid:_ ~mutex -> request t Substrate.Lock tid ~mutex)
      ~on_wakeup:(request t Substrate.Reacquire)
      ~on_nested_reply:(fun tid ->
        Substrate.perform sub (Substrate.thread sub tid))
  in
  { base with
    on_unlock =
      (fun _tid ~syncid:_ ~mutex ~freed -> if freed then wake_random t ~mutex);
    on_wait = (fun _tid ~mutex -> wake_random t ~mutex);
    on_terminate = (fun tid -> Substrate.retire sub ~tid) }
