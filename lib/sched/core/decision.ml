(* Decision policies of the two-module scheduler architecture.

   "The scheduler is split into a generic bookkeeping module and an
   algorithm-specific decision module" (section 5).  A decision policy
   receives a prepared {!Substrate} (which already carries the replica
   actions, the configuration and — for prediction-aware entries — a
   bookkeeping instance) and returns the scheduler callback record.

   A [Serial] policy grants one thing at a time at pool width 1; all nine
   paper schedulers are serial.  A [Parallel] policy additionally receives
   a {!Pool} — a deterministic allocator over [Substrate.workers] simulated
   workers — and may hold several threads in flight at once (multi-grant
   decisions, worker-completion bookkeeping): the conflict-graph family. *)

open Detmt_runtime

(* ------------------------------- pool ---------------------------------- *)

(* A deterministic worker allocator.  Workers are identified by index; a
   dispatch always takes the lowest free index, so the assignment (and the
   observability series keyed on it) is a pure function of the grant order
   and never of wall-clock or hashing accidents.

   [capacity] is the nominal width a policy consults ([saturated]) before
   dispatching fresh work, but [dispatch] itself never fails: a policy may
   deliberately oversubscribe — the conflict-graph family resumes
   condition-variable waiters on a transient extra worker so that wakeup
   ordering is a function of the per-mutex event order only, never of pool
   occupancy (which varies with delivery timing across replicas).

   The pool does not remember which thread runs where: [dispatch] returns
   the worker and the policy keeps it beside its own per-thread state,
   handing it back to [complete]. *)
module Pool = struct
  type t = {
    sub : Substrate.t;
    capacity : int;
    free_set : unit Seq_index.t; (* released worker indices *)
    mutable next_fresh : int; (* next never-used index *)
    mutable busy : int;
  }

  let create sub =
    { sub; capacity = Substrate.workers sub;
      free_set = Seq_index.create_set (); next_fresh = 0; busy = 0 }

  let busy t = t.busy

  let saturated t = t.busy >= t.capacity

  let dispatch t ~tid =
    let w =
      match Seq_index.min_key t.free_set with
      | -1 ->
        let w = t.next_fresh in
        t.next_fresh <- w + 1;
        w
      | w ->
        Seq_index.remove t.free_set w;
        w
    in
    t.busy <- t.busy + 1;
    (Substrate.actions t.sub).pool_dispatch ~worker:w ~tid;
    w

  let complete t ~worker ~tid =
    if worker >= 0 then begin
      Seq_index.add t.free_set worker ();
      t.busy <- t.busy - 1;
      (Substrate.actions t.sub).pool_complete ~worker ~tid
    end
end

(* ---------------------------- instantiation ---------------------------- *)

type policy =
  | Serial of (Substrate.t -> Sched_iface.sched)
  | Parallel of (Substrate.t -> Pool.t -> Sched_iface.sched)

let instantiate policy ~needs_prediction (cfg : Sched_config.t) actions =
  let summary = cfg.Sched_config.summary in
  let bookkeeping =
    if needs_prediction then Some (Bookkeeping.create ~summary ()) else None
  in
  let sub =
    Substrate.create ?bookkeeping ?summary ~workers:cfg.Sched_config.workers
      ~name:cfg.Sched_config.scheduler ~config:cfg.Sched_config.runtime
      actions
  in
  match policy with
  | Serial policy -> policy sub
  | Parallel policy -> policy sub (Pool.create sub)
