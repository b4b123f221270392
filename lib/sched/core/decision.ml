(* The decision-module signatures of the two-module scheduler architecture.

   "The scheduler is split into a generic bookkeeping module and an
   algorithm-specific decision module" (section 5).  A decision module is a
   policy over a prepared {!Substrate}: it receives the substrate (which
   already carries the replica actions, the configuration and — for
   prediction-aware variants — a bookkeeping instance) and returns the
   scheduler callback record.

   Two signatures coexist:

   - {!Serial}: one grant at a time, worker-pool width fixed at 1.  All
     nine paper schedulers are serial modules.
   - {!Parallel}: the policy additionally receives a {!Pool} — a
     deterministic allocator over [Substrate.workers] simulated workers —
     and may hold several threads in flight at once (multi-grant decisions,
     worker-completion bookkeeping).  The conflict-graph family (cgs/pcgs)
     lives here.

   {!Of_serial} lifts a serial module into the parallel signature (pool
   width 1), so the registry stores one constructor shape. *)

open Detmt_runtime

module type Serial = sig
  val name : string

  val needs_prediction : bool
  (** Whether [instantiate] must build a {!Bookkeeping} from the class
      summary (and fail without one). *)

  val policy : Substrate.t -> Sched_iface.sched
end

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
   occupancy (which varies with delivery timing across replicas). *)
module Pool = struct
  type t = {
    sub : Substrate.t;
    capacity : int;
    free_set : unit Seq_index.t; (* released worker indices *)
    mutable next_fresh : int; (* next never-used index *)
    by_tid : (int, int) Hashtbl.t; (* running tid -> worker *)
    mutable busy : int;
  }

  let create sub =
    { sub; capacity = Substrate.workers sub;
      free_set = Seq_index.create_set (); next_fresh = 0;
      by_tid = Hashtbl.create 16; busy = 0 }

  let capacity t = t.capacity

  let busy t = t.busy

  let saturated t = t.busy >= t.capacity

  let dispatch t ~tid =
    if Hashtbl.mem t.by_tid tid then
      invalid_arg
        (Printf.sprintf "%s: t%d already on a worker"
           (Substrate.name t.sub) tid);
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
    Hashtbl.replace t.by_tid tid w;
    (Substrate.actions t.sub).pool_dispatch ~worker:w ~tid;
    w

  let complete t ~tid =
    match Hashtbl.find t.by_tid tid with
    | exception Not_found -> ()
    | w ->
      Hashtbl.remove t.by_tid tid;
      Seq_index.add t.free_set w ();
      t.busy <- t.busy - 1;
      (Substrate.actions t.sub).pool_complete ~worker:w ~tid
end

module type Parallel = sig
  val name : string

  val needs_prediction : bool

  val policy : Substrate.t -> Pool.t -> Sched_iface.sched
  (** The pool is created over [Substrate.workers] workers; the policy owns
      its occupancy (every dispatched thread must eventually be completed
      back). *)
end

module Of_serial (D : Serial) : Parallel = struct
  let name = D.name

  let needs_prediction = D.needs_prediction

  let policy sub pool =
    if Pool.capacity pool <> 1 then
      invalid_arg
        (Printf.sprintf
           "%s: serial decision module cannot drive %d workers" D.name
           (Pool.capacity pool));
    D.policy sub
end

(* --------------------------- instantiation ----------------------------- *)

let make_bookkeeping ~name ~needs_prediction
    ~(summary : Detmt_analysis.Predict.class_summary option) =
  if needs_prediction then
    match summary with
    | Some _ -> Some (Bookkeeping.create ~summary ())
    | None ->
      invalid_arg
        (Printf.sprintf
           "%s needs a prediction summary (run Transform.predictive)" name)
  else None

let instantiate (module D : Serial) ~config
    ~(summary : Detmt_analysis.Predict.class_summary option) actions =
  let bookkeeping =
    make_bookkeeping ~name:D.name ~needs_prediction:D.needs_prediction
      ~summary
  in
  D.policy (Substrate.create ?bookkeeping ?summary ~name:D.name ~config actions)

let instantiate_parallel (module D : Parallel) ~config
    ~(summary : Detmt_analysis.Predict.class_summary option) ~workers actions
    =
  if workers < 1 then
    invalid_arg (Printf.sprintf "%s: workers < 1" D.name);
  let bookkeeping =
    make_bookkeeping ~name:D.name ~needs_prediction:D.needs_prediction
      ~summary
  in
  let sub =
    Substrate.create ?bookkeeping ?summary ~workers ~name:D.name ~config
      actions
  in
  D.policy sub (Pool.create sub)
