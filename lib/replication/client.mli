(** Closed-loop clients, as in the Figure 1 benchmark: each client sends one
    request, waits for the (first) reply, optionally thinks, and repeats.
    All random decisions a request needs are pre-drawn from the client's own
    seeded stream and shipped in the request arguments, so replicas never
    draw randomness themselves.

    With [timeout_ms] set, an unanswered request is resubmitted after a
    deterministic exponential backoff (timeout, 2x, 4x, ...).  Resubmission
    is idempotent end to end: replicas suppress the duplicate and the
    replication layer never answers one request twice. *)

type request_gen =
  client:int -> seq:int -> Detmt_sim.Rng.t -> string * Detmt_lang.Ast.value array
(** Produce (start method, arguments) for a client's [seq]-th request. *)

type submit_fn =
  client:int ->
  client_req:int ->
  meth:string ->
  args:Detmt_lang.Ast.value array ->
  on_reply:Active.on_reply ->
  unit
(** What a client needs from a replicated system: submit one request, hear
    back once.  {!Active.submit} and {!Reconfig.submit} both have this shape, so
    the {e same} client code (and hence the same per-client random streams,
    in the same draw order) drives the unsharded and the sharded paths. *)

type t

val start_clients :
  engine:Detmt_sim.Engine.t ->
  submit:submit_fn ->
  clients:int ->
  requests_per_client:int ->
  gen:request_gen ->
  ?think_time_ms:float ->
  ?seed:int64 ->
  ?timeout_ms:float ->
  ?max_retries:int ->
  unit ->
  t list
(** Create clients [0 .. clients - 1], each on its own stream split in id
    order from one master [Rng.create seed] (default [42L]), and send each
    one's first request.  The engine is not run: {!run_clients_stats_on}
    runs it to completion, and a live view can step it.  [timeout_ms] arms
    each client's retry timer (off by default); [max_retries] (default 5)
    caps resubmissions per request. *)

type run_stats = {
  run_completed : int;  (** requests answered, across all clients *)
  run_retries : int;  (** timeout resubmissions, across all clients *)
  run_outstanding : int;  (** clients still waiting when the run stopped *)
}

val run_clients_stats_on :
  engine:Detmt_sim.Engine.t ->
  submit:submit_fn ->
  ?diagnose:(stuck:int list -> string) ->
  clients:int ->
  requests_per_client:int ->
  gen:request_gen ->
  ?think_time_ms:float ->
  ?seed:int64 ->
  ?until_ms:float ->
  ?timeout_ms:float ->
  ?max_retries:int ->
  unit ->
  run_stats
(** Create [clients] closed-loop clients against an arbitrary [submit]
    target, run the simulation until every client finished its quota (or
    [until_ms] virtual time elapsed).  Raises [Failure] if the simulation
    deadlocks with requests outstanding; [diagnose] (given the stuck client
    ids) produces the failure message. *)

val run_clients_stats :
  engine:Detmt_sim.Engine.t ->
  system:Active.t ->
  clients:int ->
  requests_per_client:int ->
  gen:request_gen ->
  ?think_time_ms:float ->
  ?seed:int64 ->
  ?until_ms:float ->
  ?timeout_ms:float ->
  ?max_retries:int ->
  unit ->
  run_stats
(** {!run_clients_stats_on} against one {!Active} group, with the full
    deadlock report: the message lists the unanswered requests, every live
    replica's blocked threads and the current lock holders. *)

val active_diagnostics : Active.t -> string
(** One group's deadlock forensics (unanswered requests, blocked threads,
    lock holders), newline-prefixed — {!Reconfig} stitches these into its
    per-group report. *)

val stuck_header : stuck:int list -> string
(** The first lines of a deadlock report: how many clients are still waiting
    and which — the multi-group runtime ({!Reconfig}) prepends this to
    their stitched per-group forensics. *)

val run_clients :
  engine:Detmt_sim.Engine.t ->
  system:Active.t ->
  clients:int ->
  requests_per_client:int ->
  gen:request_gen ->
  ?think_time_ms:float ->
  ?seed:int64 ->
  ?until_ms:float ->
  unit ->
  unit
(** {!run_clients_stats} without the stats (and without retries). *)

val run_open_loop :
  engine:Detmt_sim.Engine.t ->
  submit:submit_fn ->
  rate_per_s:float ->
  requests:int ->
  gen:request_gen ->
  ?seed:int64 ->
  ?until_ms:float ->
  unit ->
  unit
(** Open-loop (Poisson) arrivals at [rate_per_s], [requests] in total,
    against an arbitrary [submit] target, from a single logical client
    population — for throughput/saturation studies: an overloaded scheduler
    builds an unbounded backlog instead of throttling the clients.  Runs to
    completion (or [until_ms]). *)
