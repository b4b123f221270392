open Detmt_sim
open Detmt_runtime

type request_gen =
  client:int -> seq:int -> Rng.t -> string * Detmt_lang.Ast.value array

type submit_fn =
  client:int ->
  client_req:int ->
  meth:string ->
  args:Detmt_lang.Ast.value array ->
  on_reply:(response_ms:float -> unit) ->
  unit

(* A client drives any replicated system through a [submit_fn]; the closed
   loop below draws from the client's own stream in exactly the same order
   whatever stands behind the function, which is what makes a 1-shard
   sharded run bit-identical to the unsharded path. *)
type t = {
  engine : Engine.t;
  submit : submit_fn;
  id : int;
  rng : Rng.t;
  gen : request_gen;
  think_time_ms : float;
  max_requests : int;
  timeout_ms : float option;
  max_retries : int;
  mutable sent : int;
  mutable completed : int;
  mutable waiting : bool;
  mutable current : int; (* the request seq we are waiting on *)
  mutable retries : int;
  mutable cur_meth : string; (* request being waited on, kept for retries *)
  mutable cur_args : Detmt_lang.Ast.value array;
  mutable think_h : Engine.handler_id; (* typed think-time expiry *)
  mutable timeout_h : Engine.handler_id;
      (* typed retry timer; the argument packs (seq, attempt) as
         [seq * (max_retries + 1) + attempt] *)
}

let active_submit system ~client ~client_req ~meth ~args ~on_reply =
  Active.submit system ~client ~client_req ~meth ~args ~on_reply

(* Retry [attempt] of request [seq] after timeout * 2^attempt — deterministic
   exponential backoff, no randomness, so runs replay exactly.  The
   replication layer's duplicate suppression makes resubmission idempotent:
   replicas that already delivered the request drop the copy, and an
   already-answered request is not re-registered. *)
let rec arm_timeout t ~seq ~attempt =
  match t.timeout_ms with
  | None -> ()
  | Some timeout ->
    let delay = timeout *. Float.pow 2.0 (float_of_int attempt) in
    Engine.post t.engine ~delay t.timeout_h
      ((seq * (t.max_retries + 1)) + attempt)

and on_timeout t packed =
  let seq = packed / (t.max_retries + 1)
  and attempt = packed mod (t.max_retries + 1) in
  if t.waiting && t.current = seq && attempt < t.max_retries then begin
    t.retries <- t.retries + 1;
    t.submit ~client:t.id ~client_req:seq ~meth:t.cur_meth ~args:t.cur_args
      ~on_reply:(reply_handler t ~seq);
    arm_timeout t ~seq ~attempt:(attempt + 1)
  end

and reply_handler t ~seq ~response_ms:_ =
  (* Guarded: a reply for a request we already moved past (late duplicate)
     must not double-count or restart the send loop. *)
  if t.waiting && t.current = seq then begin
    t.waiting <- false;
    t.completed <- t.completed + 1;
    on_reply t
  end

and send_next t =
  if t.sent < t.max_requests then begin
    let seq = t.sent in
    t.sent <- seq + 1;
    t.waiting <- true;
    t.current <- seq;
    let meth, args = t.gen ~client:t.id ~seq t.rng in
    t.cur_meth <- meth;
    t.cur_args <- args;
    t.submit ~client:t.id ~client_req:seq ~meth ~args
      ~on_reply:(reply_handler t ~seq);
    arm_timeout t ~seq ~attempt:0
  end

and on_reply t =
  if t.sent < t.max_requests then
    if t.think_time_ms > 0.0 then
      (* Think times are drawn exponentially around the configured mean,
         from the client's own stream. *)
      let think = Rng.exponential t.rng t.think_time_ms in
      Engine.post t.engine ~delay:think t.think_h 0
    else send_next t

and start t = send_next t

let create_on ~engine ~submit ~id ~rng ~gen ?(think_time_ms = 0.0)
    ?(max_requests = 10) ?timeout_ms ?(max_retries = 5) () =
  (match timeout_ms with
  | Some ms when ms <= 0.0 -> invalid_arg "Client.create: timeout_ms <= 0"
  | _ -> ());
  if max_retries < 0 then invalid_arg "Client.create: max_retries < 0";
  let t =
    { engine; submit; id; rng; gen; think_time_ms; max_requests; timeout_ms;
      max_retries; sent = 0; completed = 0; waiting = false; current = -1;
      retries = 0; cur_meth = ""; cur_args = [||]; think_h = 0;
      timeout_h = 0 }
  in
  t.think_h <- Engine.register_handler engine (fun _ -> send_next t);
  t.timeout_h <- Engine.register_handler engine (fun packed -> on_timeout t packed);
  t

let completed t = t.completed

let in_flight t = t.waiting

let retries t = t.retries

let run_open_loop ~engine ~system ~rate_per_s ~requests ~gen ?(seed = 42L)
    ?until_ms () =
  if rate_per_s <= 0.0 then invalid_arg "Client.run_open_loop: rate <= 0";
  let rng = Rng.create seed in
  let mean_gap_ms = 1000.0 /. rate_per_s in
  let completed = ref 0 in
  (* Arrival times are drawn as each arrival fires, so the schedule is
     independent of service completions (open loop).  One typed handler
     carries the arrival chain; its argument is the request seq. *)
  let arrive_h = ref 0 in
  arrive_h :=
    Engine.register_handler engine (fun seq ->
        let meth, args = gen ~client:0 ~seq rng in
        Active.submit system ~client:0 ~client_req:seq ~meth ~args
          ~on_reply:(fun ~response_ms:_ -> incr completed);
        if seq + 1 < requests then
          Engine.post engine ~delay:(Rng.exponential rng mean_gap_ms)
            !arrive_h (seq + 1));
  if requests > 0 then
    Engine.post engine ~delay:(Rng.exponential rng mean_gap_ms) !arrive_h 0;
  Engine.run ?until:until_ms engine;
  if !completed < requests && until_ms = None then
    failwith
      (Printf.sprintf "open-loop run drained with %d of %d requests answered"
         !completed requests)

type run_stats = {
  run_completed : int;
  run_retries : int;
  run_outstanding : int;
}

let status_to_string = function
  | Replica.Created -> "created"
  | Running -> "running"
  | Lock_blocked { syncid; mutex } ->
    Printf.sprintf "lock-blocked(sync %d, mutex %d)" syncid mutex
  | Wait_parked { mutex; _ } -> Printf.sprintf "waiting(mutex %d)" mutex
  | Reacquire_blocked { mutex; _ } ->
    Printf.sprintf "reacquire-blocked(mutex %d)" mutex
  | Nested_blocked { call_index } ->
    Printf.sprintf "nested-blocked(call %d)" call_index
  | Nested_ready { call_index } ->
    Printf.sprintf "nested-ready(call %d)" call_index
  | Commit_pending -> "commit-pending"
  | Terminated -> "terminated"

(* One replicated group's contribution to a deadlock report: the requests
   nobody answered, where every replica's threads are stuck, and who holds
   the locks they want. *)
let active_diagnostics system =
  let buf = Buffer.create 256 in
  let outstanding = Active.outstanding_requests system in
  Buffer.add_string buf
    (Printf.sprintf "\n  unanswered requests: %s"
       (if outstanding = [] then "none registered"
        else
          String.concat ", "
            (List.map
               (fun (c, r) -> Printf.sprintf "client %d req %d" c r)
               outstanding)));
  List.iter
    (fun r ->
      let threads = Replica.threads_overview r in
      let locks = Replica.lock_holders r in
      Buffer.add_string buf
        (Printf.sprintf "\n  replica %d: %s" (Replica.id r)
           (if threads = [] then "quiescent"
            else
              String.concat ", "
                (List.map
                   (fun (tid, st) ->
                     Printf.sprintf "t%d %s" tid (status_to_string st))
                   threads)));
      if locks <> [] then
        Buffer.add_string buf
          (Printf.sprintf "; locks held: %s"
             (String.concat ", "
                (List.map
                   (fun (m, tid) -> Printf.sprintf "mutex %d by t%d" m tid)
                   locks))))
    (Active.live_replicas system);
  Buffer.contents buf

(* When the event queue drains with clients still waiting, a bare "deadlock?"
   helps nobody: name the stuck clients and append per-system forensics. *)
let stuck_header ~stuck =
  Printf.sprintf
    "simulation drained with %d client(s) still waiting (deadlock?)\n\
    \  stuck clients: %s"
    (List.length stuck)
    (String.concat ", "
       (List.map (fun id -> Printf.sprintf "client %d" id) stuck))

let run_clients_stats_on ~engine ~submit
    ?(diagnose = fun ~stuck -> stuck_header ~stuck) ~clients
    ~requests_per_client ~gen ?(think_time_ms = 0.0) ?(seed = 42L) ?until_ms
    ?timeout_ms ?max_retries () =
  let master = Rng.create seed in
  let all =
    List.init clients (fun id ->
        create_on ~engine ~submit ~id ~rng:(Rng.split master) ~gen
          ~think_time_ms ~max_requests:requests_per_client ?timeout_ms
          ?max_retries ())
  in
  List.iter start all;
  Engine.run ?until:until_ms engine;
  let stuck = List.filter in_flight all in
  if stuck <> [] && until_ms = None then
    failwith (diagnose ~stuck:(List.map (fun c -> c.id) stuck));
  { run_completed = List.fold_left (fun n c -> n + completed c) 0 all;
    run_retries = List.fold_left (fun n c -> n + retries c) 0 all;
    run_outstanding = List.length stuck }

let run_clients_stats ~engine ~system ~clients ~requests_per_client ~gen
    ?(think_time_ms = 0.0) ?(seed = 42L) ?until_ms ?timeout_ms ?max_retries
    () =
  run_clients_stats_on ~engine ~submit:(active_submit system)
    ~diagnose:(fun ~stuck ->
      stuck_header ~stuck ^ active_diagnostics system)
    ~clients ~requests_per_client ~gen ~think_time_ms ~seed ?until_ms
    ?timeout_ms ?max_retries ()

let run_clients ~engine ~system ~clients ~requests_per_client ~gen
    ?(think_time_ms = 0.0) ?(seed = 42L) ?until_ms () =
  ignore
    (run_clients_stats ~engine ~system ~clients ~requests_per_client ~gen
       ~think_time_ms ~seed ?until_ms ())
