(* Scheduler decision audit log entries.

   Every grant or deferral a scheduler makes is explained by a [rule] — the
   clause of the algorithm that fired — together with the competing
   candidates it beat (or that beat it).  Rules are typed, not strings, so
   the audit is cheap to build and stable to render. *)

type action =
  | Start_thread
  | Grant_lock
  | Grant_reacquire
  | Resume_nested
  | Defer
  | Promote
  | Handoff
  | Commit_ws
  | Abort_ws

type rule =
  (* grants *)
  | Mutex_free
  | Fifo_head
  | Sequential_turn
  | Leader_greedy
  | Follower_enforced
  | Round_decided
  | Round_second
  | Primary_continue
  | Promote_ex_primary
  | Promote_oldest
  | Last_lock_handoff
  | Predicted_no_conflict
  | Speculative
  | Slot_barrier
  (* deferrals *)
  | Mutex_held
  | Not_primary
  | Batch_wait
  | Enforced_order_wait
  | Predecessor_unpredicted
  | Predecessor_conflict
  | Queue_wait
  | Stale_read
  | Unsafe_op

type entry = {
  at : float; (* virtual ms *)
  replica : int;
  scheduler : string;
  tid : int;
  action : action;
  mutex : int option;
  rule : rule;
  candidates : int list; (* competing tids at decision time *)
}

let action_name = function
  | Start_thread -> "start"
  | Grant_lock -> "grant-lock"
  | Grant_reacquire -> "grant-reacquire"
  | Resume_nested -> "resume-nested"
  | Defer -> "defer"
  | Promote -> "promote"
  | Handoff -> "handoff"
  | Commit_ws -> "commit-ws"
  | Abort_ws -> "abort-ws"

let rule_name = function
  | Mutex_free -> "mutex-free"
  | Fifo_head -> "fifo-head"
  | Sequential_turn -> "sequential-turn"
  | Leader_greedy -> "leader-greedy"
  | Follower_enforced -> "follower-enforced"
  | Round_decided -> "round-decided"
  | Round_second -> "round-second"
  | Primary_continue -> "primary-continue"
  | Promote_ex_primary -> "promote-ex-primary"
  | Promote_oldest -> "promote-oldest"
  | Last_lock_handoff -> "last-lock-handoff"
  | Predicted_no_conflict -> "predicted-no-conflict"
  | Speculative -> "speculative"
  | Slot_barrier -> "slot-barrier"
  | Mutex_held -> "mutex-held"
  | Not_primary -> "not-primary"
  | Batch_wait -> "batch-wait"
  | Enforced_order_wait -> "enforced-order-wait"
  | Predecessor_unpredicted -> "predecessor-unpredicted"
  | Predecessor_conflict -> "predecessor-conflict"
  | Queue_wait -> "queue-wait"
  | Stale_read -> "stale-read"
  | Unsafe_op -> "unsafe-op"

let pp_entry ppf e =
  Format.fprintf ppf "%8.2f r%d %-6s t%d %-16s %-22s%s%s" e.at e.replica
    e.scheduler e.tid (action_name e.action) (rule_name e.rule)
    (match e.mutex with Some m -> Printf.sprintf " m%d" m | None -> "")
    (match e.candidates with
    | [] -> ""
    | tids ->
      " vs [" ^ String.concat ";" (List.map string_of_int tids) ^ "]")
