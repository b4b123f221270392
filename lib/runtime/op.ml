(* Synchronisation-relevant operations surfaced by the interpreter.

   Each op corresponds to one intercepted call in the transformed source: the
   replica engine consults the scheduler, charges overhead and resumes the
   thread's continuation. *)

(* The op's constructor alone.  The replica dispatches on this constant tag
   and reads the operands from the interpreter's cursor, so a yielded op is
   never a fresh block; [t] is the same op as a value, for tests and the
   reference interpreter. *)
type kind =
  | Lock
  | Unlock
  | Wait
  | Notify
  | Nested
  | Compute
  | Lockinfo
  | Ignore
  | Loop_enter
  | Loop_exit
  | State_update

type t =
  | Lock of { syncid : int; mutex : int }
  | Unlock of { syncid : int; mutex : int }
  | Wait of { mutex : int }
  | Notify of { mutex : int; all : bool }
  | Nested of { service : int; duration : float }
  | Compute of { duration : float }
  | Lockinfo of { syncid : int; mutex : int }
  | Ignore of { syncid : int }
  | Loop_enter of { loopid : int }
  | Loop_exit of { loopid : int }
  | State_update of { field : string; delta : int }
[@@deriving show { with_path = false }, eq]

let kind : t -> kind = function
  | Lock _ -> Lock
  | Unlock _ -> Unlock
  | Wait _ -> Wait
  | Notify _ -> Notify
  | Nested _ -> Nested
  | Compute _ -> Compute
  | Lockinfo _ -> Lockinfo
  | Ignore _ -> Ignore
  | Loop_enter _ -> Loop_enter
  | Loop_exit _ -> Loop_exit
  | State_update _ -> State_update
