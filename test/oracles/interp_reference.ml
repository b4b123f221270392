(* The small-step CPS interpreter that {!Detmt_runtime.Interp} replaced,
   kept as the differential oracle for the compiled cursor (verbatim but
   for a negative virtual-dispatch selector, now the out-of-range
   [Runtime_error] every other bad selector raises, not [List.nth]'s
   [Invalid_argument]): a
   thread is a continuation producing an [outcome], and every statement and
   every yield builds a fresh closure.  [test_properties.ml] runs both on
   generated, catalog and hand-written classes and requires equal op
   streams and equal error messages. *)

open Detmt_runtime
open Detmt_lang

type outcome = Done | Yield of Op.t * (unit -> outcome)

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* Resolution of spontaneous [Sp_call] parameters and [Mcall] mutex
   expressions: hashes the call name into a small mutex-id range. *)
let call_oracle name (req : Request.t) =
  (* Deterministic across replicas (depends only on the call name and the
     request), but opaque to static analysis.  Keyed by the request's
     (client, per-client sequence) identity, not its [uid]: the uid is the
     total-order slot, and nested-invocation messages consume slots, so the
     slot a given request lands on shifts with scheduler timing — the
     oracle's answer must survive cross-scheduler differential runs. *)
  let h = Hashtbl.hash (name, req.client, req.client_req) in
  h mod 97

type env = {
  cls : Class_def.t;
  obj : Object_state.t;
  ws : Workspace.t option;
      (* speculative execution: object-state reads and writes go through the
         thread's copy-on-write workspace instead of the committed state *)
  req : Request.t;
  locals : (string, int) Hashtbl.t; (* locals hold mutex ids *)
}

(* Object-state access, routed through the workspace when speculating.
   Globals and the self monitor are immutable, so they read through either
   way. *)

let obj_mutex_field env f =
  match env.ws with
  | Some w -> Workspace.mutex_field w f
  | None -> Object_state.mutex_field env.obj f

let obj_set_mutex_field env f v =
  match env.ws with
  | Some w -> Workspace.set_mutex_field w f v
  | None -> Object_state.set_mutex_field env.obj f v

let obj_state_field env f =
  match env.ws with
  | Some w -> Workspace.state_field w f
  | None -> Object_state.state_field env.obj f

let arg env i =
  let args = env.req.args in
  if i < 0 || i >= Array.length args then
    error "%s: argument %d out of range (request has %d)" env.req.meth i
      (Array.length args)
  else args.(i)

let arg_mutex env i =
  match arg env i with
  | Ast.Vmutex m -> m
  | Ast.Vint m -> m
  | Ast.Vbool _ -> error "%s: arg%d is a bool, mutex expected" env.req.meth i

let arg_int env i =
  match arg env i with
  | Ast.Vint n | Ast.Vmutex n -> n
  | Ast.Vbool _ -> error "%s: arg%d is a bool, int expected" env.req.meth i

let arg_bool env i =
  match arg env i with
  | Ast.Vbool b -> b
  | Ast.Vint _ | Ast.Vmutex _ ->
    error "%s: arg%d is not a bool" env.req.meth i

let local env v =
  match Hashtbl.find_opt env.locals v with
  | Some m -> m
  | None -> error "%s: local %S read before assignment" env.req.meth v

let eval_mexpr env = function
  | Ast.Mconst m -> m
  | Ast.Marg i -> arg_mutex env i
  | Ast.Mlocal v -> local env v
  | Ast.Mfield f -> obj_mutex_field env f
  | Ast.Mglobal g -> Object_state.global env.obj g
  | Ast.Mcall name -> call_oracle name env.req

let resolve_param env = function
  | Ast.Sp_this -> Object_state.self_mutex env.obj
  | Ast.Sp_arg i -> arg_mutex env i
  | Ast.Sp_local v -> local env v
  | Ast.Sp_field f -> obj_mutex_field env f
  | Ast.Sp_global g -> Object_state.global env.obj g
  | Ast.Sp_call name -> call_oracle name env.req

let rec eval_cond env = function
  | Ast.Cconst b -> b
  | Ast.Carg_bool i -> arg_bool env i
  | Ast.Carg_int_eq (i, k) -> arg_int env i = k
  | Ast.Cfield_eq_arg (f, i) -> obj_mutex_field env f = arg_mutex env i
  | Ast.Cnot c -> not (eval_cond env c)

let resolve_dur env = function
  | Ast.Fixed ms -> ms
  | Ast.Arg_dur i -> float_of_int (arg_int env i)

let resolve_count env = function
  | Ast.Cfixed n -> n
  | Ast.Carg i -> arg_int env i

(* CPS execution: [exec env body k] runs [body] then continues with [k]. *)
let rec exec env (body : Ast.block) (k : unit -> outcome) : outcome =
  match body with
  | [] -> k ()
  | stmt :: rest -> exec_stmt env stmt (fun () -> exec env rest k)

and exec_stmt env stmt k =
  match stmt with
  | Ast.Compute d -> Yield (Op.Compute { duration = resolve_dur env d }, k)
  | Ast.Assign (v, e) ->
    Hashtbl.replace env.locals v (eval_mexpr env e);
    k ()
  | Ast.Assign_field (f, e) ->
    obj_set_mutex_field env f (eval_mexpr env e);
    k ()
  | Ast.Sync (p, _) | Ast.Lock_acquire p | Ast.Lock_release p ->
    error "%s: raw synchronisation on %s — program was not transformed"
      env.req.meth
      (Format.asprintf "%a" Pretty.sync_param p)
  | Ast.Wait p -> Yield (Op.Wait { mutex = resolve_param env p }, k)
  | Ast.Wait_until { param; field; min } ->
    (* Java guarded-wait idiom: re-check the condition after every wake-up,
       waiting again while it does not hold. *)
    let mutex = resolve_param env param in
    let rec check () =
      if obj_state_field env field >= min then k ()
      else Yield (Op.Wait { mutex }, check)
    in
    check ()
  | Ast.Notify { param; all } ->
    Yield (Op.Notify { mutex = resolve_param env param; all }, k)
  | Ast.Nested { service; duration } ->
    Yield (Op.Nested { service; duration = resolve_dur env duration }, k)
  | Ast.State_update (field, delta) ->
    Yield (Op.State_update { field; delta }, k)
  | Ast.If (c, a, b) ->
    if eval_cond env c then exec env a k else exec env b k
  | Ast.Loop { kind; count; body } ->
    let n = resolve_count env count in
    let n = if kind = Ast.Do_while then max 1 n else n in
    let rec iter i () = if i >= n then k () else exec env body (iter (i + 1)) in
    iter 0 ()
  | Ast.Call name -> exec_method env name k
  | Ast.Virtual_call { candidates; selector } -> (
    let idx = arg_int env selector in
    match if idx < 0 then None else List.nth_opt candidates idx with
    | Some name -> exec_method env name k
    | None ->
      error "%s: virtual dispatch selector %d out of range (%d candidates)"
        env.req.meth idx (List.length candidates))
  | Ast.Sched_lock (syncid, p) ->
    Yield (Op.Lock { syncid; mutex = resolve_param env p }, k)
  | Ast.Sched_unlock (syncid, p) ->
    Yield (Op.Unlock { syncid; mutex = resolve_param env p }, k)
  | Ast.Lockinfo (syncid, p) ->
    Yield (Op.Lockinfo { syncid; mutex = resolve_param env p }, k)
  | Ast.Ignore_sync syncid -> Yield (Op.Ignore { syncid }, k)
  | Ast.Loop_enter loopid -> Yield (Op.Loop_enter { loopid }, k)
  | Ast.Loop_exit loopid -> Yield (Op.Loop_exit { loopid }, k)

and exec_method env name k =
  match Class_def.find_method env.cls name with
  | None -> error "%s: call to undefined method %S" env.req.meth name
  | Some def ->
    (* Each dynamic call gets a fresh local frame (Java semantics); request
       arguments are shared with the caller. *)
    let frame = { env with locals = Hashtbl.create 8 } in
    exec frame def.body k

let start ~cls ~obj ?ws ~req () =
  if req.Request.dummy then Done
  else begin
    let env = { cls; obj; ws; req; locals = Hashtbl.create 8 } in
    match Class_def.find_method cls req.meth with
    | None -> error "request for undefined method %S" req.meth
    | Some def ->
      if not def.exported then
        error "request for non-exported method %S" req.meth
      else exec env def.body (fun () -> Done)
  end
