(* Compiled method bodies.

   A method body is lowered once, on its first call, to an instruction
   array: branches and loops become jumps with resolved targets, locals and
   loop counters become slots of an int array, and ops whose operands are
   all static are built at compile time.  A request runs on a cursor (code,
   program counter, slots, saved caller frames).  Every field name is
   resolved to its {!Object_state} offset at compile time, so a field read,
   a field write or a state update indexes an array (of the object state, or
   of the thread's workspace when it speculates).  A yield builds no op: the
   cursor records the op's kind, the instruction that yielded it (which
   holds its static operands) and the one int read at run time (a mutex, or
   an argument-timed duration), and the replica reads them through the
   accessors.  Stepping a thread therefore allocates nothing; only the
   [duration] of an argument-timed op boxes its float, on query. *)

open Detmt_lang

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

(* A mutex-valued operand: a sync parameter or the right-hand side of an
   assignment.  A local is its value slot; the slot after it is 1 once the
   local has been assigned.  A field or global is its offset, [-1] when the
   class does not declare it, and its name, for the error. *)
type operand =
  | Const of int
  | This
  | Arg of int
  | Local of int * string
  | Field of int * string
  | Global of int * string
  | Opaque of string

(* [Ast.cond] with its field resolved to an offset. *)
type cond =
  | Cconst of bool
  | Carg_bool of int
  | Carg_int_eq of int * int
  | Cfield_eq_arg of int * string * int
  | Cnot of cond

type instr =
  | Emit of Op.kind * Op.t (* a static op, built at compile time *)
  | Update of int * Op.t (* a state update: its field's offset, its op *)
  | Compute_arg of int
  | Nested_arg of { service : int; arg : int }
  | Lock of int * operand
  | Unlock of int * operand
  | Lockinfo of int * operand
  | Wait of operand
  | Notify of operand * bool
  | Hold of int * operand (* slot := mutex, for the guarded wait after it *)
  | Wait_until of { slot : int; field : int; name : string; min : int }
  | Assign of int * operand
  | Assign_field of int * string * operand
  | Branch_unless of cond * int
  | Jump of int
  | Loop_init of { slot : int; count : Ast.count; at_least_once : bool }
  | Loop_next of { slot : int; exit : int } (* exit, or count one down *)
  | Call of int (* method index *)
  | Virtual_call of {
      selector : int;
      targets : int array; (* method indexes, -1 when undefined *)
      names : string array;
    }
  | Undefined_call of string
  | Raw_sync of string (* the printed sync parameter *)
  | Return

type code = { instrs : instr array; nslots : int }

type methods = {
  layout : Object_state.layout; (* field name -> offset, at compile time *)
  defs : Class_def.method_def array;
  codes : code option array; (* compiled on first call *)
  index : (string, int) Hashtbl.t; (* name -> first method of that name *)
}

type program = { cls : Class_def.t; mutable methods : methods option }

type frame = { f_code : code; f_pc : int; f_slots : int array }

type cursor = {
  prog : program;
  obj : Object_state.t;
  ws : Workspace.t;
      (* speculative execution: object-state reads and writes go through the
         thread's copy-on-write workspace instead of the committed state;
         [Workspace.none] for direct execution *)
  req : Request.t;
  mutable code : code;
  mutable pc : int;
  mutable slots : int array;
  mutable stack : frame list; (* callers, innermost first *)
  mutable kind : Op.kind; (* of the op the last [next] yielded *)
  mutable instr : instr; (* that yielded it: its static operands *)
  mutable value : int; (* its run-time operand: a mutex or a duration *)
}

let program cls = { cls; methods = None }

let methods p =
  match p.methods with
  | Some m -> m
  | None ->
    let defs = Array.of_list p.cls.Class_def.methods in
    let index = Hashtbl.create (2 * Array.length defs) in
    Array.iteri
      (fun i (d : Class_def.method_def) ->
        if not (Hashtbl.mem index d.name) then Hashtbl.add index d.name i)
      defs;
    let m =
      { layout = Object_state.layout p.cls; defs;
        codes = Array.make (Array.length defs) None; index }
    in
    p.methods <- Some m;
    m

let method_index m name =
  match Hashtbl.find m.index name with i -> i | exception Not_found -> -1

(* ----------------------------- compiler ----------------------------- *)

let compile m (def : Class_def.method_def) =
  let layout = m.layout in
  let code = ref (Array.make 16 Return) and len = ref 0 in
  let emit i =
    if !len = Array.length !code then
      code := Array.append !code (Array.make !len Return);
    !code.(!len) <- i;
    incr len
  in
  let patch at i = !code.(at) <- i in
  let slots = ref 0 in
  let fresh n =
    let s = !slots in
    slots := s + n;
    s
  in
  let locals = Hashtbl.create 4 in
  let local_slot v =
    match Hashtbl.find_opt locals v with
    | Some s -> s
    | None ->
      let s = fresh 2 in
      Hashtbl.add locals v s;
      s
  in
  let local v = Local (local_slot v, v) in
  let field f = Field (Object_state.mutex_offset layout f, f) in
  let global g = Global (Object_state.global_offset layout g, g) in
  let param = function
    | Ast.Sp_this -> This
    | Ast.Sp_arg i -> Arg i
    | Ast.Sp_local v -> local v
    | Ast.Sp_field f -> field f
    | Ast.Sp_global g -> global g
    | Ast.Sp_call name -> Opaque name
  in
  let mexpr = function
    | Ast.Mconst c -> Const c
    | Ast.Marg i -> Arg i
    | Ast.Mlocal v -> local v
    | Ast.Mfield f -> field f
    | Ast.Mglobal g -> global g
    | Ast.Mcall name -> Opaque name
  in
  let rec cond = function
    | Ast.Cconst b -> Cconst b
    | Ast.Carg_bool i -> Carg_bool i
    | Ast.Carg_int_eq (i, k) -> Carg_int_eq (i, k)
    | Ast.Cfield_eq_arg (f, i) ->
      Cfield_eq_arg (Object_state.mutex_offset layout f, f, i)
    | Ast.Cnot c -> Cnot (cond c)
  in
  let static op = emit (Emit (Op.kind op, op)) in
  let rec block b = List.iter stmt b
  and stmt = function
    | Ast.Compute (Ast.Fixed duration) -> static (Op.Compute { duration })
    | Ast.Compute (Ast.Arg_dur i) -> emit (Compute_arg i)
    | Ast.Assign (v, e) ->
      let e = mexpr e in
      emit (Assign (local_slot v, e))
    | Ast.Assign_field (f, e) ->
      emit (Assign_field (Object_state.mutex_offset layout f, f, mexpr e))
    | Ast.Sync (p, _) | Ast.Lock_acquire p | Ast.Lock_release p ->
      emit (Raw_sync (Format.asprintf "%a" Pretty.sync_param p))
    | Ast.Wait p -> emit (Wait (param p))
    | Ast.Wait_until { param = p; field; min } ->
      let slot = fresh 1 in
      emit (Hold (slot, param p));
      emit
        (Wait_until
           { slot; field = Object_state.state_offset layout field;
             name = field; min })
    | Ast.Notify { param = p; all } -> emit (Notify (param p, all))
    | Ast.Nested { service; duration = Ast.Fixed duration } ->
      static (Op.Nested { service; duration })
    | Ast.Nested { service; duration = Ast.Arg_dur arg } ->
      emit (Nested_arg { service; arg })
    | Ast.State_update (field, delta) ->
      emit
        (Update
           ( Object_state.state_offset layout field,
             Op.State_update { field; delta } ))
    | Ast.If (c, a, b) ->
      let branch = !len in
      emit Return;
      block a;
      let c = cond c in
      if b = [] then patch branch (Branch_unless (c, !len))
      else begin
        let jump = !len in
        emit Return;
        patch branch (Branch_unless (c, !len));
        block b;
        patch jump (Jump !len)
      end
    | Ast.Loop { kind; count; body } ->
      let slot = fresh 1 in
      emit (Loop_init { slot; count; at_least_once = kind = Ast.Do_while });
      let top = !len in
      emit Return;
      block body;
      emit (Jump top);
      patch top (Loop_next { slot; exit = !len })
    | Ast.Call name -> (
      match method_index m name with
      | -1 -> emit (Undefined_call name)
      | i -> emit (Call i))
    | Ast.Virtual_call { candidates; selector } ->
      let names = Array.of_list candidates in
      emit
        (Virtual_call
           { selector; targets = Array.map (method_index m) names; names })
    | Ast.Sched_lock (syncid, p) -> emit (Lock (syncid, param p))
    | Ast.Sched_unlock (syncid, p) -> emit (Unlock (syncid, param p))
    | Ast.Lockinfo (syncid, p) -> emit (Lockinfo (syncid, param p))
    | Ast.Ignore_sync syncid -> static (Op.Ignore { syncid })
    | Ast.Loop_enter loopid -> static (Op.Loop_enter { loopid })
    | Ast.Loop_exit loopid -> static (Op.Loop_exit { loopid })
  in
  block def.body;
  emit Return;
  { instrs = Array.sub !code 0 !len; nslots = !slots }

let code_of m i =
  match m.codes.(i) with
  | Some c -> c
  | None ->
    let c = compile m m.defs.(i) in
    m.codes.(i) <- Some c;
    c

(* A frame without locals, loops or guarded waits shares the empty array;
   small frames are allocated inline rather than by a C call. *)
let frame_slots code =
  match code.nslots with
  | 0 -> [||]
  | 1 -> [| 0 |]
  | 2 -> [| 0; 0 |]
  | 3 -> [| 0; 0; 0 |]
  | 4 -> [| 0; 0; 0; 0 |]
  | n -> Array.make n 0

(* ------------------------------ running ----------------------------- *)

(* Object-state access by offset, routed through the workspace when
   speculating.  An undeclared field raises here, when the statement is
   reached, with the by-name accessors' error.  Globals and the self monitor
   are immutable, so they read through either way. *)

let obj_mutex_field c off f =
  if off < 0 then Object_state.no_such "mutex field" f
  else if c.ws == Workspace.none then Object_state.mutex_at c.obj off
  else Workspace.mutex_field c.ws off

let obj_set_mutex_field c off f v =
  if off < 0 then Object_state.no_such "mutex field" f
  else if c.ws == Workspace.none then Object_state.set_mutex_at c.obj off v
  else Workspace.set_mutex_field c.ws off v

let obj_state_field c off f =
  if off < 0 then Object_state.no_such "state field" f
  else if c.ws == Workspace.none then Object_state.state_at c.obj off
  else Workspace.state_field c.ws off

let arg c i =
  let args = c.req.args in
  if i < 0 || i >= Array.length args then
    error "%s: argument %d out of range (request has %d)" c.req.meth i
      (Array.length args)
  else args.(i)

let arg_mutex c i =
  match arg c i with
  | Ast.Vmutex m -> m
  | Ast.Vint m -> m
  | Ast.Vbool _ -> error "%s: arg%d is a bool, mutex expected" c.req.meth i

let arg_int c i =
  match arg c i with
  | Ast.Vint n | Ast.Vmutex n -> n
  | Ast.Vbool _ -> error "%s: arg%d is a bool, int expected" c.req.meth i

let arg_bool c i =
  match arg c i with
  | Ast.Vbool b -> b
  | Ast.Vint _ | Ast.Vmutex _ -> error "%s: arg%d is not a bool" c.req.meth i

let operand c = function
  | Const m -> m
  | This -> Object_state.self_mutex c.obj
  | Arg i -> arg_mutex c i
  | Local (s, v) ->
    if c.slots.(s + 1) = 0 then
      error "%s: local %S read before assignment" c.req.meth v
    else c.slots.(s)
  | Field (off, f) -> obj_mutex_field c off f
  | Global (off, g) ->
    if off < 0 then Object_state.no_such "global" g
    else Object_state.global_at c.obj off
  | Opaque name -> call_oracle name c.req

let rec eval_cond c = function
  | Cconst b -> b
  | Carg_bool i -> arg_bool c i
  | Carg_int_eq (i, k) -> arg_int c i = k
  | Cfield_eq_arg (off, f, i) -> obj_mutex_field c off f = arg_mutex c i
  | Cnot cond -> not (eval_cond c cond)

let resolve_count c = function
  | Ast.Cfixed n -> n
  | Ast.Carg i -> arg_int c i

(* Each dynamic call gets a fresh frame (Java semantics); request arguments
   are shared with the caller. *)
let enter c i =
  let code = code_of (methods c.prog) i in
  c.stack <- { f_code = c.code; f_pc = c.pc; f_slots = c.slots } :: c.stack;
  c.code <- code;
  c.pc <- 0;
  c.slots <- frame_slots code

let yield c kind i value =
  c.kind <- kind;
  c.instr <- i;
  c.value <- value;
  true

let rec next c =
  let i = c.code.instrs.(c.pc) in
  c.pc <- c.pc + 1;
  match i with
  | Emit (kind, _) -> yield c kind i 0
  | Update _ -> yield c Op.State_update i 0
  | Compute_arg a -> yield c Op.Compute i (arg_int c a)
  | Nested_arg { arg; _ } -> yield c Op.Nested i (arg_int c arg)
  | Lock (_, m) -> yield c Op.Lock i (operand c m)
  | Unlock (_, m) -> yield c Op.Unlock i (operand c m)
  | Lockinfo (_, m) -> yield c Op.Lockinfo i (operand c m)
  | Wait m -> yield c Op.Wait i (operand c m)
  | Notify (m, _) -> yield c Op.Notify i (operand c m)
  | Hold (slot, m) ->
    c.slots.(slot) <- operand c m;
    next c
  | Wait_until { slot; field; name; min } ->
    (* Java guarded-wait idiom: re-check the condition after every wake-up,
       waiting again while it does not hold. *)
    if obj_state_field c field name >= min then next c
    else begin
      c.pc <- c.pc - 1;
      yield c Op.Wait i c.slots.(slot)
    end
  | Assign (slot, m) ->
    c.slots.(slot) <- operand c m;
    c.slots.(slot + 1) <- 1;
    next c
  | Assign_field (off, f, m) ->
    obj_set_mutex_field c off f (operand c m);
    next c
  | Branch_unless (cond, target) ->
    if not (eval_cond c cond) then c.pc <- target;
    next c
  | Jump target ->
    c.pc <- target;
    next c
  | Loop_init { slot; count; at_least_once } ->
    let n = resolve_count c count in
    c.slots.(slot) <- (if at_least_once then max 1 n else n);
    next c
  | Loop_next { slot; exit } ->
    let left = c.slots.(slot) in
    if left <= 0 then c.pc <- exit else c.slots.(slot) <- left - 1;
    next c
  | Call m ->
    enter c m;
    next c
  | Virtual_call { selector; targets; names } ->
    let idx = arg_int c selector in
    if idx < 0 || idx >= Array.length targets then
      error "%s: virtual dispatch selector %d out of range (%d candidates)"
        c.req.meth idx (Array.length targets)
    else if targets.(idx) < 0 then
      error "%s: call to undefined method %S" c.req.meth names.(idx)
    else begin
      enter c targets.(idx);
      next c
    end
  | Undefined_call name ->
    error "%s: call to undefined method %S" c.req.meth name
  | Raw_sync p ->
    error "%s: raw synchronisation on %s — program was not transformed"
      c.req.meth p
  | Return -> (
    match c.stack with
    | [] ->
      c.pc <- c.pc - 1;
      false
    | f :: callers ->
      c.code <- f.f_code;
      c.pc <- f.f_pc;
      c.slots <- f.f_slots;
      c.stack <- callers;
      next c)

(* ------------------------- the current op --------------------------- *)

let kind c = c.kind

let no_operand c what =
  invalid_arg
    (Printf.sprintf "Interp.%s: the current op of %s has none" what c.req.meth)

let syncid c =
  match c.instr with
  | Lock (syncid, _) | Unlock (syncid, _) | Lockinfo (syncid, _) -> syncid
  | Emit (_, Op.Ignore { syncid }) -> syncid
  | _ -> no_operand c "syncid"

let loopid c =
  match c.instr with
  | Emit (_, (Op.Loop_enter { loopid } | Op.Loop_exit { loopid })) -> loopid
  | _ -> no_operand c "loopid"

let mutex c =
  match c.instr with
  | Lock _ | Unlock _ | Lockinfo _ | Wait _ | Wait_until _ | Notify _ ->
    c.value
  | _ -> no_operand c "mutex"

let all c =
  match c.instr with Notify (_, all) -> all | _ -> no_operand c "all"

let service c =
  match c.instr with
  | Nested_arg { service; _ } | Emit (_, Op.Nested { service; _ }) -> service
  | _ -> no_operand c "service"

(* A static duration is the float its instruction already holds; an
   argument-timed one is boxed here, once per query. *)
let duration c =
  match c.instr with
  | Emit (_, (Op.Compute { duration } | Op.Nested { duration; _ })) ->
    duration
  | Compute_arg _ | Nested_arg _ -> float_of_int c.value
  | _ -> no_operand c "duration"

let field c =
  match c.instr with Update (off, _) -> off | _ -> no_operand c "field"

let field_name c =
  match c.instr with
  | Update (_, Op.State_update { field; _ }) -> field
  | _ -> no_operand c "field_name"

let delta c =
  match c.instr with
  | Update (_, Op.State_update { delta; _ }) -> delta
  | _ -> no_operand c "delta"

module Testing = struct
  let op c =
    match c.instr with
    | Emit (_, op) | Update (_, op) -> op
    | Compute_arg _ -> Op.Compute { duration = duration c }
    | Nested_arg { service; _ } -> Op.Nested { service; duration = duration c }
    | Lock (syncid, _) -> Op.Lock { syncid; mutex = c.value }
    | Unlock (syncid, _) -> Op.Unlock { syncid; mutex = c.value }
    | Lockinfo (syncid, _) -> Op.Lockinfo { syncid; mutex = c.value }
    | Wait _ | Wait_until _ -> Op.Wait { mutex = c.value }
    | Notify (_, all) -> Op.Notify { mutex = c.value; all }
    | _ -> invalid_arg "Interp.Testing.op: no op yielded yet"
end

let finished = { instrs = [| Return |]; nslots = 0 }

let start prog ~obj ~ws (req : Request.t) =
  let code =
    if req.dummy then finished
    else begin
      let m = methods prog in
      match method_index m req.meth with
      | -1 -> error "request for undefined method %S" req.meth
      | i ->
        if not m.defs.(i).exported then
          error "request for non-exported method %S" req.meth
        else code_of m i
    end
  in
  { prog; obj; ws; req; code; pc = 0; slots = frame_slots code; stack = [];
    kind = Op.Ignore; instr = Return; value = 0 }

let idle =
  let cls = Class_def.make ~cname:"idle" [] in
  start (program cls) ~obj:(Object_state.create cls) ~ws:Workspace.none
    (Request.dummy ~uid:(-1) ~sent_at:0.0)
