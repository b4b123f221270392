open Ast

let sync_param ppf = function
  | Sp_this -> Format.pp_print_string ppf "this"
  | Sp_arg i -> Format.fprintf ppf "arg%d" i
  | Sp_local v -> Format.pp_print_string ppf v
  | Sp_field f -> Format.fprintf ppf "this.%s" f
  | Sp_global g -> Format.fprintf ppf "Global.%s" g
  | Sp_call m -> Format.fprintf ppf "%s()" m

let mexpr ppf = function
  | Mconst i -> Format.fprintf ppf "mutex#%d" i
  | Marg i -> Format.fprintf ppf "arg%d" i
  | Mlocal v -> Format.pp_print_string ppf v
  | Mfield f -> Format.fprintf ppf "this.%s" f
  | Mglobal g -> Format.fprintf ppf "Global.%s" g
  | Mcall m -> Format.fprintf ppf "%s()" m

let rec cond ppf = function
  | Cconst b -> Format.pp_print_bool ppf b
  | Carg_bool i -> Format.fprintf ppf "arg%d" i
  | Carg_int_eq (i, k) -> Format.fprintf ppf "arg%d == %d" i k
  | Cfield_eq_arg (f, i) -> Format.fprintf ppf "this.%s.equals(arg%d)" f i
  | Cnot c -> Format.fprintf ppf "!(%a)" cond c

let dur ppf = function
  | Fixed ms -> Format.fprintf ppf "%gms" ms
  | Arg_dur i -> Format.fprintf ppf "arg%d ms" i

let count ppf = function
  | Cfixed n -> Format.pp_print_int ppf n
  | Carg i -> Format.fprintf ppf "arg%d" i

let loop_head ppf (kind, c) =
  match kind with
  | For -> Format.fprintf ppf "for (%a times)" count c
  | While -> Format.fprintf ppf "while (%a times)" count c
  | Do_while -> Format.fprintf ppf "do (%a times)" count c

let rec stmt ppf = function
  | Compute d -> Format.fprintf ppf "compute(%a);" dur d
  | Assign (v, e) -> Format.fprintf ppf "Object %s = %a;" v mexpr e
  | Assign_field (f, e) -> Format.fprintf ppf "this.%s = %a;" f mexpr e
  | Sync (p, body) ->
    Format.fprintf ppf "@[<v 2>synchronized (%a) {%a@]@,}" sync_param p
      block_body body
  | Lock_acquire p -> Format.fprintf ppf "%a.lock();" sync_param p
  | Lock_release p -> Format.fprintf ppf "%a.unlock();" sync_param p
  | Wait p -> Format.fprintf ppf "%a.wait();" sync_param p
  | Wait_until { param; field; min } ->
    Format.fprintf ppf "while (this.%s < %d) %a.wait();" field min sync_param
      param
  | Notify { param; all } ->
    Format.fprintf ppf "%a.notify%s();" sync_param param
      (if all then "All" else "")
  | Nested { service; duration } ->
    Format.fprintf ppf "service%d.invoke(/* %a */);" service dur duration
  | State_update (f, k) -> Format.fprintf ppf "this.%s += %d;" f k
  | If (c, a, []) ->
    Format.fprintf ppf "@[<v 2>if (%a) {%a@]@,}" cond c block_body a
  | If (c, a, b) ->
    Format.fprintf ppf "@[<v 2>if (%a) {%a@]@,@[<v 2>} else {%a@]@,}" cond c
      block_body a block_body b
  | Loop { kind; count = c; body } ->
    Format.fprintf ppf "@[<v 2>%a {%a@]@,}" loop_head (kind, c) block_body
      body
  | Call m -> Format.fprintf ppf "%s();" m
  | Virtual_call { candidates; selector } ->
    Format.fprintf ppf "obj.dispatch(arg%d); /* one of %s */" selector
      (String.concat ", " candidates)
  | Sched_lock (sid, p) ->
    Format.fprintf ppf "scheduler.lock(%d, %a);" sid sync_param p
  | Sched_unlock (sid, p) ->
    Format.fprintf ppf "scheduler.unlock(%d, %a);" sid sync_param p
  | Lockinfo (sid, p) ->
    Format.fprintf ppf "scheduler.lockInfo(%d, %a);" sid sync_param p
  | Ignore_sync sid -> Format.fprintf ppf "scheduler.ignore(%d);" sid
  | Loop_enter lid -> Format.fprintf ppf "scheduler.loopEnter(%d);" lid
  | Loop_exit lid -> Format.fprintf ppf "scheduler.loopExit(%d);" lid

and block_body ppf body =
  List.iter (fun s -> Format.fprintf ppf "@,%a" stmt s) body

let block ppf body =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf "@,";
      stmt ppf s)
    body;
  Format.fprintf ppf "@]"

let method_def ppf (m : Class_def.method_def) =
  let params =
    List.init m.params (fun i -> Printf.sprintf "Object arg%d" i)
    |> String.concat ", "
  in
  Format.fprintf ppf "@[<v 2>%s%svoid %s(%s) {%a@]@,}"
    (if m.exported then "public " else "private ")
    (if m.final then "final " else "")
    m.name params block_body m.body

let class_def ppf (c : Class_def.t) =
  Format.fprintf ppf "@[<v 2>class %s {" c.cname;
  List.iter
    (fun (f, init) ->
      Format.fprintf ppf "@,private Object %s = mutex#%d;" f init)
    c.mutex_fields;
  List.iter
    (fun f -> Format.fprintf ppf "@,private int %s = 0;" f)
    c.state_fields;
  List.iter
    (fun m -> Format.fprintf ppf "@,@,%a" method_def m)
    c.methods;
  Format.fprintf ppf "@]@,}"

let block_to_string body = Format.asprintf "%a" block body
