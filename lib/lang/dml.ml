(* Hand-written lexer + recursive-descent parser for the DML concrete
   syntax, plus the canonical printer.  [parse (print c) = Ok c] is the
   round-trip contract (property-tested in test/test_dml.ml). *)

(* ------------------------------- lexer ------------------------------ *)

type token =
  | Tident of string
  | Tint of int
  | Tfloat of float
  | Tlbrace
  | Trbrace
  | Tlparen
  | Trparen
  | Tlbracket
  | Trbracket
  | Tsemi
  | Tdot
  | Tassign (* := *)
  | Tpluseq (* += *)
  | Teq (* = *)
  | Teqeq (* == *)
  | Tgeq (* >= *)
  | Tbang (* ! *)
  | Teof

exception Error of string

let fail ~line fmt =
  Format.kasprintf (fun s -> raise (Error (Printf.sprintf "line %d: %s" line s)))
    fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '$'

let is_digit c = c >= '0' && c <= '9'

(* Returns tokens paired with their line numbers. *)
let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let emit t = tokens := (t, !line) :: !tokens in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let number ~negative =
    let start = !i in
    while !i < n && (is_digit src.[!i] || src.[!i] = '.') do
      incr i
    done;
    (* optional decimal exponent: e / E, optional sign, digits *)
    (if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then
       let j = if !i + 1 < n && (src.[!i + 1] = '+' || src.[!i + 1] = '-')
         then !i + 2 else !i + 1
       in
       if j < n && is_digit src.[j] then begin
         i := j;
         while !i < n && is_digit src.[!i] do incr i done
       end);
    let text = String.sub src start (!i - start) in
    let signed s = if negative then "-" ^ s else s in
    if String.contains text '.' then
      emit (Tfloat (float_of_string (signed text)))
    else emit (Tint (int_of_string (signed text)))
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if is_digit c then number ~negative:false
    else if c = '-' && (match peek 1 with Some d -> is_digit d | None -> false)
    then begin
      incr i;
      number ~negative:true
    end
    else if is_ident_char c && not (is_digit c) then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      emit (Tident (String.sub src start (!i - start)))
    end
    else begin
      let two a b t =
        if c = a && peek 1 = Some b then begin
          emit t;
          i := !i + 2;
          true
        end
        else false
      in
      if two ':' '=' Tassign || two '+' '=' Tpluseq || two '=' '=' Teqeq
         || two '>' '=' Tgeq
      then ()
      else begin
        (match c with
        | '{' -> emit Tlbrace
        | '}' -> emit Trbrace
        | '(' -> emit Tlparen
        | ')' -> emit Trparen
        | '[' -> emit Tlbracket
        | ']' -> emit Trbracket
        | ';' -> emit Tsemi
        | '.' -> emit Tdot
        | '=' -> emit Teq
        | '!' -> emit Tbang
        | _ -> fail ~line:!line "unexpected character %C" c);
        incr i
      end
    end
  done;
  emit Teof;
  List.rev !tokens

(* ------------------------------ parser ------------------------------ *)

type stream = { mutable tokens : (token * int) list }

let current s =
  match s.tokens with (t, l) :: _ -> (t, l) | [] -> (Teof, 0)

let advance s =
  match s.tokens with _ :: rest -> s.tokens <- rest | [] -> ()

let describe = function
  | Tident id -> Printf.sprintf "identifier %S" id
  | Tint k -> Printf.sprintf "integer %d" k
  | Tfloat f -> Printf.sprintf "float %g" f
  | Tlbrace -> "'{'"
  | Trbrace -> "'}'"
  | Tlparen -> "'('"
  | Trparen -> "')'"
  | Tlbracket -> "'['"
  | Trbracket -> "']'"
  | Tsemi -> "';'"
  | Tdot -> "'.'"
  | Tassign -> "':='"
  | Tpluseq -> "'+='"
  | Teq -> "'='"
  | Teqeq -> "'=='"
  | Tgeq -> "'>='"
  | Tbang -> "'!'"
  | Teof -> "end of input"

let expect s token what =
  let t, line = current s in
  if t = token then advance s
  else fail ~line "expected %s, found %s" what (describe t)

let ident s what =
  match current s with
  | Tident id, _ ->
    advance s;
    id
  | t, line -> fail ~line "expected %s, found %s" what (describe t)

let int_lit s what =
  match current s with
  | Tint k, _ ->
    advance s;
    k
  | t, line -> fail ~line "expected %s, found %s" what (describe t)

let float_lit s what =
  match current s with
  | Tfloat f, _ ->
    advance s;
    f
  | Tint k, _ ->
    advance s;
    float_of_int k
  | t, line -> fail ~line "expected %s, found %s" what (describe t)

(* sync parameters and mutex expressions share the head syntax *)
let rec parse_param s =
  match current s with
  | Tident "this", _ ->
    advance s;
    if fst (current s) = Tdot then begin
      advance s;
      Ast.Sp_field (ident s "field name")
    end
    else Ast.Sp_this
  | Tident "arg", _ ->
    advance s;
    Ast.Sp_arg (int_lit s "argument index")
  | Tident "local", _ ->
    advance s;
    Ast.Sp_local (ident s "local name")
  | Tident "global", _ ->
    advance s;
    Ast.Sp_global (ident s "global name")
  | Tident "callresult", _ ->
    advance s;
    Ast.Sp_call (ident s "call name")
  | t, line -> fail ~line "expected a sync parameter, found %s" (describe t)

and parse_mexpr s =
  match current s with
  | Tident "mutex", _ ->
    advance s;
    Ast.Mconst (int_lit s "mutex id")
  | Tident "arg", _ ->
    advance s;
    Ast.Marg (int_lit s "argument index")
  | Tident "local", _ ->
    advance s;
    Ast.Mlocal (ident s "local name")
  | Tident "this", _ ->
    advance s;
    expect s Tdot "'.'";
    Ast.Mfield (ident s "field name")
  | Tident "global", _ ->
    advance s;
    Ast.Mglobal (ident s "global name")
  | Tident "callresult", _ ->
    advance s;
    Ast.Mcall (ident s "call name")
  | t, line -> fail ~line "expected a mutex expression, found %s" (describe t)

and parse_cond s =
  match current s with
  | Tident "true", _ ->
    advance s;
    Ast.Cconst true
  | Tident "false", _ ->
    advance s;
    Ast.Cconst false
  | Tident "argbool", _ ->
    advance s;
    Ast.Carg_bool (int_lit s "argument index")
  | Tident "arg", _ ->
    advance s;
    let i = int_lit s "argument index" in
    expect s Teqeq "'=='";
    Ast.Carg_int_eq (i, int_lit s "comparison constant")
  | Tident "this", _ ->
    advance s;
    expect s Tdot "'.'";
    let f = ident s "field name" in
    expect s Teqeq "'=='";
    (match current s with
    | Tident "arg", _ ->
      advance s;
      Ast.Cfield_eq_arg (f, int_lit s "argument index")
    | t, line -> fail ~line "expected 'arg', found %s" (describe t))
  | Tbang, _ ->
    advance s;
    expect s Tlparen "'('";
    let c = parse_cond s in
    expect s Trparen "')'";
    Ast.Cnot c
  | t, line -> fail ~line "expected a condition, found %s" (describe t)

and parse_count s =
  match current s with
  | Tint n, _ ->
    advance s;
    Ast.Cfixed n
  | Tident "arg", _ ->
    advance s;
    Ast.Carg (int_lit s "argument index")
  | t, line -> fail ~line "expected a loop count, found %s" (describe t)

and parse_dur s =
  match current s with
  | Tident "arg", _ ->
    advance s;
    Ast.Arg_dur (int_lit s "argument index")
  | _ -> Ast.Fixed (float_lit s "duration")

and parse_block s =
  expect s Tlbrace "'{'";
  let rec loop acc =
    match current s with
    | Trbrace, _ ->
      advance s;
      List.rev acc
    | Teof, line -> fail ~line "unterminated block"
    | _ -> loop (parse_stmt s :: acc)
  in
  loop []

and parse_stmt s =
  match current s with
  | Tident "compute", _ ->
    advance s;
    let d = parse_dur s in
    expect s Tsemi "';'";
    Ast.Compute d
  | Tident "nested", _ ->
    advance s;
    let service = int_lit s "service id" in
    let duration = parse_dur s in
    expect s Tsemi "';'";
    Ast.Nested { service; duration }
  | Tident "sync", _ ->
    advance s;
    let p = parse_param s in
    Ast.Sync (p, parse_block s)
  | Tident "acquire", _ ->
    advance s;
    let p = parse_param s in
    expect s Tsemi "';'";
    Ast.Lock_acquire p
  | Tident "release", _ ->
    advance s;
    let p = parse_param s in
    expect s Tsemi "';'";
    Ast.Lock_release p
  | Tident "wait", _ ->
    advance s;
    let p = parse_param s in
    expect s Tsemi "';'";
    Ast.Wait p
  | Tident "waituntil", _ ->
    advance s;
    let p = parse_param s in
    let field = ident s "state field" in
    expect s Tgeq "'>='";
    let min = int_lit s "threshold" in
    expect s Tsemi "';'";
    Ast.Wait_until { param = p; field; min }
  | Tident "notify", _ ->
    advance s;
    let p = parse_param s in
    expect s Tsemi "';'";
    Ast.Notify { param = p; all = false }
  | Tident "notifyall", _ ->
    advance s;
    let p = parse_param s in
    expect s Tsemi "';'";
    Ast.Notify { param = p; all = true }
  | Tident "if", _ ->
    advance s;
    let c = parse_cond s in
    let then_b = parse_block s in
    let else_b =
      match current s with
      | Tident "else", _ ->
        advance s;
        parse_block s
      | _ -> []
    in
    Ast.If (c, then_b, else_b)
  | Tident "for", _ ->
    advance s;
    let count = parse_count s in
    Ast.Loop { kind = Ast.For; count; body = parse_block s }
  | Tident "while", _ ->
    advance s;
    let count = parse_count s in
    Ast.Loop { kind = Ast.While; count; body = parse_block s }
  | Tident "dowhile", _ ->
    advance s;
    let count = parse_count s in
    Ast.Loop { kind = Ast.Do_while; count; body = parse_block s }
  | Tident "call", _ ->
    advance s;
    let m = ident s "method name" in
    expect s Tsemi "';'";
    Ast.Call m
  | Tident "virtual", _ ->
    advance s;
    (match current s with
    | Tident "arg", _ ->
      advance s;
      let selector = int_lit s "selector argument" in
      expect s Tlbracket "'['";
      let rec names acc =
        match current s with
        | Trbracket, _ ->
          advance s;
          List.rev acc
        | Tident m, _ ->
          advance s;
          names (m :: acc)
        | t, line -> fail ~line "expected a candidate name, found %s"
                       (describe t)
      in
      let candidates = names [] in
      expect s Tsemi "';'";
      Ast.Virtual_call { candidates; selector }
    | t, line -> fail ~line "expected 'arg', found %s" (describe t))
  | Tident "this", _ ->
    (* this.<field> := <mexpr> ; *)
    advance s;
    expect s Tdot "'.'";
    let f = ident s "field name" in
    expect s Tassign "':='";
    let e = parse_mexpr s in
    expect s Tsemi "';'";
    Ast.Assign_field (f, e)
  | Tident name, line -> (
    advance s;
    match current s with
    | Tassign, _ ->
      advance s;
      let e = parse_mexpr s in
      expect s Tsemi "';'";
      Ast.Assign (name, e)
    | Tpluseq, _ ->
      advance s;
      let k = int_lit s "increment" in
      expect s Tsemi "';'";
      Ast.State_update (name, k)
    | t, _ ->
      fail ~line "expected ':=' or '+=' after %S, found %s" name (describe t))
  | t, line -> fail ~line "expected a statement, found %s" (describe t)

let parse_method s ~exported =
  advance s;
  (* consumes 'export' / 'helper' *)
  let final =
    match current s with
    | Tident "final", _ ->
      advance s;
      true
    | Tident "nonfinal", _ ->
      advance s;
      false
    | _ -> true
  in
  let name = ident s "method name" in
  expect s Tlparen "'('";
  let params = int_lit s "parameter count" in
  expect s Trparen "')'";
  let body = parse_block s in
  { Class_def.name; final; exported; params; body }

let parse_class s =
  (match current s with
  | Tident "class", _ -> advance s
  | t, line -> fail ~line "expected 'class', found %s" (describe t));
  let cname = ident s "class name" in
  expect s Tlbrace "'{'";
  let mutex_fields = ref [] in
  let state_fields = ref [] in
  let globals = ref [] in
  let methods = ref [] in
  let rec items () =
    match current s with
    | Trbrace, _ -> advance s
    | Tident "mutexfield", _ ->
      advance s;
      let f = ident s "field name" in
      expect s Teq "'='";
      let v = int_lit s "initial mutex id" in
      expect s Tsemi "';'";
      mutex_fields := (f, v) :: !mutex_fields;
      items ()
    | Tident "statefield", _ ->
      advance s;
      let f = ident s "field name" in
      expect s Tsemi "';'";
      state_fields := f :: !state_fields;
      items ()
    | Tident "global", _ ->
      advance s;
      let g = ident s "global name" in
      expect s Teq "'='";
      let v = int_lit s "mutex id" in
      expect s Tsemi "';'";
      globals := (g, v) :: !globals;
      items ()
    | Tident "export", _ ->
      methods := parse_method s ~exported:true :: !methods;
      items ()
    | Tident "helper", _ ->
      methods := parse_method s ~exported:false :: !methods;
      items ()
    | t, line -> fail ~line "expected a class item, found %s" (describe t)
  in
  items ();
  { Class_def.cname;
    methods = List.rev !methods;
    mutex_fields = List.rev !mutex_fields;
    state_fields = List.rev !state_fields;
    globals = List.rev !globals }

let parse src =
  match
    let s = { tokens = tokenize src } in
    let cls = parse_class s in
    (match current s with
    | Teof, _ -> ()
    | t, line -> fail ~line "trailing input: %s" (describe t));
    cls
  with
  | cls -> Ok cls
  | exception Error msg -> Result.error msg

(* ------------------------------ printer ----------------------------- *)

let print_param b = function
  | Ast.Sp_this -> Buffer.add_string b "this"
  | Ast.Sp_arg i -> Printf.bprintf b "arg %d" i
  | Ast.Sp_local v -> Printf.bprintf b "local %s" v
  | Ast.Sp_field f -> Printf.bprintf b "this.%s" f
  | Ast.Sp_global g -> Printf.bprintf b "global %s" g
  | Ast.Sp_call m -> Printf.bprintf b "callresult %s" m

let print_mexpr b = function
  | Ast.Mconst m -> Printf.bprintf b "mutex %d" m
  | Ast.Marg i -> Printf.bprintf b "arg %d" i
  | Ast.Mlocal v -> Printf.bprintf b "local %s" v
  | Ast.Mfield f -> Printf.bprintf b "this.%s" f
  | Ast.Mglobal g -> Printf.bprintf b "global %s" g
  | Ast.Mcall m -> Printf.bprintf b "callresult %s" m

let rec print_cond b = function
  | Ast.Cconst true -> Buffer.add_string b "true"
  | Ast.Cconst false -> Buffer.add_string b "false"
  | Ast.Carg_bool i -> Printf.bprintf b "argbool %d" i
  | Ast.Carg_int_eq (i, k) -> Printf.bprintf b "arg %d == %d" i k
  | Ast.Cfield_eq_arg (f, i) -> Printf.bprintf b "this.%s == arg %d" f i
  | Ast.Cnot c ->
    Buffer.add_string b "!(";
    print_cond b c;
    Buffer.add_char b ')'

let print_dur b = function
  | Ast.Fixed ms -> Printf.bprintf b "%.17g" ms
  | Ast.Arg_dur i -> Printf.bprintf b "arg %d" i

let print_count b = function
  | Ast.Cfixed n -> Printf.bprintf b "%d" n
  | Ast.Carg i -> Printf.bprintf b "arg %d" i

let rec print_stmt b indent stmt =
  let pad () = Buffer.add_string b (String.make indent ' ') in
  pad ();
  match stmt with
  | Ast.Compute d ->
    Buffer.add_string b "compute ";
    print_dur b d;
    Buffer.add_string b ";\n"
  | Ast.Nested { service; duration } ->
    Printf.bprintf b "nested %d " service;
    print_dur b duration;
    Buffer.add_string b ";\n"
  | Ast.Assign (v, e) ->
    Printf.bprintf b "%s := " v;
    print_mexpr b e;
    Buffer.add_string b ";\n"
  | Ast.Assign_field (f, e) ->
    Printf.bprintf b "this.%s := " f;
    print_mexpr b e;
    Buffer.add_string b ";\n"
  | Ast.Sync (p, body) ->
    Buffer.add_string b "sync ";
    print_param b p;
    Buffer.add_string b " {\n";
    List.iter (print_stmt b (indent + 2)) body;
    pad ();
    Buffer.add_string b "}\n"
  | Ast.Lock_acquire p ->
    Buffer.add_string b "acquire ";
    print_param b p;
    Buffer.add_string b ";\n"
  | Ast.Lock_release p ->
    Buffer.add_string b "release ";
    print_param b p;
    Buffer.add_string b ";\n"
  | Ast.Wait p ->
    Buffer.add_string b "wait ";
    print_param b p;
    Buffer.add_string b ";\n"
  | Ast.Wait_until { param; field; min } ->
    Buffer.add_string b "waituntil ";
    print_param b param;
    Printf.bprintf b " %s >= %d;\n" field min
  | Ast.Notify { param; all } ->
    Buffer.add_string b (if all then "notifyall " else "notify ");
    print_param b param;
    Buffer.add_string b ";\n"
  | Ast.State_update (f, k) -> Printf.bprintf b "%s += %d;\n" f k
  | Ast.If (c, a, e) ->
    Buffer.add_string b "if ";
    print_cond b c;
    Buffer.add_string b " {\n";
    List.iter (print_stmt b (indent + 2)) a;
    pad ();
    if e = [] then Buffer.add_string b "}\n"
    else begin
      Buffer.add_string b "} else {\n";
      List.iter (print_stmt b (indent + 2)) e;
      pad ();
      Buffer.add_string b "}\n"
    end
  | Ast.Loop { kind; count; body } ->
    Buffer.add_string b
      (match kind with
      | Ast.For -> "for "
      | Ast.While -> "while "
      | Ast.Do_while -> "dowhile ");
    print_count b count;
    Buffer.add_string b " {\n";
    List.iter (print_stmt b (indent + 2)) body;
    pad ();
    Buffer.add_string b "}\n"
  | Ast.Call m -> Printf.bprintf b "call %s;\n" m
  | Ast.Virtual_call { candidates; selector } ->
    Printf.bprintf b "virtual arg %d [ %s ];\n" selector
      (String.concat " " candidates)
  | Ast.Sched_lock _ | Ast.Sched_unlock _ | Ast.Lockinfo _ | Ast.Ignore_sync _
  | Ast.Loop_enter _ | Ast.Loop_exit _ ->
    invalid_arg "Dml.print: instrumented statements have no concrete syntax"

let print (cls : Class_def.t) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "class %s {\n" cls.cname;
  List.iter
    (fun (f, v) -> Printf.bprintf b "  mutexfield %s = %d;\n" f v)
    cls.mutex_fields;
  List.iter (fun f -> Printf.bprintf b "  statefield %s;\n" f)
    cls.state_fields;
  List.iter
    (fun (g, v) -> Printf.bprintf b "  global %s = %d;\n" g v)
    cls.globals;
  List.iter
    (fun (m : Class_def.method_def) ->
      Printf.bprintf b "\n  %s %s%s(%d) {\n"
        (if m.exported then "export" else "helper")
        (if m.final then "final " else "nonfinal ")
        m.name m.params;
      List.iter (print_stmt b 4) m.body;
      Buffer.add_string b "  }\n")
    cls.methods;
  Buffer.add_string b "}\n";
  Buffer.contents b
