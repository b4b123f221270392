(* Hand-written interpreter inputs for the compiled-cursor differential in
   test_properties: the shapes test_runtime's interpreter tests exercise
   (calls, virtual calls, loops, guarded waits, locals) and every run-time
   error, each as an instrumented class with the requests to run on it. *)

open Detmt_lang

type case = {
  name : string;
  cls : Class_def.t;
  requests : (string * Ast.value array) list;
}

let lock p = Ast.Sched_lock (1, p)

let unlock p = Ast.Sched_unlock (1, p)

let locked p body = (lock p :: body) @ [ unlock p ]

let meth ?(exported = true) name body =
  { Class_def.name; final = true; exported; params = 4; body }

let make name methods requests =
  { name;
    cls =
      Class_def.make ~cname:name ~mutex_fields:[ ("f", 42); ("h", 5) ]
        ~state_fields:[ "st"; "ready" ] ~globals:[ ("g", 77) ] methods;
    requests }

let m v = Ast.Vmutex v

let i v = Ast.Vint v

let bool v = Ast.Vbool v

(* Argument vectors that cover the well-typed and the ill-typed readings of
   every argument position. *)
let arg_mixes =
  [ [||]; [| m 17 |]; [| m 3; i 2; bool true |]; [| i 0; i (-1); bool false |];
    [| bool true; m 9; i 5; i 1 |]; [| i 2; bool false; m 4; bool true |];
    [| m (-3); i 3; bool true; i 0 |] ]

let on_all_mixes meth = List.map (fun args -> (meth, args)) arg_mixes

let cases =
  let open Ast in
  [ make "lock stream"
      [ meth "m" (locked (Sp_arg 0) [ State_update ("st", 1) ]) ]
      (on_all_mixes "m");
    make "branches on args"
      [ meth "m"
          [ If (Carg_bool 2, [ Compute (Fixed 1.0) ], [ Compute (Fixed 2.0) ]);
            If (Cnot (Carg_int_eq (1, 2)), [ Compute (Arg_dur 1) ], []);
            If
              ( Cfield_eq_arg ("f", 0),
                [ Nested { service = 3; duration = Arg_dur 1 } ],
                [ Nested { service = 1; duration = Fixed 4.0 } ] ) ] ]
      (on_all_mixes "m");
    make "loops"
      [ meth "m"
          [ Loop { kind = For; count = Carg 1;
                   body = [ Loop_enter 7; Compute (Fixed 1.0) ] };
            Loop_exit 7;
            Loop { kind = Do_while; count = Carg 1; body = [ Ignore_sync 4 ] };
            Loop { kind = While; count = Cfixed 2;
                   body =
                     [ Loop { kind = Do_while; count = Cfixed 0;
                              body = [ Compute (Fixed 0.5) ] } ] } ] ]
      (on_all_mixes "m");
    make "field resolution"
      [ meth "m"
          (locked (Sp_field "f") [ State_update ("st", 1) ]
          @ [ Assign_field ("f", Marg 0);
              Lockinfo (2, Sp_field "f");
              Assign_field ("h", Mglobal "g");
              Notify { param = Sp_field "h"; all = true };
              Wait (Sp_global "g");
              Notify { param = Sp_call "opaque"; all = false };
              Lockinfo (3, Sp_this) ]) ]
      (on_all_mixes "m");
    make "locals"
      [ meth "m"
          [ Assign ("v", Marg 0);
            Lockinfo (1, Sp_local "v");
            Assign ("w", Mlocal "v");
            Assign ("v", Mcall "opaque");
            lock (Sp_local "w");
            unlock (Sp_local "v");
            Assign ("x", Mfield "f");
            Assign ("y", Mconst 8);
            Notify { param = Sp_local "x"; all = false };
            Notify { param = Sp_local "y"; all = false } ];
        meth "unassigned" [ Compute (Fixed 1.0); lock (Sp_local "u") ];
        meth "one-branch"
          [ If (Carg_bool 2, [ Assign ("u", Marg 0) ], []);
            lock (Sp_local "u") ] ]
      (on_all_mixes "m" @ on_all_mixes "unassigned"
      @ on_all_mixes "one-branch");
    make "call frames"
      [ meth "m"
          [ Assign ("v", Mconst 1);
            Call "h";
            lock (Sp_local "v");
            Call "g";
            Compute (Fixed 3.0) ];
        meth ~exported:false "h"
          [ Assign ("v", Mconst 9);
            Loop { kind = For; count = Cfixed 2;
                   body =
                     [ Call "g"; Notify { param = Sp_local "v"; all = false } ]
                 } ];
        meth ~exported:false "g"
          [ Loop { kind = For; count = Carg 1; body = [ Compute (Fixed 0.1) ] };
            If (Carg_bool 2, [ Assign ("v", Mconst 6) ], []);
            Lockinfo (5, Sp_local "v") ];
        meth "undefined" [ Compute (Fixed 1.0); Call "nowhere" ] ]
      (on_all_mixes "m" @ on_all_mixes "undefined");
    make "virtual dispatch"
      [ meth "m"
          [ Virtual_call { candidates = [ "a"; "b"; "missing" ]; selector = 1 };
            Compute (Fixed 9.0) ];
        meth ~exported:false "a" [ Compute (Fixed 1.0) ];
        meth ~exported:false "b"
          [ Compute (Fixed 2.0);
            Virtual_call { candidates = [ "a" ]; selector = 3 } ] ]
      (on_all_mixes "m"
      @ List.map
          (fun k -> ("m", [| m 0; i k; bool true; i 0 |]))
          [ -1; 0; 1; 2; 3 ]);
    make "guarded wait"
      [ meth "m"
          (locked Sp_this
             [ Wait_until { param = Sp_this; field = "ready"; min = 2 };
               State_update ("st", 1);
               Wait_until { param = Sp_arg 0; field = "st"; min = 1 } ]);
        meth "producer"
          (locked Sp_this
             [ State_update ("ready", 1);
               Notify { param = Sp_this; all = true } ]) ]
      (on_all_mixes "m" @ on_all_mixes "producer");
    make "raw synchronisation"
      [ meth "sync"
          [ Compute (Fixed 1.0); Sync (Sp_arg 0, [ Compute (Fixed 1.0) ]) ];
        meth "acquire" [ Lock_acquire (Sp_field "f") ];
        meth "release" [ Lock_release (Sp_local "v") ] ]
      (on_all_mixes "sync" @ on_all_mixes "acquire" @ on_all_mixes "release");
    make "start methods"
      [ meth ~exported:false "helper" [ Compute (Fixed 1.0) ];
        meth "m" [ Compute (Fixed 1.0) ];
        meth "m" [ Compute (Fixed 2.0) ] ]
      [ ("helper", [||]); ("nowhere", [||]); ("m", [||]) ];
  ]
