(* Combinators for writing programs in the mini object language.

   These read close to the Java the paper analyses:

   {[
     let open Detmt_lang.Builder in
     meth "foo" ~params:1
       [ sync (arg 0) [ state_incr "balance" 1 ];
         compute 5.0 ]
   ]} *)

open Ast

(* Synchronisation parameters. *)
let this = Sp_this

let arg i = Sp_arg i

let local v = Sp_local v

let field f = Sp_field f

let global g = Sp_global g

(* Mutex expressions. *)
let mconst i = Mconst i

let marg i = Marg i

let mfield f = Mfield f

(* Statements. *)
let compute ms = Compute (Fixed ms)

let assign v e = Assign (v, e)

let assign_field f e = Assign_field (f, e)

let sync p body = Sync (p, body)

(* java.util.concurrent explicit locks: acquisition and release need not
   nest lexically. *)
let lock_acquire p = Lock_acquire p

let lock_release p = Lock_release p

let wait p = Wait p

let wait_until p ~field ~min = Wait_until { param = p; field; min }

let notify p = Notify { param = p; all = false }

let notify_all p = Notify { param = p; all = true }

let nested ~service ms = Nested { service; duration = Fixed ms }

let state_incr f k = State_update (f, k)

let if_ c a b = If (c, a, b)

let when_ c a = If (c, a, [])

let for_ n body = Loop { kind = For; count = Cfixed n; body }

let for_arg i body = Loop { kind = For; count = Carg i; body }

let call m = Call m

let virtual_call ~selector candidates = Virtual_call { candidates; selector }

(* Conditions. *)
let arg_bool i = Carg_bool i

let field_eq_arg f i = Cfield_eq_arg (f, i)

(* Method and class definitions. *)
let meth ?(final = true) ?(exported = true) ?(params = 0) name body =
  { Class_def.name; final; exported; params; body }

let helper ?(final = true) ?(params = 0) name body =
  meth ~final ~exported:false ~params name body

let cls = Class_def.make
