open Detmt_lang

type params = {
  iterations : int;
  p_nested : float;
  p_compute : float;
  n_mutexes : int;
  nested_ms : float;
  compute_ms : float;
  front_compute_ms : float;
}

let default =
  { iterations = 10; p_nested = 0.2; p_compute = 0.2; n_mutexes = 100;
    nested_ms = 12.0; compute_ms = 10.0; front_compute_ms = 0.0 }

(* Ablation variant: a lock-free computation before the locking loop
   (demarshalling, validation, ...).  This is exactly the situation the
   paper names as MAT's strength — "threads that issue computations before
   changing the object state" can run as concurrent secondaries — whereas
   SAT still serialises it. *)
let compute_heavy = { default with front_compute_ms = 20.0 }

let method_name = "work"

(* Request arguments, per iteration i:
     arg (3i)     : Vbool  — simulate a nested invocation?
     arg (3i + 1) : Vbool  — simulate a local computation?
     arg (3i + 2) : Vmutex — the mutex for this iteration's update *)
let iteration p i =
  let open Builder in
  [ when_ (arg_bool (3 * i)) [ nested ~service:0 p.nested_ms ];
    when_ (arg_bool ((3 * i) + 1)) [ compute p.compute_ms ];
    sync (arg ((3 * i) + 2)) [ state_incr "state" 1 ];
  ]

let cls p =
  let open Builder in
  let front =
    if p.front_compute_ms > 0.0 then [ compute p.front_compute_ms ] else []
  in
  let body = front @ List.concat (List.init p.iterations (iteration p)) in
  cls ~cname:"Figure1" ~state_fields:[ "state" ]
    [ meth method_name ~params:(3 * p.iterations) body ]

(* The argument values are immutable, so one generator shares them across
   requests: only the args array is fresh per request. *)
let vtrue = Ast.Vbool true

let vfalse = Ast.Vbool false

let gen p =
  let mutexes = Array.init p.n_mutexes (fun m -> Ast.Vmutex m) in
  fun ~client:_ ~seq:_ rng ->
    let args = Array.make (3 * p.iterations) vfalse in
    for i = 0 to p.iterations - 1 do
      if Detmt_sim.Rng.bool rng p.p_nested then args.(3 * i) <- vtrue;
      if Detmt_sim.Rng.bool rng p.p_compute then args.((3 * i) + 1) <- vtrue;
      args.((3 * i) + 2) <- mutexes.(Detmt_sim.Rng.int rng p.n_mutexes)
    done;
    (method_name, args)
