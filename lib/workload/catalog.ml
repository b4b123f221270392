(* The workspace stressor (E20a): every fourth request synchronises through
   a local the §4.3 analysis cannot resolve, so its conflict class is [Top]
   even though the dynamic closure is one of 64 mutexes.  Plain cgs
   serialises each opaque request against everything in flight; cgs+ws
   speculates it in a workspace off the critical path and merges at its
   slot barrier. *)
let sharded_opaque =
  { Sharded.default with Sharded.cross_ratio = 0.0; opaque_ratio = 0.25 }

let table =
  [ ("figure1", fun () -> Figure1.(cls default, gen default));
    ("compute-heavy",
     fun () -> Figure1.(cls compute_heavy, gen compute_heavy));
    ("disjoint", fun () -> (Disjoint.cls Disjoint.default, Disjoint.gen));
    ("tail", fun () -> Tail_compute.(cls default, gen default));
    ("prodcons", fun () -> (Prodcons.cls Prodcons.default, Prodcons.gen));
    ("sharded", fun () -> Sharded.(cls default, gen default));
    ("sharded-opaque",
     fun () -> Sharded.(cls sharded_opaque, gen sharded_opaque));
    ("hotspot", fun () -> Hotspot.(cls default, gen default)) ]

let names = List.map fst table

let find name =
  match List.assoc_opt name table with
  | Some build -> build ()
  | None ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (valid: %s)" name
         (String.concat ", " names))
