(* The state of one replica's copy of the replicated object: mutex-reference
   fields, integer state fields and globals.  [fingerprint] folds the state
   into a hash compared across replicas by the consistency checker. *)

type t = {
  mutex_fields : (string, int) Hashtbl.t;
  state_fields : (string, int) Hashtbl.t;
  globals : (string, int) Hashtbl.t;
}

let create (cls : Detmt_lang.Class_def.t) =
  let of_assoc l =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) l;
    tbl
  in
  { mutex_fields = of_assoc cls.mutex_fields;
    state_fields = of_assoc (List.map (fun f -> (f, 0)) cls.state_fields);
    globals = of_assoc cls.globals }

(* The monitor of [this]: one id, above every id the workloads allocate. *)
let self_mutex _ = 1_000_000

(* [Hashtbl.find], not [find_opt]: a field read or [update_state] is per
   op, and allocates nothing. *)
let get tbl what f =
  match Hashtbl.find tbl f with
  | v -> v
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Object_state: no %s %S" what f)

let mutex_field t f = get t.mutex_fields "mutex field" f

let set_mutex_field t f v =
  ignore (mutex_field t f);
  Hashtbl.replace t.mutex_fields f v

let global t g = get t.globals "global" g

let state_field t f = get t.state_fields "state field" f

let update_state t f delta =
  Hashtbl.replace t.state_fields f (state_field t f + delta)

(* Install a checkpointed value (passive replication). *)
let set_state t f v =
  ignore (state_field t f);
  Hashtbl.replace t.state_fields f v

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let fingerprint t =
  let h = ref 0xCBF29CE484222325L in
  let mix x = h := Int64.mul (Int64.logxor !h (Int64.of_int x)) 0x100000001B3L in
  let mix_string s = String.iter (fun c -> mix (Char.code c)) s in
  let fold (k, v) =
    mix_string k;
    mix v
  in
  List.iter fold (sorted t.state_fields);
  List.iter fold (sorted t.mutex_fields);
  !h

let state_snapshot t = sorted t.state_fields

let mutex_field_snapshot t = sorted t.mutex_fields
