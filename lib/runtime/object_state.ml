(* The state of one replica's copy of the replicated object: mutex-reference
   fields, integer state fields and globals.  [fingerprint] folds the state
   into a hash compared across replicas by the consistency checker.

   Each kind of field lives in an int array indexed by a per-class offset:
   a field's offset is the position of its first declaration in the class.
   [Interp] resolves every field name to its offset when it compiles a
   method, so a field read or an update on the hot path indexes an array
   and hashes no name.  The by-name accessors look the offset up first;
   they serve state transfer, tools and tests. *)

type layout = {
  state_names : string array; (* by offset *)
  mutex_names : string array;
  global_names : string array;
  state_by_name : int array; (* the offsets in field-name order *)
  mutex_by_name : int array;
}

type t = {
  layout : layout;
  mutex_fields : int array;
  state_fields : int array;
  globals : int array;
}

(* The offset of [f] among [names], or [-1].  A scan: classes declare a
   handful of fields, and names are looked up when a method is compiled
   and by the by-name accessors, never per op. *)
let rec find_from names f i =
  if i = Array.length names then -1
  else if String.equal names.(i) f then i
  else find_from names f (i + 1)

let find names f = find_from names f 0

(* The distinct names of a declaration list, in first-declaration order. *)
let distinct names =
  Array.of_list
    (List.rev
       (List.fold_left
          (fun acc n -> if List.mem n acc then acc else n :: acc)
          [] names))

let by_name names =
  let offsets = Array.init (Array.length names) Fun.id in
  Array.sort (fun a b -> compare names.(a) names.(b)) offsets;
  offsets

let layout (cls : Detmt_lang.Class_def.t) =
  let state_names = distinct cls.state_fields in
  let mutex_names = distinct (List.map fst cls.mutex_fields) in
  { state_names; mutex_names;
    global_names = distinct (List.map fst cls.globals);
    state_by_name = by_name state_names; mutex_by_name = by_name mutex_names }

(* A field declared twice keeps its first offset and its last value. *)
let values names assoc =
  let a = Array.make (Array.length names) 0 in
  List.iter (fun (k, v) -> a.(find names k) <- v) assoc;
  a

let create (cls : Detmt_lang.Class_def.t) =
  let l = layout cls in
  { layout = l;
    mutex_fields = values l.mutex_names cls.mutex_fields;
    state_fields = Array.make (Array.length l.state_names) 0;
    globals = values l.global_names cls.globals }

(* The monitor of [this]: one id, above every id the workloads allocate. *)
let self_mutex _ = 1_000_000

(* ------------------------------- offsets ------------------------------- *)

let no_such what f =
  invalid_arg (Printf.sprintf "Object_state: no %s %S" what f)

let state_offset l f = find l.state_names f

let mutex_offset l f = find l.mutex_names f

let global_offset l f = find l.global_names f

let state_name t off = t.layout.state_names.(off)

let mutex_name t off = t.layout.mutex_names.(off)

let state_count t = Array.length t.state_fields

let mutex_count t = Array.length t.mutex_fields

(* ------------------------------ by offset ------------------------------ *)

let mutex_at t off = t.mutex_fields.(off)

let set_mutex_at t off v = t.mutex_fields.(off) <- v

let global_at t off = t.globals.(off)

let state_at t off = t.state_fields.(off)

let set_state_at t off v = t.state_fields.(off) <- v

let update_state_at t off delta =
  t.state_fields.(off) <- t.state_fields.(off) + delta

(* ------------------------------- by name ------------------------------- *)

let offset names what f = match find names f with -1 -> no_such what f | o -> o

let mutex_field t f =
  t.mutex_fields.(offset t.layout.mutex_names "mutex field" f)

let set_mutex_field t f v =
  t.mutex_fields.(offset t.layout.mutex_names "mutex field" f) <- v

let global t g = t.globals.(offset t.layout.global_names "global" g)

let state_field t f =
  t.state_fields.(offset t.layout.state_names "state field" f)

let update_state t f delta =
  update_state_at t (offset t.layout.state_names "state field" f) delta

(* Install a checkpointed value (passive replication). *)
let set_state t f v =
  t.state_fields.(offset t.layout.state_names "state field" f) <- v

(* In field-name order, as the string-keyed tables were folded. *)
let sorted names by_name values =
  Array.fold_right (fun o acc -> (names.(o), values.(o)) :: acc) by_name []

let fingerprint t =
  let h = ref 0xCBF29CE484222325L in
  let mix x = h := Int64.mul (Int64.logxor !h (Int64.of_int x)) 0x100000001B3L in
  let fold names values o =
    String.iter (fun c -> mix (Char.code c)) names.(o);
    mix values.(o)
  in
  let l = t.layout in
  Array.iter (fold l.state_names t.state_fields) l.state_by_name;
  Array.iter (fold l.mutex_names t.mutex_fields) l.mutex_by_name;
  !h

let state_snapshot t =
  sorted t.layout.state_names t.layout.state_by_name t.state_fields

let mutex_field_snapshot t =
  sorted t.layout.mutex_names t.layout.mutex_by_name t.mutex_fields
