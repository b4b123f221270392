(* Readers for what the exporters emit.  The library only prints JSON and
   OpenMetrics; the tests parse the output back to check that it is
   well-formed and round-trips. *)

open Detmt_obs.Json

(* ------------------------------- JSON -------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' ->
      advance c;
      Buffer.contents buf
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
      | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
      | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
      | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
      | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then fail c "short \\u escape";
        let hex = String.sub c.src c.pos 4 in
        c.pos <- c.pos + 4;
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> fail c "bad \\u escape"
        in
        (* Encode as UTF-8; surrogate pairs are not reassembled (the
           exporter never emits them). *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end;
        go ()
      | _ -> fail c "bad escape")
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c (Printf.sprintf "bad number %S" s))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
    advance c;
    String (parse_string_body c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List (List.rev (v :: acc))
        | _ -> fail c "expected ',' or ']'"
      in
      items []
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else
      let field () =
        skip_ws c;
        expect c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields (kv :: acc)
        | Some '}' ->
          advance c;
          Obj (List.rev (kv :: acc))
        | _ -> fail c "expected ',' or '}'"
      in
      fields []
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected %C" ch)

let json s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing garbage"
    else Ok v
  | exception Parse_error msg -> Error msg

(* ---------------------------- OpenMetrics ---------------------------- *)

(* An exposition read back into a JSON document mapping each family name
   to {"type": ..., "samples": [{"name"; "labels"; "value"}]}: export ->
   read -> print -> read must be lossless. *)

exception Bad of string

let parse_labels s =
  (* s is the text between '{' and '}': key="value",... *)
  let n = String.length s in
  let rec pairs i acc =
    if i >= n then List.rev acc
    else begin
      let eq =
        match String.index_from_opt s i '=' with
        | Some e -> e
        | None -> raise (Bad ("malformed label set: " ^ s))
      in
      let key = String.sub s i (eq - i) in
      if eq + 1 >= n || s.[eq + 1] <> '"' then
        raise (Bad ("unquoted label value: " ^ s));
      let buf = Buffer.create 16 in
      let rec scan j =
        if j >= n then raise (Bad ("unterminated label value: " ^ s))
        else
          match s.[j] with
          | '"' -> j + 1
          | '\\' when j + 1 < n ->
            Buffer.add_char buf s.[j + 1];
            scan (j + 2)
          | c ->
            Buffer.add_char buf c;
            scan (j + 1)
      in
      let after = scan (eq + 2) in
      let acc = (key, Buffer.contents buf) :: acc in
      if after < n && s.[after] = ',' then pairs (after + 1) acc
      else if after = n then List.rev acc
      else raise (Bad ("malformed label separator: " ^ s))
    end
  in
  pairs 0 []

let openmetrics text =
  let lines = String.split_on_char '\n' text in
  let families = ref [] in (* (name, type, samples rev) newest first *)
  let saw_eof = ref false in
  let add_sample name labels value =
    match !families with
    | (fname, ty, samples) :: rest
      when String.length name >= String.length fname
           && String.sub name 0 (String.length fname) = fname ->
      let s =
        Obj
          [ ("name", String name);
          ( "labels",
            Obj (List.map (fun (k, v) -> (k, String v)) labels) );
            ("value", Float value) ]
      in
      families := (fname, ty, s :: samples) :: rest
    | _ -> raise (Bad ("sample outside its family: " ^ name))
  in
  (try
     List.iter
       (fun line ->
         if !saw_eof && line <> "" then raise (Bad "content after # EOF")
         else if line = "" then ()
         else if line = "# EOF" then saw_eof := true
         else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
           match String.split_on_char ' ' line with
           | [ _hash; _type; name; ty ] ->
             families := (name, ty, []) :: !families
           | _ -> raise (Bad ("malformed TYPE line: " ^ line))
         end
         else if line.[0] = '#' then ()
         else begin
           match String.rindex_opt line ' ' with
           | None -> raise (Bad ("malformed sample line: " ^ line))
           | Some sp ->
             let name_part = String.sub line 0 sp in
             let value_part =
               String.sub line (sp + 1) (String.length line - sp - 1)
             in
             let value =
               match float_of_string_opt value_part with
               | Some v -> v
               | None -> raise (Bad ("bad sample value: " ^ value_part))
             in
             let name, labels =
               match String.index_opt name_part '{' with
               | None -> (name_part, [])
               | Some b ->
                 if name_part.[String.length name_part - 1] <> '}' then
                   raise (Bad ("malformed labels: " ^ name_part));
                 ( String.sub name_part 0 b,
                   parse_labels
                     (String.sub name_part (b + 1)
                        (String.length name_part - b - 2)) )
             in
             add_sample name labels value
         end)
       lines;
     if not !saw_eof then raise (Bad "missing # EOF terminator");
     Ok
       (Obj
          (List.rev_map
             (fun (name, ty, samples) ->
               ( name,
                 Obj
                   [ ("type", String ty);
                     ("samples", List (List.rev samples)) ] ))
             !families))
   with Bad msg -> Error msg)
