type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal string that parses back to exactly [f]; always
   contains '.' or 'e' so the value round-trips as a Float, not an Int. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      (* JSON has no NaN/Infinity tokens. *)
      if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr f)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          if pretty then begin
            Buffer.add_char buf '\n';
            indent (depth + 1)
          end;
          emit (depth + 1) item)
        items;
      if pretty then begin
        Buffer.add_char buf '\n';
        indent depth
      end;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          if pretty then begin
            Buffer.add_char buf '\n';
            indent (depth + 1)
          end;
          escape_string buf k;
          Buffer.add_char buf ':';
          if pretty then Buffer.add_char buf ' ';
          emit (depth + 1) v)
        fields;
      if pretty then begin
        Buffer.add_char buf '\n';
        indent depth
      end;
      Buffer.add_char buf '}'
  in
  emit 0 t;
  if pretty then Buffer.add_char buf '\n';
  Buffer.contents buf

(* Recursive-descent parser, sufficient for reading back our own output
   (and any standard JSON). *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let code =
             try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
           in
           (* Encode the code point as UTF-8 (surrogates left as-is). *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | _ -> fail "bad escape");
        loop ()
      | c ->
        Buffer.add_char buf c;
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.contains tok '.' || String.contains tok 'e' || String.contains tok 'E'
    then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let list_opt = function List items -> Some items | _ -> None

let string_opt = function String s -> Some s | _ -> None

let int_opt = function Int i -> Some i | _ -> None

let float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

(* A counter table's values: one key per scalar, then one slug-keyed
   object per family with its zero members omitted. *)
let of_counters table (v : float array) =
  let module C = Repro_util.Counter_table in
  let num (e : C.entry) x = if e.float then Float x else Int (int_of_float x) in
  Obj
    (List.map
       (function
         | C.Scalar e -> (e.key, num e v.(e.slot))
         | C.Family f ->
           ( f.family_key,
             Obj
               (Array.fold_right
                  (fun (e : C.entry) acc ->
                    let x = v.(e.slot) in
                    if x = 0. then acc else (e.key, num e x) :: acc)
                  f.members []) ))
       (C.fields table))

(* Decoders.

   Leaves raise [Error_at ([], msg)]; structural combinators catch and
   re-raise with their own path segment consed on, so the exception that
   reaches [run] carries the full path outermost-first and renders as
   "jobs[2].scale: expected a number, got string". *)

module Decode = struct
  type 'a decoder = t -> 'a

  exception Error_at of string list * string

  let fail msg = raise (Error_at ([], msg))

  let type_name = function
    | Null -> "null"
    | Bool _ -> "bool"
    | Int _ -> "int"
    | Float _ -> "float"
    | String _ -> "string"
    | List _ -> "list"
    | Obj _ -> "object"

  let type_error expected j =
    fail (Printf.sprintf "expected %s, got %s" expected (type_name j))

  let string = function String s -> s | j -> type_error "a string" j

  let int = function Int i -> i | j -> type_error "an int" j

  let bool = function Bool b -> b | j -> type_error "a bool" j

  let float = function
    | Float f -> f
    | Int i -> float_of_int i
    | j -> type_error "a number" j

  let nest segment f =
    try f () with Error_at (path, msg) -> raise (Error_at (segment :: path, msg))

  let field name d = function
    | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> nest name (fun () -> d v)
      | None -> nest name (fun () -> fail "missing required field"))
    | j -> type_error "an object" j

  let field_opt name d = function
    | Obj fields -> (
      match List.assoc_opt name fields with
      | None | Some Null -> None
      | Some v -> nest name (fun () -> Some (d v)))
    | j -> type_error "an object" j

  let field_default name d default j =
    match field_opt name d j with Some v -> v | None -> default

  let list d = function
    | List items ->
      List.mapi (fun i v -> nest (Printf.sprintf "[%d]" i) (fun () -> d v)) items
    | j -> type_error "a list" j

  let obj d = function
    | Obj fields ->
      List.map (fun (k, v) -> (k, nest k (fun () -> d v))) fields
    | j -> type_error "an object" j

  let map f d j = f (d j)

  let const v _ = v

  let value j = j

  let counters table (v : float array) j =
    let module C = Repro_util.Counter_table in
    let num (e : C.entry) = if e.float then float else map float_of_int int in
    List.iter
      (function
        | C.Scalar e ->
          v.(e.slot) <-
            (if e.strict then field e.key (num e) j
             else field_default e.key (num e) 0. j)
        | C.Family f ->
          let members = field_default f.family_key (obj value) [] j in
          nest f.family_key (fun () ->
              List.iter
                (fun (slug, x) ->
                  match
                    Array.find_opt (fun (e : C.entry) -> e.key = slug) f.members
                  with
                  | Some e -> v.(e.slot) <- nest slug (fun () -> num e x)
                  | None -> fail (Printf.sprintf "unknown slug %S" slug))
                members))
      (C.fields table)

  let render_path = function
    | [] -> "$"
    | first :: rest ->
      List.fold_left
        (fun acc seg ->
          if String.length seg > 0 && seg.[0] = '[' then acc ^ seg
          else acc ^ "." ^ seg)
        first rest

  let run d j =
    match d j with
    | v -> Ok v
    | exception Error_at (path, msg) -> Error (render_path path ^ ": " ^ msg)
end
