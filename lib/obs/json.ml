type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

(* The C primitive behind [Printf]'s [%g]: the same bytes without the
   format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* The decimal digits of [n <= 0], without its sign: a negative
   accumulator reaches [min_int], which has no positive twin. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf i
  end
  else add_neg_digits buf (-i)

(* The shortest decimal string that parses back to exactly [f]; always
   contains '.' or 'e' so the value round-trips as a Float, not an Int.
   An integral float below 1e16 is its digits and ".0" (what "%.1f"
   prints, "-0.0" included); any other is "%.12g" if that reads back as
   [f], else "%.17g". *)
let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e16 then begin
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_neg_digits buf (- Int.abs (int_of_float f));
    Buffer.add_string buf ".0"
  end
  else
    let s = format_float "%.12g" f in
    Buffer.add_string buf
      (if float_of_string s = f then s else format_float "%.17g" f)

let float_repr f =
  let buf = Buffer.create 24 in
  add_float buf f;
  Buffer.contents buf

let escape_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c when Char.code c < 0x20 ->
    Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
  | c -> Buffer.add_char buf c

(* Every key and almost every value we write needs no escape: its bytes
   go in as one run, up to the first byte that does. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec plain i =
    if i = n then Buffer.add_string buf s
    else
      match String.unsafe_get s i with
      | '"' | '\\' -> escaped i
      | c when Char.code c < 0x20 -> escaped i
      | _ -> plain (i + 1)
  and escaped i =
    Buffer.add_substring buf s 0 i;
    for j = i to n - 1 do
      escape_char buf (String.unsafe_get s j)
    done
  in
  plain 0;
  Buffer.add_char buf '"'

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> add_int buf i
    | Float f ->
      (* JSON has no NaN/Infinity tokens. *)
      if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
        Buffer.add_string buf "null"
      else add_float buf f
    | String s -> escape_string buf s
    | Raw text -> Buffer.add_string buf text
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
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  (* Char tests on the cursor, so the hot loops build no option. *)
  let at c = !pos < n && Char.equal (String.unsafe_get s !pos) c in
  let expect c =
    if at c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let len = String.length word in
    let p = !pos in
    let rec matches i =
      i = len
      || Char.equal (String.unsafe_get s (p + i)) (String.unsafe_get word i)
         && matches (i + 1)
    in
    if p + len <= n && matches 0 then begin
      pos := p + len;
      value
    end
    else fail ("expected " ^ word)
  in
  (* The rest of a string whose first backslash is at the cursor, after
     its escape-free head was copied into [buf]. *)
  let rec escaped buf =
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
      escaped buf
    | c ->
      Buffer.add_char buf c;
      escaped buf
  in
  (* An escape-free string — every key and almost every value we write —
     is one [String.sub]; its first backslash hands the rest to
     [escaped]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let rec scan i =
      if i >= n then begin
        pos := n;
        fail "unterminated string"
      end
      else
        match String.unsafe_get s i with
        | '"' ->
          pos := i + 1;
          String.sub s start (i - start)
        | '\\' ->
          pos := i;
          let buf = Buffer.create (i - start + 16) in
          Buffer.add_substring buf s start (i - start);
          escaped buf
        | _ -> scan (i + 1)
    in
    scan start
  in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  (* The general token: the longest run of number characters, read by
     [int_of_string_opt] unless it has a fraction or an exponent, and by
     [float_of_string_opt] if that fails. *)
  let number_token start =
    let fractional = ref false in
    while !pos < n && is_num_char (String.unsafe_get s !pos) do
      (match String.unsafe_get s !pos with
       | '.' | 'e' | 'E' -> fractional := true
       | _ -> ());
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let as_float () =
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    in
    if !fractional then as_float ()
    else match int_of_string_opt tok with Some i -> Int i | None -> as_float ()
  in
  (* Almost every number we write is an int of at most 18 digits: an
     optional '-' and digits that no other number character follows. Its
     value is built from the digits in place, and cannot overflow; every
     other token goes through [number_token]. *)
  let parse_number () =
    let start = !pos in
    let first = if at '-' then start + 1 else start in
    let i = ref first and acc = ref 0 in
    while
      !i < n
      && !i - first < 19
      &&
      match String.unsafe_get s !i with
      | '0' .. '9' as c ->
        acc := (10 * !acc) + (Char.code c - 48);
        true
      | _ -> false
    do
      incr i
    done;
    let digits = !i - first in
    if digits > 0 && digits <= 18 && not (!i < n && is_num_char (String.unsafe_get s !i))
    then begin
      pos := !i;
      Int (if first > start then - !acc else !acc)
    end
    else number_token start
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '[' ->
      advance ();
      skip_ws ();
      if at ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while at ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | '{' ->
      advance ();
      skip_ws ();
      if at '}' then begin
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
        while at ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | _ -> parse_number ()
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
    | Raw _ -> "raw JSON text"

  let type_error expected j =
    fail (Printf.sprintf "expected %s, got %s" expected (type_name j))

  let string = function String s -> s | j -> type_error "a string" j

  let int = function Int i -> i | j -> type_error "an int" j

  let bool = function Bool b -> b | j -> type_error "a bool" j

  let float = function
    | Float f -> f
    | Int i -> float_of_int i
    | j -> type_error "a number" j

  (* [d v], its failure's path under [segment]. *)
  let nest segment d v =
    try d v with Error_at (path, msg) -> raise (Error_at (segment :: path, msg))

  let field name d = function
    | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> nest name d v
      | None -> nest name fail "missing required field")
    | j -> type_error "an object" j

  let field_opt name d = function
    | Obj fields -> (
      match List.assoc_opt name fields with
      | None | Some Null -> None
      | Some v -> Some (nest name d v))
    | j -> type_error "an object" j

  let field_default name d default j =
    match field_opt name d j with Some v -> v | None -> default

  let list d = function
    | List items ->
      List.mapi
        (fun i v ->
          try d v
          with Error_at (path, msg) ->
            raise (Error_at (Printf.sprintf "[%d]" i :: path, msg)))
        items
    | j -> type_error "a list" j

  let obj d = function
    | Obj fields -> List.map (fun (k, v) -> (k, nest k d v)) fields
    | j -> type_error "an object" j

  let map f d j = f (d j)

  let const v _ = v

  let value j = j

  let int_as_float j = float_of_int (int j)

  (* One pass over the object's fields files each under its table
     position (the first of duplicate keys wins, unknown keys are
     skipped); a second pass over the table, in declaration order,
     decodes them, so the first fault reported is the first in
     declaration order. A family's members are read in wire order. *)
  let counters table (v : float array) j =
    let module C = Repro_util.Counter_table in
    let num (e : C.entry) = if e.float then float else int_as_float in
    match j with
    | Obj kvs ->
      let fields = C.positions table in
      let found = Array.make (Array.length fields) None in
      let hint = ref 0 in
      List.iter
        (fun (k, x) ->
          let i = C.position table ~hint:!hint k in
          hint := i + 1;
          if i >= 0 && Option.is_none found.(i) then found.(i) <- Some x)
        kvs;
      Array.iteri
        (fun i field ->
          match (field, found.(i)) with
          | C.Scalar e, None ->
            if e.strict then nest e.key fail "missing required field"
            else v.(e.slot) <- 0.
          | C.Scalar e, Some Null when not e.strict -> v.(e.slot) <- 0.
          | C.Scalar e, Some x -> v.(e.slot) <- nest e.key (num e) x
          | C.Family _, (None | Some Null) -> ()
          | C.Family f, Some (Obj members) ->
            let hint = ref 0 in
            List.iter
              (fun (slug, x) ->
                match C.member_position f ~hint:!hint slug with
                | -1 ->
                  nest f.family_key fail (Printf.sprintf "unknown slug %S" slug)
                | m ->
                  hint := m + 1;
                  let e = f.members.(m) in
                  v.(e.slot) <- nest f.family_key (nest slug (num e)) x)
              members
          | C.Family f, Some x -> nest f.family_key (type_error "an object") x)
        fields
    | j -> type_error "an object" j

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
