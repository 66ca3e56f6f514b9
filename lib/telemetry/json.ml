(* See json.mli. The parser is a plain recursive-descent scanner over
   the input string; it exists so the bench-diff gate can read
   bench_summary.json without pulling a JSON package into the image. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
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
  Buffer.contents buf

let number_to_string v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_string ?(compact = false) t =
  let buf = Buffer.create 256 in
  let key k =
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape k);
    Buffer.add_string buf (if compact then "\":" else "\": ")
  in
  let rec go indent t =
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Number v -> Buffer.add_string buf (number_to_string v)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | Object [] -> Buffer.add_string buf "{}"
    | List items ->
      if compact then begin
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go indent v)
          items;
        Buffer.add_char buf ']'
      end
      else begin
        let inner = indent + 2 in
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (String.make inner ' ');
            go inner v)
          items;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_char buf ']'
      end
    | Object kvs ->
      if compact then begin
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            key k;
            go indent v)
          kvs;
        Buffer.add_char buf '}'
      end
      else begin
        let inner = indent + 2 in
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (String.make inner ' ');
            key k;
            go inner v)
          kvs;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_char buf '}'
      end
  in
  go 0 t;
  Buffer.contents buf

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "invalid literal"
  in
  (* Exactly four hex digits after the 'u' at !pos; no leading signs
     or underscores (which [int_of_string "0x..."] would accept).
     Leaves !pos on the last digit. *)
  let parse_hex4 () =
    if !pos + 4 >= n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = 1 to 4 do
      let d =
        match s.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid \\u escape (expected 4 hex digits)"
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
        incr pos;
        Buffer.contents buf
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let hi = parse_hex4 () in
          let code =
            if hi >= 0xD800 && hi <= 0xDBFF then begin
              (* surrogate pair: the low half must follow immediately
                 as another \u escape; the two combine into one
                 supplementary-plane code point (4-byte UTF-8) *)
              if !pos + 2 < n && s.[!pos + 1] = '\\' && s.[!pos + 2] = 'u'
              then begin
                pos := !pos + 2;
                let lo = parse_hex4 () in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
                else fail "invalid low surrogate in \\u pair"
              end
              else fail "unpaired high surrogate"
            end
            else if hi >= 0xDC00 && hi <= 0xDFFF then
              fail "unpaired low surrogate"
            else hi
          in
          add_utf8 buf code
        | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        incr pos;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ()
  in
  (* The RFC 8259 grammar: an optional minus, then 0 or a digit run
     without a leading zero, an optional fraction and an optional
     exponent, each with at least one digit. Checked here because
     [float_of_string] also takes "+1", ".5", "1." and "0x10". A
     leading zero ends the integer part, so "01" leaves trailing
     data. *)
  let is c = !pos < n && Char.equal s.[!pos] c in
  let digits () =
    let first = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = first then fail "invalid number"
  in
  let parse_number () =
    let start = !pos in
    if is '-' then incr pos;
    if is '0' then incr pos else digits ();
    if is '.' then begin
      incr pos;
      digits ()
    end;
    if is 'e' || is 'E' then begin
      incr pos;
      if is '+' || is '-' then incr pos;
      digits ()
    end;
    float_of_string (String.sub s start (!pos - start))
  in
  (* A depth bound turns pathological nesting ("[[[[...") into a
     Parse_error instead of a stack overflow — this parser reads
     machine-generated summaries but also imported store dumps, which
     are untrusted. *)
  let max_depth = 512 in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Object []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            Object (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items (v :: acc)
          | Some ']' ->
            incr pos;
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Number (parse_number ())
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing data at offset %d" !pos)
    else Ok v
  with Parse_error msg -> Error msg

let parse_exn s =
  match parse s with Ok v -> v | Error m -> invalid_arg ("Json.parse: " ^ m)

let member k = function Object kvs -> List.assoc_opt k kvs | _ -> None

let path keys v =
  List.fold_left
    (fun acc k -> match acc with None -> None | Some v -> member k v)
    (Some v) keys

let number = function Number v -> Some v | _ -> None
let string_value = function String s -> Some s | _ -> None
let list_value = function List l -> Some l | _ -> None
