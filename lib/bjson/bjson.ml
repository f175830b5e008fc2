(** The one JSON codec of the tree (no JSON dep in-tree). Every JSON
    document the tree writes is a {!t} spelled compact by {!to_string},
    never formatted by hand. The reader is strict — objects, arrays,
    strings with every standard escape ([\uXXXX] decoded to UTF-8,
    surrogate pairs joined), numbers, booleans, null, nothing after the
    value — but takes any whitespace layout, so indented documents of
    older versions still load. Bytes outside ASCII pass through strings
    untouched. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

(** JSON string-literal body for the bytes [s]: quote, backslash and
    newline escaped, other control bytes as [\u00XX], everything else
    raw. [parse ("\"" ^ escape s ^ "\"")] is [Str s]. *)
let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** The writer: compact JSON for [v], strings and keys through
    {!escape}, integral numbers without a fraction, others with enough
    digits to read back exactly. [parse (to_string v) = v]. Raises
    [Invalid_argument] on a non-finite number, which JSON cannot
    spell. *)
let to_string (v : t) : string =
  let b = Buffer.create 256 in
  let str s =
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  in
  let seq f = function
    | [] -> ()
    | x :: xs ->
        f x;
        List.iter
          (fun x ->
            Buffer.add_char b ',';
            f x)
          xs
  in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num f when not (Float.is_finite f) ->
        invalid_arg "Bjson.to_string: non-finite number"
    | Num f when Float.is_integer f && Float.abs f < 1e15 ->
        Buffer.add_string b (Printf.sprintf "%.0f" f)
    | Num f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
    | Str s -> str s
    | List l ->
        Buffer.add_char b '[';
        seq go l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        seq
          (fun (k, v) ->
            str k;
            Buffer.add_char b ':';
            go v)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(** [Num] of an integer. *)
let int n = Num (float_of_int n)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad (Fmt.str "%s at byte %d" m !pos)) in
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
    else fail (Fmt.str "expected %c" c)
  in
  let is_hex = function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false
  in
  let hex4 () =
    if !pos + 4 > n || not (String.for_all is_hex (String.sub s !pos 4)) then
      fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ String.sub s (!pos - 4) 4)
  in
  (* after "\u": one code point, a surrogate pair counting as one *)
  let code_point () =
    let u = hex4 () in
    if u >= 0xD800 && u <= 0xDBFF then begin
      expect '\\';
      expect 'u';
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
      0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else if u >= 0xDC00 && u <= 0xDFFF then fail "unpaired surrogate"
    else u
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          let c = if !pos + 1 < n then s.[!pos + 1] else '\000' in
          pos := !pos + 2;
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char b c
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
          | _ -> fail "bad escape");
          go ()
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* -?digits(.digits)?([eE][+-]?digits)? *)
  let number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        incr pos
      done;
      if !pos = d0 then fail "expected digit"
    in
    if peek () = Some '-' then incr pos;
    digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  let lit word v =
    String.iter expect word;
    v
  in
  (* the comma-separated items of an object or array, up to and
     including the [close] bracket (the opening one already consumed) *)
  let items close item =
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else begin
      let rec go acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go (x :: acc)
        | Some c when c = close ->
            incr pos;
            List.rev (x :: acc)
        | _ -> fail (Fmt.str "expected , or %c" close)
      in
      go []
    end
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (string_lit ())
    | Some '{' ->
        incr pos;
        Obj (items '}' member)
    | Some '[' ->
        incr pos;
        List (items ']' value)
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') -> Num (number ())
    | Some _ -> fail "expected a value"
    | None -> fail "unexpected end of input"
  and member () =
    skip_ws ();
    let k = string_lit () in
    skip_ws ();
    expect ':';
    (k, value ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input after the value";
  v

let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let num_exn what = function
  | Some (Num f) -> f
  | _ -> raise (Bad ("missing number " ^ what))

let str_exn what = function
  | Some (Str s) -> s
  | _ -> raise (Bad ("missing string " ^ what))

let list_exn what = function
  | Some (List l) -> l
  | _ -> raise (Bad ("missing array " ^ what))

(** [num_or default j] — tolerant numeric read for optional fields
    (e.g. fields added by a newer schema revision). *)
let num_or default = function Some (Num f) -> f | _ -> default

(** Parse the JSON document at [path]. *)
let load_file path = parse (In_channel.with_open_bin path In_channel.input_all)
