(** The shared JSON codec ({!Bjson}): the reader enforces the grammar
    (nothing after the value, no raw control characters, only the
    standard escapes, strict numbers), decodes [\uXXXX], and reads back
    every string the shared escaper writes. *)

let parses doc = match Bjson.parse doc with _ -> true | exception Bjson.Bad _ -> false

let rejects what doc =
  Alcotest.(check bool) (Fmt.str "%s: %S rejected" what doc) false (parses doc)

let test_rejects_trailing_input () =
  rejects "trailing input" "{} trailing";
  rejects "second value" "[1] [2]";
  Alcotest.(check bool) "trailing whitespace is fine" true (parses "{}\n  ")

let test_rejects_raw_control_char () =
  rejects "raw tab" "\"a\tb\"";
  rejects "raw newline" "[\"a\nb\"]"

let test_rejects_bad_escape () =
  rejects "unknown escape" {|"\q"|};
  rejects "short \\u" {|"\u00"|};
  rejects "non-hex \\u" {|"\u00g0"|};
  rejects "lone low surrogate" {|"\udc00"|};
  rejects "unpaired high surrogate" {|"\ud83dx"|}

let test_decodes_escapes () =
  let str doc =
    match Bjson.parse doc with
    | Bjson.Str s -> s
    | _ -> Alcotest.failf "%S is not a string" doc
  in
  Alcotest.(check string) "\\u0009 is a tab" "\t" (str {|"\u0009"|});
  Alcotest.(check string) "short escapes" "\"\\/\b\012\n\r\t"
    (str {|"\"\\\/\b\f\n\r\t"|});
  Alcotest.(check string) "\\u00e9 is UTF-8" "\xc3\xa9" (str {|"\u00e9"|});
  Alcotest.(check string) "surrogate pair is one code point"
    "\xf0\x9f\x98\x80" (str {|"\ud83d\ude00"|})

let test_strict_numbers () =
  List.iter (rejects "number") [ "1."; ".5"; "+1"; "1e"; "-"; "0x10" ];
  Alcotest.(check bool) "full number grammar" true
    (Bjson.parse "[-0.5e+3, 12, 1E2]"
    = Bjson.List [ Num (-500.); Num 12.; Num 100. ])

let prop_escape_roundtrip =
  QCheck.Test.make ~name:"parse (quote (escape s)) = Str s" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 64) Gen.char)
    (fun s -> Bjson.parse ("\"" ^ Bjson.escape s ^ "\"") = Bjson.Str s)

let suite =
  [
    Alcotest.test_case "trailing input rejected" `Quick
      test_rejects_trailing_input;
    Alcotest.test_case "raw control character rejected" `Quick
      test_rejects_raw_control_char;
    Alcotest.test_case "bad escape rejected" `Quick test_rejects_bad_escape;
    Alcotest.test_case "escapes decoded" `Quick test_decodes_escapes;
    Alcotest.test_case "strict number grammar" `Quick test_strict_numbers;
    QCheck_alcotest.to_alcotest prop_escape_roundtrip;
  ]
