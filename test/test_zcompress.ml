(** Tests for the LZ77 compressor used for log-size reporting. *)

let test_roundtrip_simple () =
  let s = "hello hello hello hello world world world" in
  Alcotest.(check string) "roundtrip" s (Zcompress.decompress (Zcompress.compress s))

let test_empty () =
  Alcotest.(check string) "empty" "" (Zcompress.decompress (Zcompress.compress ""))

let test_compresses_repetition () =
  let s = String.concat "" (List.init 200 (fun _ -> "abcdefgh")) in
  let z = Zcompress.compress s in
  Alcotest.(check bool)
    (Fmt.str "1600 bytes -> %d" (String.length z))
    true
    (String.length z < String.length s / 8)

let test_incompressible_bounded_expansion () =
  let s = String.init 1000 (fun i -> Char.chr ((i * 137 + (i * i * 7)) land 0xff)) in
  let z = Zcompress.compress s in
  Alcotest.(check string) "roundtrip random" s (Zcompress.decompress z);
  Alcotest.(check bool) "expansion bounded" true
    (String.length z <= String.length s + (String.length s / 64) + 16)

let prop_roundtrip =
  QCheck.Test.make ~name:"zcompress roundtrip" ~count:300
    QCheck.(string_gen_of_size (Gen.int_range 0 2000) Gen.printable)
    (fun s -> Zcompress.decompress (Zcompress.compress s) = s)

let prop_roundtrip_binary =
  QCheck.Test.make ~name:"zcompress roundtrip (binary)" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 0 500) (Gen.map Char.chr (Gen.int_range 0 255)))
    (fun s -> Zcompress.decompress (Zcompress.compress s) = s)

(* mixed-structure inputs: runs of repetition, literal spans, and raw
   binary — the shape of real replay logs (framed records with
   compressible headers and incompressible payload bytes) *)
let gen_mixed =
  QCheck.Gen.(
    let chunk =
      oneof
        [
          (* repeated unit *)
          map2
            (fun u n -> String.concat "" (List.init n (fun _ -> u)))
            (string_size ~gen:printable (int_range 1 8))
            (int_range 1 40);
          (* literal printable span *)
          string_size ~gen:printable (int_range 0 60);
          (* raw binary span *)
          string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 60);
        ]
    in
    map (String.concat "") (list_size (int_range 0 12) chunk))

let prop_roundtrip_mixed =
  QCheck.Test.make ~name:"zcompress roundtrip (mixed structure)" ~count:300
    (QCheck.make ~print:String.escaped gen_mixed)
    (fun s -> Zcompress.decompress (Zcompress.compress s) = s)

let prop_compressed_size =
  QCheck.Test.make ~name:"compressed_size = |compress s|" ~count:200
    (QCheck.make ~print:String.escaped gen_mixed)
    (fun s -> Zcompress.compressed_size s = String.length (Zcompress.compress s))

let prop_repetitive_shrinks =
  QCheck.Test.make ~name:"zcompress shrinks repetitive input" ~count:50
    QCheck.(pair (string_gen_of_size (Gen.int_range 4 20) Gen.printable) (int_range 20 100))
    (fun (unit_s, reps) ->
      let s = String.concat "" (List.init reps (fun _ -> unit_s)) in
      String.length (Zcompress.compress s) < String.length s)

(* each malformed shape raises the one typed exception, never a stray
   Invalid_argument from the buffer or string primitives *)
let malformed name z =
  match Zcompress.decompress z with
  | out -> Alcotest.failf "%s: decoded to %S" name out
  | exception Zcompress.Malformed _ -> ()

let test_malformed_truncated_literal () =
  malformed "literal run of 6 with 2 bytes" "\x05ab"

let test_malformed_truncated_match () =
  malformed "match header with 1 of 2 distance bytes" "\x00a\x80\x01";
  malformed "match tag at end of input" "\x00a\x80"

let test_malformed_distance () =
  malformed "distance 0" "\x03abcd\x80\x00\x00";
  malformed "distance beyond output" "\x03abcd\x80\x05\x00";
  Alcotest.(check string) "distance = output length is valid" "abcdabcd"
    (Zcompress.decompress "\x03abcd\x80\x04\x00")

let suite =
  [
    Alcotest.test_case "roundtrip simple" `Quick test_roundtrip_simple;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "compresses repetition" `Quick test_compresses_repetition;
    Alcotest.test_case "bounded expansion" `Quick test_incompressible_bounded_expansion;
    Alcotest.test_case "malformed: truncated literal run" `Quick
      test_malformed_truncated_literal;
    Alcotest.test_case "malformed: truncated match header" `Quick
      test_malformed_truncated_match;
    Alcotest.test_case "malformed: match distance out of range" `Quick
      test_malformed_distance;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_binary;
    QCheck_alcotest.to_alcotest prop_roundtrip_mixed;
    QCheck_alcotest.to_alcotest prop_compressed_size;
    QCheck_alcotest.to_alcotest prop_repetitive_shrinks;
  ]
