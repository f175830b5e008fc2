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

(* 64-96 KiB inputs: fresh pieces (byte runs, binary, low-entropy text)
   interleaved with re-copies of earlier output from up to 20 KiB back,
   so matches reach past the 8 KiB window edge, hash chains outgrow the
   32-candidate cap and maximum-length matches recur *)
let gen_large =
  QCheck.Gen.(
    let byte = map Char.chr (int_range 0 255) in
    let piece =
      oneof
        [
          map2 (fun c n -> String.make n c) byte (int_range 1 600);
          string_size ~gen:byte (int_range 1 2000);
          string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 1 2000);
        ]
    in
    let step =
      frequency
        [
          (3, map (fun p -> `Piece p) piece);
          (2, map2 (fun d l -> `Copy (d, l)) (int_range 1 20_000) (int_range 4 300));
        ]
    in
    (* 300 steps average about 150 KiB, so the target is always reached *)
    map2
      (fun target steps ->
        let b = Buffer.create (target + 2_000) in
        List.iter
          (fun st ->
            if Buffer.length b < target then
              match st with
              | `Piece p -> Buffer.add_string b p
              | `Copy (d, l) ->
                  let n = Buffer.length b in
                  if n > 0 then begin
                    let start = n - min d n in
                    for k = 0 to l - 1 do
                      Buffer.add_char b (Buffer.nth b (start + k))
                    done
                  end)
          steps;
        Buffer.sub b 0 (min target (Buffer.length b)))
      (int_range 65_536 98_304)
      (list_repeat 300 step))

(* mostly small mixed inputs, one in ten at the 64-96 KiB scale *)
let arb_mixed =
  QCheck.make
    ~print:(fun s ->
      if String.length s <= 4096 then String.escaped s
      else
        Printf.sprintf "<%d bytes, md5 %s>" (String.length s)
          (Digest.to_hex (Digest.string s)))
    QCheck.Gen.(frequency [ (9, gen_mixed); (1, gen_large) ])

let prop_roundtrip_mixed =
  QCheck.Test.make ~name:"zcompress roundtrip (mixed structure)" ~count:300
    arb_mixed
    (fun s -> Zcompress.decompress (Zcompress.compress s) = s)

let prop_compressed_size =
  QCheck.Test.make ~name:"compressed_size = |compress s|" ~count:200 arb_mixed
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

(* hand-built token streams for each copy path of the decoder *)
let test_decompress_overlapping () =
  Alcotest.(check string) "dist 1 replicates one byte" (String.make 11 'a')
    (Zcompress.decompress "\x00a\x86\x01\x00");
  Alcotest.(check string) "dist 3 < len 8" "abcabcabcab"
    (Zcompress.decompress "\x02abc\x84\x03\x00")

let test_back_to_back_max_matches () =
  (* overlapping: the compressor's own tokens for a 1000-byte run are one
     literal, seven 130-byte matches at distance 1 and an 89-byte tail *)
  let run = String.make 1000 'x' in
  let tokens =
    "\x00x" ^ String.concat "" (List.init 7 (fun _ -> "\xfe\x01\x00"))
    ^ "\xd5\x01\x00"
  in
  Alcotest.(check string) "compress tokens" tokens (Zcompress.compress run);
  Alcotest.(check string) "decompress" run (Zcompress.decompress tokens);
  (* non-overlapping: two 130-byte matches at distance 130 *)
  let block = String.init 130 (fun i -> Char.chr ((i * 37) land 0xff)) in
  let z =
    "\x7f" ^ String.sub block 0 128 ^ "\x01" ^ String.sub block 128 2
    ^ "\xfe\x82\x00\xfe\x82\x00"
  in
  Alcotest.(check string) "decompress, dist 130" (block ^ block ^ block)
    (Zcompress.decompress z)

let test_long_literal_runs () =
  (* 300 bytes with no repeated 3-byte string: literal runs of 128, 128
     and 44, each behind its own tag *)
  let s =
    String.init 300 (fun i -> Char.chr ((if i < 256 then i else 3 * i) land 0xff))
  in
  let z = Zcompress.compress s in
  let expect =
    "\x7f" ^ String.sub s 0 128 ^ "\x7f" ^ String.sub s 128 128 ^ "\x2b"
    ^ String.sub s 256 44
  in
  Alcotest.(check string) "compress tokens" expect z;
  Alcotest.(check string) "decompress" s (Zcompress.decompress z);
  Alcotest.(check int) "compressed_size" 303 (Zcompress.compressed_size s)

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
    Alcotest.test_case "decompress: overlapping matches" `Quick
      test_decompress_overlapping;
    Alcotest.test_case "back-to-back maximum-length matches" `Quick
      test_back_to_back_max_matches;
    Alcotest.test_case "literal runs over 128 bytes" `Quick
      test_long_literal_runs;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_binary;
    QCheck_alcotest.to_alcotest prop_roundtrip_mixed;
    QCheck_alcotest.to_alcotest prop_compressed_size;
    QCheck_alcotest.to_alcotest prop_repetitive_shrinks;
  ]
