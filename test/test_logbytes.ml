(** Pins on the log byte path: the exact bytes {!Zcompress.compress}
    emits for a fixed corpus, and the exact minor-heap allocation of
    encoding, decoding and sizing one fixed recorded log.

    The corpus is the encoded input and order logs of two golden cells
    (pfscan and ocean at their profile scale, 4 cores, seed 1) plus a
    deterministic synthetic input of about 80 KiB. Reported
    [log_z_bytes], sealed [chimera-log-segments/2] blobs and their MD5s
    all depend on the compressor's greedy choices, so any rewrite of it
    must reproduce these digests exactly. *)

let record_cell name =
  let b = Bench_progs.Registry.by_name name in
  let an = Test_e2e.analyze_bench b ~workers:4 ~scale:b.b_profile_scale in
  let io = b.b_io ~seed:42 ~scale:b.b_profile_scale in
  (Chimera.Runner.record ~config:(Test_e2e.eval_config 1) ~io an.an_instrumented)
    .rc_log

(* recorded once, on first use; the cases of one suite run serially *)
let cells = ref None

let cell_logs () =
  match !cells with
  | Some c -> c
  | None ->
      let c = List.map (fun n -> (n, record_cell n)) [ "pfscan"; "ocean" ] in
      cells := Some c;
      c

(* About 80 KiB that reaches every edge of the match finder:
   - a 12 KiB random block repeated whole (distance 12 KiB, past the
     8 KiB window, so the copy must stay literal) and then in part from
     within the window;
   - short records sharing a 4-byte prefix, so each hash chain is far
     longer than the 32 candidates the finder walks;
   - a single-byte run and a repeated 300-byte block, giving
     back-to-back maximum-length (130-byte) matches at distance 1 and
     at distance 300;
   - repeats at exactly the window's edge, 8192 and 8193 bytes back;
   - a random tail, giving literal runs longer than 128 bytes. *)
let synthetic =
  let st = ref 0x2545F491 in
  let rnd () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st lsr 14
  in
  let rand_string n = String.init n (fun _ -> Char.chr (rnd () land 0xff)) in
  let b = Buffer.create 80_000 in
  let block = rand_string 12_288 in
  Buffer.add_string b block;
  Buffer.add_string b block;
  Buffer.add_string b (String.sub block 2_000 4_096);
  for _ = 1 to 2_400 do
    Buffer.add_string b "rec:";
    Buffer.add_string b (string_of_int (rnd () mod 97));
    Buffer.add_char b (Char.chr (rnd () land 0xff))
  done;
  Buffer.add_string b (String.make 4_000 'z');
  let unit = rand_string 300 in
  for _ = 1 to 30 do
    Buffer.add_string b unit
  done;
  (* a chunk seen again exactly 8192 bytes later (the window's last
     reachable distance) and another exactly 8193 bytes later (just out
     of reach) *)
  List.iter
    (fun d ->
      let x = rand_string 64 in
      Buffer.add_string b x;
      Buffer.add_string b (rand_string (d - 64));
      Buffer.add_string b x)
    [ 8_192; 8_193 ];
  Buffer.add_string b (rand_string 8_000);
  Buffer.contents b

let corpus () =
  List.concat_map
    (fun (name, log) ->
      [
        (name ^ ".input", Replay.Log.encode_input_log log);
        (name ^ ".order", Replay.Log.encode_order_log log);
      ])
    (cell_logs ())
  @ [ ("synthetic", synthetic) ]

let md5 s = Digest.to_hex (Digest.string s)

(* (name, MD5 of the input, MD5 of [compress input]), captured before the
   compressor's greedy loop was rewritten. A moved input digest means the
   corpus itself changed (a new recording or cost model), not the
   compressor: recapture both columns then. The order-log rows were
   recaptured when the recorder began merging the schedule per core
   (pfscan's order log went from 30,601 to 284 bytes, ocean's from
   58,953 to 2,816) and again when the order log dropped the schedule
   (to 168 and 2,583 bytes, each a prefix of the log before); the input
   logs did not move, and neither did the synthetic row. *)
let pins =
  [
    ("pfscan.input", "c940a1bf721b43f3050ad41ecc2733c0",
     "d65517447b7257a6642f01f48322245b");
    ("pfscan.order", "9aecb93703992249b2af4304dece7b07",
     "3c2e8e90e31cc9cb87b7a8f1bcfc1c90");
    ("ocean.input", "862dc72fea414781ef103e4d56103cba",
     "a5c166a7c9c1b39bccdfc53a3b2656b6");
    ("ocean.order", "5c709424b8743d7c5b7c0b2d473eff22",
     "e80c53b3f9f9d09e45027a55a10d21b7");
    ("synthetic", "f7dbd961aa2cac1e10a610a2d12d662b",
     "d2a67a5561cdbf1b4ae28bc8c9f7761e");
  ]

let test_compress_pins () =
  Alcotest.(check bool) "synthetic input is at least 64 KiB" true
    (String.length synthetic >= 65_536);
  List.iter
    (fun (name, s) ->
      let _, in_md5, z_md5 =
        List.find (fun (n, _, _) -> n = name) pins
      in
      Alcotest.(check string) (name ^ ": corpus input") in_md5 (md5 s);
      let z = Zcompress.compress s in
      Alcotest.(check string) (name ^ ": compressed bytes") z_md5 (md5 z);
      Alcotest.(check int) (name ^ ": compressed_size") (String.length z)
        (Zcompress.compressed_size s);
      Alcotest.(check bool) (name ^ ": round-trip") true
        (Zcompress.decompress z = s))
    (corpus ())

let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* Minor-heap words allocated by each stage on the pfscan recording,
   with ceilings of the measured value plus 10%, and at least one word
   (OCaml 5.1, no flambda). Measured: encode_input_log 344, decode 9_731,
   compressed_size 2. A closure allocated per varint or per list element
   costs several words per element and breaks the ceiling: the input log
   holds 2,048 recorded words in 3,690 bytes of varints (encode measured
   161_059 and decode 335_307 words on the then 30 KB order log when both
   varint loops were local closures). The encode and size ceilings sit
   on the input log because the order log is 168 bytes: too few varints
   for a per-varint closure to show. [Gc.minor_words] does not see an
   array of more than 256 words, which goes straight to the major heap;
   the compressor's tables are such arrays, so they are guarded by
   {!test_tables_reused}. *)
let test_alloc_ceilings () =
  let log = List.assoc "pfscan" (cell_logs ()) in
  let i = Replay.Log.encode_input_log log in
  let o = Replay.Log.encode_order_log log in
  let check what ceiling f =
    let w = minor_words f in
    if w > float_of_int ceiling then
      Alcotest.failf "%s allocated %.0f minor words (ceiling %d)" what w
        ceiling
  in
  check "Log.encode_input_log" 379 (fun () -> Replay.Log.encode_input_log log);
  check "Log.decode" 10_704 (fun () -> Replay.Log.decode i o);
  check "Zcompress.compressed_size" 3 (fun () -> Zcompress.compressed_size i)

(* [Gc.allocated_bytes] counts the blocks allocated straight on the
   major heap too, which [Gc.minor_words] misses: with a fresh
   16,384-entry [head] table (128 KiB) per call, this call allocated
   238,720 bytes. The first call may set up the domain's tables, so the
   second is measured. *)
let test_tables_reused () =
  let log = List.assoc "pfscan" (cell_logs ()) in
  let o = Replay.Log.encode_order_log log in
  ignore (Zcompress.compressed_size o : int);
  let b0 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Zcompress.compressed_size o));
  let bytes = Gc.allocated_bytes () -. b0 in
  if bytes >= 16_384. then
    Alcotest.failf "repeated compressed_size allocated %.0f bytes" bytes

(* The tables outlive a scan: [head] is refilled on every call and
   [prev] is not, so each pinned row is compressed again right after a
   64 KiB input has filled the whole ring, and the corpus is compressed
   on two domains at once, each with its own tables *)
let test_tables_reuse_exact () =
  let rows = corpus () in
  let filler = String.sub synthetic 0 65_536 in
  List.iter
    (fun (name, s) ->
      let _, _, z_md5 = List.find (fun (n, _, _) -> n = name) pins in
      ignore (Zcompress.compressed_size filler : int);
      Alcotest.(check string)
        (name ^ ": compressed bytes after a 64 KiB input")
        z_md5
        (md5 (Zcompress.compress s)))
    rows;
  let serial = List.map (fun (_, s) -> Zcompress.compress s) rows in
  let pooled =
    Par.Pool.with_pool ~clamp:false ~domains:2 (fun pool ->
        Par.Pool.map_list pool
          (fun (_, s) -> Zcompress.compress s)
          (rows @ List.rev rows))
  in
  Alcotest.(check (list string)) "2-domain pool == serial"
    (serial @ List.rev serial) pooled

let suite =
  [
    Alcotest.test_case "compress output pinned (golden cells + 64 KiB)" `Quick
      test_compress_pins;
    Alcotest.test_case "encode/decode/size allocation ceilings" `Quick
      test_alloc_ceilings;
    Alcotest.test_case "compressor tables reused across calls" `Quick
      test_tables_reused;
    Alcotest.test_case "reused tables give the pinned bytes" `Quick
      test_tables_reuse_exact;
  ]
