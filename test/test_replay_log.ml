(** Tests for log serialization (roundtrip, including a qcheck property),
    replayer cursors, and the conflicting-order gating rule for
    range-claimed weak locks. *)

open Runtime

let wl id gran = { Minic.Ast.wl_id = id; wl_gran = gran }

let addr name off = { Key.a_origin = Key.OGlobal name; a_off = off }

let sr ?(write = true) name lo hi =
  { Replay.Log.sr_origin = Key.OGlobal name; sr_lo = lo; sr_hi = hi;
    sr_write = write }

(* ------------------------------------------------------------------ *)

let build_sample () =
  let rc = Replay.Recorder.create () in
  Replay.Recorder.rec_input rc ~tp:[] [ 1; 2; 3 ];
  Replay.Recorder.rec_input rc ~tp:[ 0 ] [];
  Replay.Recorder.rec_input rc ~tp:[] [ 42 ];
  Replay.Recorder.rec_sync rc ~obj:(addr "m" 0) ~op:Replay.Log.SMutexAcq ~tp:[ 0 ];
  Replay.Recorder.rec_sync rc ~obj:(addr "m" 0) ~op:Replay.Log.SMutexRel ~tp:[ 0 ];
  Replay.Recorder.rec_sync rc ~obj:(addr "b" 2) ~op:Replay.Log.SBarrierWait ~tp:[ 1 ];
  Replay.Recorder.rec_weak rc ~lock:(wl 3 Gloop) ~tp:[ 0 ]
    ~claim:[ sr "rank" 0 7 ];
  Replay.Recorder.rec_weak rc ~lock:(wl 3 Gloop) ~tp:[ 1 ]
    ~claim:[ sr "rank" 8 15 ];
  Replay.Recorder.rec_weak rc ~lock:(wl 0 Gfunc) ~tp:[] ~claim:[];
  Replay.Recorder.rec_forced rc ~owner:[ 1 ] ~steps:777 ~acqs:3
    ~lock:(wl 3 Gloop);
  rc

let test_roundtrip () =
  let rc = build_sample () in
  let log = rc.Replay.Recorder.log in
  let i = Replay.Log.encode_input_log log in
  let o = Replay.Log.encode_order_log log in
  let log' = Replay.Log.decode i o in
  let i' = Replay.Log.encode_input_log log' in
  let o' = Replay.Log.encode_order_log log' in
  Alcotest.(check string) "input log stable" i i';
  Alcotest.(check string) "order log stable" o o'

(* Decoded events share one copy of each thread's path and of each
   repeated (operation, thread) and unclaimed (thread, claim) pair;
   paths too deep or with elements too large for the packed key (or
   negative) decode fresh, and every path reads back as written *)
let test_decode_shares () =
  let rc = Replay.Recorder.create () in
  let paths = [ [ 0 ]; [ 1; 2 ]; [ 0; 1; 2; 3; 4; 5 ]; [ 2000 ]; [ -1 ] ] in
  for _ = 1 to 3 do
    List.iter
      (fun tp ->
        Replay.Recorder.rec_input rc ~tp [ 7 ];
        Replay.Recorder.rec_sync rc ~obj:(addr "m" 0)
          ~op:Replay.Log.SMutexAcq ~tp;
        Replay.Recorder.rec_weak rc ~lock:(wl 0 Gfunc) ~tp ~claim:[])
      paths
  done;
  let log = rc.Replay.Recorder.log in
  let i = Replay.Log.encode_input_log log in
  let o = Replay.Log.encode_order_log log in
  let log' = Replay.Log.decode i o in
  Alcotest.(check string)
    "input log stable" i (Replay.Log.encode_input_log log');
  Alcotest.(check string)
    "order log stable" o (Replay.Log.encode_order_log log');
  let syncs = !(Hashtbl.find log'.sync_order (addr "m" 0)) in
  let acqs = !(Hashtbl.find log'.weak_order (wl 0 Gfunc)) in
  (* the entries of thread [tp] in [xs] are one value *)
  let shared thread tp xs =
    match List.filter (fun e -> thread e = tp) xs with
    | e :: rest -> List.for_all (fun e' -> e' == e) rest
    | [] -> false
  in
  List.iter
    (fun tp ->
      let packed =
        List.length tp <= 5 && List.for_all (fun k -> k >= 0 && k < 1023) tp
      in
      Alcotest.(check bool)
        (Fmt.str "%a: one entry per thread and operation" Key.pp_tid_path tp)
        packed
        (shared snd tp syncs && shared fst tp acqs))
    paths

(* an order log as the recorder wrote it while it still logged the
   per-core schedule: empty sync, weak and forced sections, then four
   one-tick schedule segments. The format has no schedule section, so
   those bytes are trailing garbage and the log is rejected as corrupt;
   the same log cut after its forced section is the empty log. *)
let test_sched_per_tick_log_decodes () =
  let per_tick =
    "\x00\x00\x00\x08\x00\x00\x02\x02\x02\x00\x02\x00\x00\x02\x02\x02\x00\x02"
  in
  let no_inputs = Replay.Log.encode_input_log (Replay.Log.create ()) in
  (match Replay.Log.decode no_inputs per_tick with
  | _ -> Alcotest.fail "a log with a schedule section decoded"
  | exception Replay.Log.Corrupt _ -> ());
  let log = Replay.Log.decode no_inputs "\x00\x00\x00" in
  Alcotest.(check string) "without it: the empty order log"
    (Replay.Log.encode_order_log (Replay.Log.create ()))
    (Replay.Log.encode_order_log log);
  Alcotest.(check int) "no sync objects" 0 (Hashtbl.length log.sync_order);
  Alcotest.(check int) "no weak locks" 0 (Hashtbl.length log.weak_order);
  Alcotest.(check int) "no forced events" 0 (List.length log.forced)

let test_replayer_inputs () =
  let rc = build_sample () in
  let r = Replay.Replayer.of_log rc.Replay.Recorder.log in
  Alcotest.(check (option (list int))) "first burst" (Some [ 1; 2; 3 ])
    (Replay.Replayer.take_input r []);
  Alcotest.(check (option (list int))) "second burst" (Some [ 42 ])
    (Replay.Replayer.take_input r []);
  Alcotest.(check (option (list int))) "exhausted" None
    (Replay.Replayer.take_input r []);
  Alcotest.(check (option (list int))) "other thread empty burst" (Some [])
    (Replay.Replayer.take_input r [ 0 ])

let test_replayer_sync_order () =
  let rc = build_sample () in
  let r = Replay.Replayer.of_log rc.Replay.Recorder.log in
  (match Replay.Replayer.peek_sync r (addr "m" 0) with
  | Some (Replay.Log.SMutexAcq, [ 0 ]) -> ()
  | _ -> Alcotest.fail "wrong head");
  Replay.Replayer.advance_sync r (addr "m" 0);
  (match Replay.Replayer.peek_sync r (addr "m" 0) with
  | Some (Replay.Log.SMutexRel, [ 0 ]) -> ()
  | _ -> Alcotest.fail "wrong second");
  Alcotest.(check bool) "unknown object unconstrained" true
    (Replay.Replayer.peek_sync r (addr "zzz" 0) = None)

let test_weak_turn_conflict_rules () =
  let rc = Replay.Recorder.create () in
  let l = wl 5 Gloop in
  (* order: A[0..7], B[8..15], C total, A[0..7] *)
  Replay.Recorder.rec_weak rc ~lock:l ~tp:[ 0 ] ~claim:[ sr "a" 0 7 ];
  Replay.Recorder.rec_weak rc ~lock:l ~tp:[ 1 ] ~claim:[ sr "a" 8 15 ];
  Replay.Recorder.rec_weak rc ~lock:l ~tp:[ 2 ] ~claim:[];
  Replay.Recorder.rec_weak rc ~lock:l ~tp:[ 0 ] ~claim:[ sr "a" 0 7 ];
  let r = Replay.Replayer.of_log rc.Replay.Recorder.log in
  (* B's disjoint-range acquisition may proceed before A's *)
  Alcotest.(check bool) "B allowed out of order" true
    (Replay.Replayer.weak_turn r l ~tp:[ 1 ]);
  (* C's total claim conflicts with both A and B: blocked *)
  Alcotest.(check bool) "C blocked" false (Replay.Replayer.weak_turn r l ~tp:[ 2 ]);
  Alcotest.(check bool) "A allowed" true (Replay.Replayer.weak_turn r l ~tp:[ 0 ]);
  (* consume A and B; C unblocks *)
  Replay.Replayer.consume_weak r l ~tp:[ 0 ] ();
  Replay.Replayer.consume_weak r l ~tp:[ 1 ] ();
  Alcotest.(check bool) "C allowed after A,B" true
    (Replay.Replayer.weak_turn r l ~tp:[ 2 ]);
  (* A's second acquisition is behind C: blocked until C consumed *)
  Alcotest.(check bool) "A2 blocked behind C" false
    (Replay.Replayer.weak_turn r l ~tp:[ 0 ]);
  Replay.Replayer.consume_weak r l ~tp:[ 2 ] ();
  Alcotest.(check bool) "A2 allowed" true (Replay.Replayer.weak_turn r l ~tp:[ 0 ])

let test_forced_pop_requires_holding () =
  let rc = Replay.Recorder.create () in
  Replay.Recorder.rec_forced rc ~owner:[ 1 ] ~steps:10 ~acqs:1
    ~lock:(wl 7 Gbb);
  Replay.Recorder.rec_forced rc ~owner:[ 1 ] ~steps:10 ~acqs:2
    ~lock:(wl 7 Gbb);
  let r = Replay.Replayer.of_log rc.Replay.Recorder.log in
  Alcotest.(check bool) "not popped when not holding" true
    (Replay.Replayer.pending_forced r [ 1 ] ~steps:50 ~acqs:9
       ~holds:(fun _ -> false)
    = None);
  Alcotest.(check bool) "not popped before steps" true
    (Replay.Replayer.pending_forced r [ 1 ] ~steps:5 ~acqs:9
       ~holds:(fun _ -> true)
    = None);
  Alcotest.(check bool) "not popped before enough acquisitions" true
    (Replay.Replayer.pending_forced r [ 1 ] ~steps:10 ~acqs:0
       ~holds:(fun _ -> true)
    = None);
  Alcotest.(check bool) "popped when due and holding" true
    (Replay.Replayer.pending_forced r [ 1 ] ~steps:10 ~acqs:1
       ~holds:(fun _ -> true)
    <> None);
  Alcotest.(check bool) "second event gated on its own acq count" true
    (Replay.Replayer.pending_forced r [ 1 ] ~steps:10 ~acqs:1
       ~holds:(fun _ -> true)
    = None);
  Alcotest.(check bool) "second event still there" true
    (Replay.Replayer.pending_forced r [ 1 ] ~steps:10 ~acqs:2
       ~holds:(fun _ -> true)
    <> None);
  Alcotest.(check bool) "then drained" true
    (Replay.Replayer.pending_forced r [ 1 ] ~steps:99 ~acqs:9
       ~holds:(fun _ -> true)
    = None)

(* ------------------------------------------------------------------ *)
(* corrupt logs: decode must fail with the typed [Corrupt] exception,
   never a raw [Invalid_argument] from a string primitive (and never an
   attempt to allocate an impossible list) *)

let decodes_cleanly i o =
  match Replay.Log.decode i o with
  | _ -> true (* a prefix can happen to be a complete, valid log *)
  | exception Replay.Log.Corrupt _ -> true
  | exception e ->
      Alcotest.failf "decode escaped with %s" (Printexc.to_string e)

let is_corrupt i o =
  match Replay.Log.decode i o with
  | _ -> false
  | exception Replay.Log.Corrupt _ -> true

let test_corrupt_truncated () =
  let rc = build_sample () in
  let log = rc.Replay.Recorder.log in
  let i = Replay.Log.encode_input_log log in
  let o = Replay.Log.encode_order_log log in
  (* every proper prefix decodes cleanly: Ok or Corrupt, nothing else *)
  for n = 0 to String.length i - 1 do
    ignore (decodes_cleanly (String.sub i 0 n) o)
  done;
  for n = 0 to String.length o - 1 do
    ignore (decodes_cleanly i (String.sub o 0 n))
  done;
  (* chopping the last byte leaves the trailing record half-written *)
  Alcotest.(check bool) "truncated input log detected" true
    (is_corrupt (String.sub i 0 (String.length i - 1)) o);
  Alcotest.(check bool) "truncated order log detected" true
    (is_corrupt i (String.sub o 0 (String.length o - 1)))

let test_corrupt_garbage () =
  (* ten 0xff bytes: an unterminated varint past the 62-bit limit *)
  let overflow = String.make 10 '\xff' in
  Alcotest.(check bool) "varint overflow detected" true
    (is_corrupt overflow "");
  Alcotest.(check bool) "garbage order log detected" true
    (is_corrupt "" overflow);
  (* a huge element count with no elements behind it must raise, not
     try to build the list *)
  let bogus_count = "\xff\xff\xff\xff\x07" in
  Alcotest.(check bool) "impossible list length detected" true
    (is_corrupt bogus_count "")

(* exhaustive single-byte bit-flip sweep: every byte of both encodings,
   every bit. Decode must return a log or raise typed [Corrupt] carrying
   a byte offset — never any other exception. (A flipped log that still
   decodes is fine at this layer; the stress harness then replays it and
   demands a clean divergence report.) *)
let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let corrupt_has_offset f =
  match f () with
  | _ -> true
  | exception Replay.Log.Corrupt msg ->
      if contains_sub msg "(byte " then true
      else Alcotest.failf "Corrupt without byte offset: %s" msg
  | exception e ->
      Alcotest.failf "decode escaped with %s" (Printexc.to_string e)

let flip s i bit =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.to_string b

(* trailing garbage: bytes appended after a complete, well-formed log
   must be rejected typed, not silently ignored — an "intact" recording
   could otherwise carry arbitrary unparsed bytes *)
let test_corrupt_trailing_garbage () =
  let rc = build_sample () in
  let log = rc.Replay.Recorder.log in
  let i = Replay.Log.encode_input_log log in
  let o = Replay.Log.encode_order_log log in
  List.iter
    (fun garbage ->
      Alcotest.(check bool)
        (Fmt.str "input log + %d trailing bytes rejected"
           (String.length garbage))
        true
        (is_corrupt (i ^ garbage) o);
      Alcotest.(check bool)
        (Fmt.str "order log + %d trailing bytes rejected"
           (String.length garbage))
        true
        (is_corrupt i (o ^ garbage));
      ignore
        (corrupt_has_offset (fun () -> Replay.Log.decode (i ^ garbage) o));
      ignore
        (corrupt_has_offset (fun () -> Replay.Log.decode i (o ^ garbage))))
    [ "\x00"; "\x01"; "\xff"; String.make 64 '\x00'; i; o ]

let test_bitflip_sweep () =
  let rc = build_sample () in
  let log = rc.Replay.Recorder.log in
  let i = Replay.Log.encode_input_log log in
  let o = Replay.Log.encode_order_log log in
  for pos = 0 to String.length i - 1 do
    for bit = 0 to 7 do
      ignore (corrupt_has_offset (fun () -> Replay.Log.decode (flip i pos bit) o))
    done
  done;
  for pos = 0 to String.length o - 1 do
    for bit = 0 to 7 do
      ignore (corrupt_has_offset (fun () -> Replay.Log.decode i (flip o pos bit)))
    done
  done

(* every truncation rejection must carry its byte offset too *)
let test_truncation_offsets () =
  let rc = build_sample () in
  let log = rc.Replay.Recorder.log in
  let i = Replay.Log.encode_input_log log in
  let o = Replay.Log.encode_order_log log in
  for n = 0 to String.length i - 1 do
    ignore (corrupt_has_offset (fun () -> Replay.Log.decode (String.sub i 0 n) o))
  done;
  for n = 0 to String.length o - 1 do
    ignore (corrupt_has_offset (fun () -> Replay.Log.decode i (String.sub o 0 n)))
  done

(* the boundary-marked encoders must produce byte-identical encodings,
   strictly interior ascending marks, and prefixes cut at a mark must
   decode cleanly (Ok or typed Corrupt — a cut at a record boundary can
   leave a shorter but self-consistent log) *)
let test_marked_encoders () =
  let rc = build_sample () in
  let log = rc.Replay.Recorder.log in
  let check_side name plain marked marks other ~decode =
    Alcotest.(check string) (name ^ " marked bytes identical") plain marked;
    let sorted = List.sort_uniq compare (Array.to_list marks) in
    Alcotest.(check int)
      (name ^ " marks unique and sorted")
      (Array.length marks) (List.length sorted);
    Array.iter
      (fun off ->
        if off <= 0 || off >= String.length plain then
          Alcotest.failf "%s mark %d not strictly interior" name off)
      marks;
    Array.iter
      (fun off ->
        ignore
          (corrupt_has_offset (fun () -> decode (String.sub marked 0 off) other)))
      marks
  in
  let i = Replay.Log.encode_input_log log in
  let o = Replay.Log.encode_order_log log in
  let im, imarks = Replay.Log.encode_input_log_marked log in
  let om, omarks = Replay.Log.encode_order_log_marked log in
  check_side "input" i im imarks o ~decode:Replay.Log.decode;
  check_side "order" o om omarks i ~decode:(fun trunc other ->
      Replay.Log.decode other trunc)

(* replay-side claim validation: a served claim differing from the
   recorded one is accumulated as a typed mismatch — and replay
   proceeds, it does not wedge *)
let test_claim_validation () =
  let rc = Replay.Recorder.create () in
  let l = wl 4 Gloop in
  Replay.Recorder.rec_weak rc ~lock:l ~tp:[ 0 ] ~claim:[ sr "a" 0 7 ];
  Replay.Recorder.rec_weak rc ~lock:l ~tp:[ 1 ] ~claim:[ sr "a" 8 15 ];
  let r = Replay.Replayer.of_log rc.Replay.Recorder.log in
  (* matching claim: no mismatch *)
  Replay.Replayer.consume_weak r l ~tp:[ 0 ] ~claim:[ sr "a" 0 7 ] ();
  Alcotest.(check int) "matching claim accepted" 0
    (List.length (Replay.Replayer.claim_mismatches r));
  (* drifted claim: one typed mismatch, consumption still advances *)
  Replay.Replayer.consume_weak r l ~tp:[ 1 ] ~claim:[ sr "a" 8 12 ] ();
  match Replay.Replayer.claim_mismatches r with
  | [ m ] ->
      Alcotest.(check int) "mismatch index" 1 m.Replay.Replayer.cm_index;
      Alcotest.(check bool) "recorded claim kept" true
        (m.Replay.Replayer.cm_recorded = [ sr "a" 8 15 ]);
      Alcotest.(check bool) "served claim kept" true
        (m.Replay.Replayer.cm_served = [ sr "a" 8 12 ]);
      Alcotest.(check bool) "printable" true
        (String.length (Fmt.str "%a" Replay.Replayer.pp_claim_mismatch m) > 0)
  | ms -> Alcotest.failf "expected one mismatch, got %d" (List.length ms)

(* a decoded sequence must come back in recorded order even when it is
   far too long for any non-tail-recursive or evaluation-order-dependent
   reader ([Dec.list] once relied on [List.init]'s argument evaluation
   order, which the language does not specify) *)
let test_decode_large_sequences () =
  let n = 12_000 in
  let rc = Replay.Recorder.create () in
  (* one burst of n values, then n single-value bursts *)
  Replay.Recorder.rec_input rc ~tp:[] (List.init n Fun.id);
  for i = 0 to n - 1 do
    Replay.Recorder.rec_input rc ~tp:[ 0 ] [ i ]
  done;
  let log = rc.Replay.Recorder.log in
  let i = Replay.Log.encode_input_log log in
  let o = Replay.Log.encode_order_log log in
  let log' = Replay.Log.decode i o in
  (match Hashtbl.find_opt log'.Replay.Log.inputs [] with
  | Some bursts -> (
      match !bursts with
      | [ vs ] ->
          Alcotest.(check int) "burst length" n (List.length vs);
          Alcotest.(check bool) "burst in recorded order" true
            (List.mapi (fun j v -> v = j) vs |> List.for_all Fun.id)
      | _ -> Alcotest.fail "expected a single burst")
  | None -> Alcotest.fail "thread missing");
  let r = Replay.Replayer.of_log log' in
  let ok = ref true in
  for i = 0 to n - 1 do
    if Replay.Replayer.take_input r [ 0 ] <> Some [ i ] then ok := false
  done;
  Alcotest.(check bool) "bursts replay in recorded order" true !ok;
  Alcotest.(check string) "re-encode stable" i
    (Replay.Log.encode_input_log log')

(* Varints at the edge of the int range. The zigzag form of any
   [|n| >= 2^61] sets the top bit of the 63-bit int; it must still
   encode as 9 unsigned 7-bit groups and decode back. [min_int] has no
   zigzag form and is refused by name. *)
let input_log_of v =
  let rc = Replay.Recorder.create () in
  Replay.Recorder.rec_input rc ~tp:[] [ v ];
  rc.Replay.Recorder.log

let test_varint_range () =
  let check name v bytes =
    let log = input_log_of v in
    let i = Replay.Log.encode_input_log log in
    (* 1 thread, path [], 1 burst of 1 value; syscall order: 1 entry, [] *)
    Alcotest.(check string) (name ^ ": bytes")
      ("\x02\x00\x02\x02" ^ bytes ^ "\x02\x00") i;
    let log' = Replay.Log.decode i (Replay.Log.encode_order_log log) in
    Alcotest.(check (list (list int))) (name ^ ": decoded") [ [ v ] ]
      !(Hashtbl.find log'.inputs [])
  in
  check "0" 0 "\x00";
  check "2^61" (1 lsl 61) "\x80\x80\x80\x80\x80\x80\x80\x80\x40";
  check "max_int" max_int "\xfe\xff\xff\xff\xff\xff\xff\xff\x7f";
  check "-(2^61)" (-(1 lsl 61)) "\x81\x80\x80\x80\x80\x80\x80\x80\x40";
  check "-max_int" (-max_int) "\xff\xff\xff\xff\xff\xff\xff\xff\x7f";
  match Replay.Log.encode_input_log (input_log_of min_int) with
  | s -> Alcotest.failf "min_int encoded as %S" s
  | exception Invalid_argument m ->
      Alcotest.(check bool)
        (Fmt.str "message %S names the value" m)
        true
        (Testutil.contains m (string_of_int min_int))

(* qcheck: encode/decode roundtrip over random logs *)
let prop_log_roundtrip =
  let open QCheck in
  let gen_path = Gen.(list_size (int_range 0 2) (int_range 0 3)) in
  let gen_burst = Gen.(list_size (int_range 0 5) (int_range (-300) 300)) in
  let gen =
    Gen.(
      list_size (int_range 0 30)
        (oneof
           [
             map2 (fun p b -> `Input (p, b)) gen_path gen_burst;
             map2
               (fun p o -> `Sync (p, o))
               gen_path (int_range 0 6);
             map3
               (fun p id lo -> `Weak (p, id, lo))
               gen_path (int_range 0 5) (int_range 0 50);
           ]))
  in
  Test.make ~name:"log encode/decode roundtrip" ~count:100 (make gen)
    (fun events ->
      let rc = Replay.Recorder.create () in
      List.iter
        (fun ev ->
          match ev with
          | `Input (p, b) -> Replay.Recorder.rec_input rc ~tp:p b
          | `Sync (p, o) ->
              Replay.Recorder.rec_sync rc ~obj:(addr "x" o)
                ~op:(Replay.Log.sync_op_of_code o) ~tp:p
          | `Weak (p, id, lo) ->
              Replay.Recorder.rec_weak rc ~lock:(wl id Gbb) ~tp:p
                ~claim:[ sr "y" lo (lo + 3) ])
        events;
      let log = rc.Replay.Recorder.log in
      let i = Replay.Log.encode_input_log log in
      let o = Replay.Log.encode_order_log log in
      let log' = Replay.Log.decode i o in
      Replay.Log.encode_input_log log' = i
      && Replay.Log.encode_order_log log' = o)

(* same property at streaming scale: thousands of events per log, so
   the single-buffer encoder and the loop-based decoder are exercised
   well past any small-list special case *)
let prop_log_roundtrip_large =
  let open QCheck in
  let gen_path = Gen.(list_size (int_range 0 3) (int_range 0 4)) in
  let gen_event =
    Gen.(
      oneof
        [
          map2
            (fun p b -> `Input (p, b))
            gen_path (list_size (int_range 0 8) (int_range (-1000) 1000));
          map2 (fun p o -> `Sync (p, o)) gen_path (int_range 0 6);
          map3
            (fun p id lo -> `Weak (p, id, lo))
            gen_path (int_range 0 9) (int_range 0 5000);
        ])
  in
  let gen = Gen.(list_size (int_range 2_000 6_000) gen_event) in
  Test.make ~name:"log roundtrip on large random logs" ~count:10 (make gen)
    (fun events ->
      let rc = Replay.Recorder.create () in
      List.iter
        (fun ev ->
          match ev with
          | `Input (p, b) -> Replay.Recorder.rec_input rc ~tp:p b
          | `Sync (p, o) ->
              Replay.Recorder.rec_sync rc ~obj:(addr "x" o)
                ~op:(Replay.Log.sync_op_of_code o) ~tp:p
          | `Weak (p, id, lo) ->
              Replay.Recorder.rec_weak rc ~lock:(wl id Gbb) ~tp:p
                ~claim:[ sr "y" lo (lo + 3) ])
        events;
      let log = rc.Replay.Recorder.log in
      let i = Replay.Log.encode_input_log log in
      let o = Replay.Log.encode_order_log log in
      let log' = Replay.Log.decode i o in
      Replay.Log.encode_input_log log' = i
      && Replay.Log.encode_order_log log' = o)

(* bursts drawn from the whole int range (all but [min_int], which the
   encoder refuses), weighted towards the 9-byte edge: decoding gives
   back every value, and re-encoding the decoded log the same bytes *)
let prop_log_roundtrip_full_range =
  let open QCheck in
  let gen_value =
    Gen.(
      map
        (fun n -> if n = min_int then max_int else n)
        (oneof
           [
             int;
             oneofl
               [ max_int; -max_int; 1 lsl 61; -(1 lsl 61); (1 lsl 61) - 1;
                 1 - (1 lsl 61); 1 lsl 60 ];
             int_range (-200) 200;
           ]))
  in
  let gen_path = Gen.(list_size (int_range 0 2) (int_range 0 3)) in
  let gen =
    Gen.(list_size (int_range 0 40) (pair gen_path (list_size (int_range 0 6) gen_value)))
  in
  let bindings (log : Replay.Log.t) =
    List.sort compare
      (Hashtbl.fold (fun p bursts acc -> (p, !bursts) :: acc) log.inputs [])
  in
  Test.make ~name:"log roundtrip, full int range bursts" ~count:200 (make gen)
    (fun bursts ->
      let rc = Replay.Recorder.create () in
      List.iter (fun (p, b) -> Replay.Recorder.rec_input rc ~tp:p b) bursts;
      let log = rc.Replay.Recorder.log in
      let i = Replay.Log.encode_input_log log in
      let o = Replay.Log.encode_order_log log in
      let log' = Replay.Log.decode i o in
      bindings log' = bindings log
      && Replay.Log.encode_input_log log' = i)

let suite =
  [
    Alcotest.test_case "log roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "decode shares repeated paths and pairs" `Quick
      test_decode_shares;
    Alcotest.test_case "sched: per-tick log decodes" `Quick
      test_sched_per_tick_log_decodes;
    Alcotest.test_case "replayer inputs" `Quick test_replayer_inputs;
    Alcotest.test_case "replayer sync order" `Quick test_replayer_sync_order;
    Alcotest.test_case "weak turn conflict rules" `Quick
      test_weak_turn_conflict_rules;
    Alcotest.test_case "forced pop discipline" `Quick
      test_forced_pop_requires_holding;
    Alcotest.test_case "corrupt: truncated logs" `Quick test_corrupt_truncated;
    Alcotest.test_case "corrupt: garbage logs" `Quick test_corrupt_garbage;
    Alcotest.test_case "corrupt: trailing garbage" `Quick
      test_corrupt_trailing_garbage;
    Alcotest.test_case "corrupt: exhaustive bit-flip sweep" `Quick
      test_bitflip_sweep;
    Alcotest.test_case "corrupt: truncation offsets typed" `Quick
      test_truncation_offsets;
    Alcotest.test_case "marked encoders" `Quick test_marked_encoders;
    Alcotest.test_case "claim validation" `Quick test_claim_validation;
    Alcotest.test_case "decode large sequences in order" `Quick
      test_decode_large_sequences;
    QCheck_alcotest.to_alcotest prop_log_roundtrip;
    Alcotest.test_case "varints at the int range edge" `Quick
      test_varint_range;
    QCheck_alcotest.to_alcotest prop_log_roundtrip_large;
    QCheck_alcotest.to_alcotest prop_log_roundtrip_full_range;
  ]
