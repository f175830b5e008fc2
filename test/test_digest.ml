(** The state digests are exact: {!Interp.Engine.state_digest}, which
    formats each output once and keeps the text for later digests, and
    {!Interp.Mem.state_hash}, which writes cells through buffer writers,
    must hash the very text of the formulas they replaced. Those
    formulas are kept below as oracles and compared with the engine at
    every seal and every segment drain of a knot recording with over a
    thousand outputs, and on a memory built to reach every cell form. A
    digest per seal must cost what the segment added, so a repeated
    digest is held to a few words per output. *)

open Interp
module Key = Runtime.Key

(* The final-state hash as first written: one [Fmt.str] per block and
   per pointer cell, [string_of_int] per integer cell. *)
let oracle_state_hash (m : Mem.t) : int =
  let canon_value (v : Value.t) =
    match v with
    | Value.VPtr p -> (
        match Mem.find_opt m p.p_block with
        | Some b -> Fmt.str "ptr(%a+%d)" Key.pp_origin b.b_origin p.p_off
        | None -> "ptr(dead)")
    | Value.VInt n -> string_of_int n
    | Value.VFun f -> "&" ^ f
  in
  let entries = ref [] in
  (* an empty slot holds a freed stub *)
  Array.iter
    (fun (b : Mem.block) ->
      match b.b_origin with
      | Key.OGlobal _ | Key.OHeap _ when not b.b_freed ->
          entries :=
            Fmt.str "%a=%s" Key.pp_origin b.b_origin
              (String.concat ","
                 (Array.to_list (Array.map canon_value b.cells)))
            :: !entries
      | _ -> ())
    m.blocks;
  let d = Digest.string (String.concat "\n" (List.sort compare !entries)) in
  Int64.to_int (String.get_int64_le d 0) land max_int

(* The seal and drain digest as first written: every output of the run
   formatted again at each call. *)
let oracle_digest (eng : Engine.t) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str "mem=%d ticks=%d rng=%d live=%d" (oracle_state_hash eng.mem)
       eng.ticks eng.rng eng.live);
  List.iter
    (fun (p, v) -> Buffer.add_string b (Fmt.str " o:%a=%d" Key.pp_tid_path p v))
    (List.rev eng.outputs);
  List.iter
    (fun tid ->
      let th = Hashtbl.find eng.threads tid in
      Buffer.add_string b
        (Fmt.str " t:%a=%d,%d,%d" Key.pp_tid_path th.Engine.path th.steps
           th.weak_acqs
           (Engine.status_code th.status)))
    (List.rev eng.thread_order);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* knot at the sustained workload's scale: 1,003 outputs over a few
   dozen segments of 512 events *)
let knot =
  lazy
    (let b = Bench_progs.Registry.by_name "knot" in
     let an = Test_e2e.analyze_bench b ~workers:4 ~scale:250 in
     (an.an_instrumented, b.b_io ~seed:42 ~scale:250))

let config seed = { Engine.default_config with seed; cores = 4 }
let events_per_segment = 512

let check_digest what (eng : Engine.t) =
  let d = Engine.state_digest eng in
  let o = oracle_digest eng in
  if d <> o then
    Alcotest.failf "%s (%d outputs): digest %s, oracle %s" what
      (List.length eng.outputs) d o;
  d

let test_seals_and_drains () =
  let prog, io = Lazy.force knot in
  Testutil.with_temp_dir "chimera-digest" @@ fun dir ->
  let sr =
    Chimera.Runner.record_segmented ~config:(config 1) ~io ~dir
      ~events_per_segment ~checkpoint_every:1 prog
  in
  let segs = sr.sr_manifest.mf_segments in
  Alcotest.(check bool) "at least 500 outputs" true
    (List.length sr.sr_outcome.o_outputs >= 500);
  Alcotest.(check bool) "many seals" true (Array.length segs >= 8);
  (* a second recording, seal for seal the first: each seal's digest is
     the oracle's and the one the manifest pinned *)
  let eng = Engine.make_engine ~config:(config 1) ~mode:Engine.Record ~io prog in
  let seals = ref 0 in
  Replay.Recorder.set_spill (Option.get eng.recorder) ~events_per_segment
    ~flush:(fun ~log:_ ~first_tick:_ ~last_tick:_ ~events:_ ->
      let d = check_digest (Fmt.str "seal %d" !seals) eng in
      Alcotest.(check (option string))
        (Fmt.str "seal %d: manifest pin" !seals)
        segs.(!seals).sg_checkpoint (Some d);
      incr seals);
  ignore (Engine.run_engine eng : Engine.outcome);
  Replay.Recorder.finish (Option.get eng.recorder) ~now:eng.ticks;
  Alcotest.(check int) "one digest per seal" (Array.length segs) !seals;
  (* the streamed replay, drain for drain *)
  let _, pull = Replay.Seglog.stream ~dir in
  let r = Replay.Replayer.of_stream pull in
  let eng =
    Engine.make_engine ~config:(config 7920) ~replayer:r
      ~mode:(Engine.Replay (Replay.Log.create ()))
      ~io prog
  in
  let drains = ref 0 in
  Replay.Replayer.set_on_advance r (fun idx ->
      ignore (check_digest (Fmt.str "drain %d" idx) eng : string);
      incr drains);
  let o = Engine.run_engine eng in
  Alcotest.(check int) "one drain per segment" (Array.length segs) !drains;
  Alcotest.(check int) "final hash" (oracle_state_hash eng.mem) o.o_final_hash

(* Every cell form: integers at both ends and negative, a function,
   pointers into a global, a live heap block, a freed heap block, a live
   frame and a block id never allocated; plus a freed global, whose
   cells leave the hash *)
let test_state_hash_cells () =
  let m = Mem.create () in
  let g = Mem.alloc m (Key.OGlobal "g") 3 in
  let h = Mem.alloc m (Key.OHeap ([ 0; 12 ], 7)) 2 in
  let dead = Mem.alloc m (Key.OHeap ([], 3)) 1 in
  let fr = Mem.alloc m (Key.OFrame ([ 1 ], 40)) 4 in
  let gone = Mem.alloc m (Key.OGlobal "gone") 1 in
  let cells =
    Value.
      [
        VInt min_int; VInt max_int; VInt (-1); VInt (-10); VInt 0; VInt 9;
        VInt 10; VInt (-4_611_686_018_427_387_903); VFun "worker";
        VPtr { p_block = g.b_id; p_off = 2 };
        VPtr { p_block = h.b_id; p_off = -5 };
        VPtr { p_block = dead.b_id; p_off = 0 };
        VPtr { p_block = fr.b_id; p_off = 3 };
        VPtr { p_block = 9_999; p_off = 1 };
      ]
  in
  let big = Mem.alloc m (Key.OHeap ([ 2 ], -1)) (List.length cells) in
  List.iteri (fun i v -> Mem.store_at m big.b_id i v) cells;
  Mem.store_at m g.b_id 0 (Value.VInt (-77));
  Mem.store_at m h.b_id 1 (Value.VPtr { p_block = big.b_id; p_off = 13 });
  Mem.free m dead.b_id;
  Mem.free m gone.b_id;
  Alcotest.(check int) "state_hash == oracle" (oracle_state_hash m)
    (Mem.state_hash m);
  let b = Buffer.create 16 in
  List.iter
    (fun o ->
      Buffer.clear b;
      Key.add_origin b o;
      Alcotest.(check string) "add_origin" (Fmt.str "%a" Key.pp_origin o)
        (Buffer.contents b))
    Key.[ OGlobal "x"; OFrame ([], 0); OHeap ([ 3; 0; 11 ], 123) ]

(* A digest at a point where an earlier one was taken formats no output
   again: under 20 minor words per output (the formula it replaced
   allocated about 400) *)
let test_repeated_digest_alloc () =
  let prog, io = Lazy.force knot in
  let eng = Engine.make_engine ~config:(config 1) ~mode:Engine.Record ~io prog in
  ignore (Engine.run_engine eng : Engine.outcome);
  let first = Engine.state_digest eng in
  let w0 = Gc.minor_words () in
  let again = Engine.state_digest eng in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check string) "same digest" first again;
  let outputs = List.length eng.outputs in
  let per_output = words /. float_of_int outputs in
  if per_output >= 20. then
    Alcotest.failf "repeated digest: %.1f minor words per output (%d outputs)"
      per_output outputs

let suite =
  [
    Alcotest.test_case "digest == oracle at every seal and drain (knot)" `Quick
      test_seals_and_drains;
    Alcotest.test_case "state_hash == oracle on every cell form" `Quick
      test_state_hash_cells;
    Alcotest.test_case "repeated digest allocates per new output only" `Quick
      test_repeated_digest_alloc;
  ]
