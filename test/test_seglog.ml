(** Segmented spilling recordings ({!Replay.Seglog}) end to end: spilled
    recordings charge no ticks and match monolithic ones, streamed
    replay reproduces the execution segment by segment, windowed replay
    halts at the covering segment with the same state digest the full
    replay has there, re-recordings pin the same checkpoint digests, and
    every kind of on-disk damage — segment payloads, a checkpoint pin,
    the manifest, a [/1] manifest header — surfaces as the typed [Replay.Log.Corrupt],
    never a crash. A half-written temp manifest left by a crash is
    ignored by replay and removed by the next writer. *)

open Interp

let parse src = Minic.Typecheck.parse_and_check ~file:"seglog.mc" src

(* a DRF program with inputs, outputs, and mutex traffic: enough gated
   events (~400) to spill into many segments at a small threshold *)
let prog =
  parse
    {|int counter = 0; int m;
      void w(int *u) {
        int i; int v;
        for (i = 0; i < 40; i++) {
          lock(&m);
          v = input();
          counter = counter + (v & 7);
          unlock(&m);
        }
      }
      int main() { int t1; int t2; int i;
        t1 = spawn(w, &counter); t2 = spawn(w, &counter);
        for (i = 0; i < 20; i++) { lock(&m); output(counter); unlock(&m); }
        join(t1); join(t2);
        output(counter);
        return 0; }|}

let config seed = { Engine.default_config with seed; cores = 4 }
let io seed = Iomodel.random ~seed

let temp_seg_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chimera-seglog-test-%d-%d" (Unix.getpid ()) !n)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_seg_dir f =
  let dir = temp_seg_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let record_seg ?(events_per_segment = 32) ?(checkpoint_every = 1) ~dir () =
  Chimera.Runner.record_segmented ~config:(config 1) ~io:(io 42) ~dir
    ~events_per_segment ~checkpoint_every prog

(* ------------------------------------------------------------------ *)

let test_spill_matches_monolithic () =
  with_seg_dir @@ fun dir ->
  let mono = Chimera.Runner.record ~config:(config 1) ~io:(io 42) prog in
  let seg = record_seg ~dir () in
  (match
     Chimera.Runner.same_execution mono.rc_outcome seg.sr_outcome
   with
  | Ok () -> ()
  | Error d ->
      Alcotest.failf "segmented recording diverged: %a"
        Chimera.Runner.pp_divergence d);
  (* spilling charges no simulated time *)
  Alcotest.(check int)
    "golden ticks unchanged" mono.rc_outcome.o_ticks seg.sr_outcome.o_ticks;
  let st = seg.sr_stats in
  Alcotest.(check bool) "actually spilled" true (st.ws_segments > 3);
  Alcotest.(check bool)
    "resident log bounded below the whole log" true
    (st.ws_peak_raw < st.ws_total_raw);
  Alcotest.(check int)
    "manifest agrees with writer" st.ws_segments
    (Array.length seg.sr_manifest.mf_segments)

let test_streamed_replay_matches_recording () =
  with_seg_dir @@ fun dir ->
  let seg = record_seg ~dir () in
  let full =
    (* different scheduler seed: the log alone must reproduce the run *)
    Chimera.Runner.replay_streamed ~config:(config 7920) ~io:(io 42) ~dir prog
  in
  (match Chimera.Runner.same_execution seg.sr_outcome full.st_outcome with
  | Ok () -> ()
  | Error d ->
      Alcotest.failf "streamed replay diverged: %a"
        Chimera.Runner.pp_divergence d);
  Alcotest.(check bool) "full replay is not halted" false full.st_halted;
  Alcotest.(check int) "every segment streamed"
    (Array.length seg.sr_manifest.mf_segments)
    full.st_segments_loaded;
  Alcotest.(check int) "one digest per segment drain"
    (Array.length seg.sr_manifest.mf_segments)
    (List.length full.st_digests)

let test_windowed_replay_halts_with_matching_digest () =
  with_seg_dir @@ fun dir ->
  let seg = record_seg ~dir () in
  let m = seg.sr_manifest in
  let nseg = Array.length m.mf_segments in
  Alcotest.(check bool) "enough segments to window" true (nseg >= 4);
  (* a window ending mid-recording: covered by roughly half the segments *)
  let mid = m.mf_segments.(nseg / 2).Replay.Seglog.sg_last_tick in
  let cover = Replay.Seglog.covering_segment m ~upto:mid in
  let full =
    Chimera.Runner.replay_streamed ~config:(config 7920) ~io:(io 42) ~dir prog
  in
  let win =
    Chimera.Runner.replay_streamed ~config:(config 7920) ~io:(io 42)
      ~upto_tick:mid ~dir prog
  in
  Alcotest.(check bool) "windowed replay halted" true win.st_halted;
  Alcotest.(check bool) "windowed replay skipped the tail" true
    (win.st_segments_loaded < nseg);
  Alcotest.(check int) "loaded exactly the covering prefix" (cover + 1)
    win.st_segments_loaded;
  (* the halt digest is the full replay's digest at the same drain: a
     windowed replay is a prefix of the full one, instant for instant *)
  let digest_at digests idx =
    match List.assoc_opt idx digests with
    | Some d -> d
    | None -> Alcotest.failf "no digest at segment %d drain" idx
  in
  Alcotest.(check string)
    "halt digest matches full replay at the covering drain"
    (digest_at full.st_digests cover)
    (digest_at win.st_digests cover)

let test_checkpoints_pin_rerecordings () =
  with_seg_dir @@ fun dir1 ->
  with_seg_dir @@ fun dir2 ->
  let a = record_seg ~dir:dir1 () in
  let b = record_seg ~dir:dir2 () in
  let ck (m : Replay.Seglog.manifest) =
    Array.to_list m.mf_segments
    |> List.map (fun (s : Replay.Seglog.segment) ->
           Option.value s.sg_checkpoint ~default:"-")
  in
  (* seal points are functions of the gated event counts, and the
     execution is deterministic given seed+inputs, so re-recordings pin
     identical checkpoint digests at identical seals *)
  Alcotest.(check (list string))
    "re-recording pins the same digests" (ck a.sr_manifest) (ck b.sr_manifest);
  (* and the segment payloads themselves are byte-identical *)
  let md5s (m : Replay.Seglog.manifest) =
    Array.to_list m.mf_segments
    |> List.map (fun (s : Replay.Seglog.segment) ->
           (s.Replay.Seglog.sg_md5_input, s.sg_md5_order))
  in
  Alcotest.(check bool)
    "segment checksums identical" true
    (md5s a.sr_manifest = md5s b.sr_manifest)

let test_checkpoint_every_pins_even_seals () =
  with_seg_dir @@ fun dir ->
  let seg = record_seg ~checkpoint_every:2 ~dir () in
  let pins (m : Replay.Seglog.manifest) =
    Array.to_list m.mf_segments
    |> List.map (fun (s : Replay.Seglog.segment) -> s.sg_checkpoint)
  in
  Alcotest.(check bool) "enough seals to leave gaps" true
    (List.length (pins seg.sr_manifest) > 3);
  List.iteri
    (fun i pin ->
      Alcotest.(check bool)
        (Fmt.str "seal %d pinned iff even" i)
        (i mod 2 = 0) (pin <> None))
    (pins seg.sr_manifest);
  Alcotest.(check (list (option string)))
    "the manifest on disk carries the same pins" (pins seg.sr_manifest)
    (pins (Replay.Seglog.read_manifest ~dir));
  let pin_file i =
    let path = Filename.concat dir (Replay.Seglog.checkpoint_file i) in
    if Sys.file_exists path then
      Some (In_channel.with_open_bin path In_channel.input_all)
    else None
  in
  Alcotest.(check (list (option string)))
    "a checkpoint file holds each pin, and only pinned seals have one"
    (pins seg.sr_manifest)
    (List.mapi (fun i _ -> pin_file i) (pins seg.sr_manifest))

(* ------------------------------------------------------------------ *)
(* Corruption: typed errors, never crashes *)

let is_corrupt f =
  match f () with
  | exception Replay.Log.Corrupt _ -> true
  | exception e ->
      Alcotest.failf "expected Log.Corrupt, got %s" (Printexc.to_string e)
  | _ -> false

let replay_dir dir =
  Chimera.Runner.replay_streamed ~config:(config 7920) ~io:(io 42) ~dir prog

let clobber path f =
  let s = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc -> output_string oc (f s))

let test_corrupt_segment_payload () =
  with_seg_dir @@ fun dir ->
  let seg = record_seg ~dir () in
  let victim =
    Filename.concat dir
      (Replay.Seglog.segment_file
         (Array.length seg.sr_manifest.mf_segments / 2))
  in
  clobber victim (fun s ->
      let b = Bytes.of_string s in
      let i = Bytes.length b - 4 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      Bytes.to_string b);
  Alcotest.(check bool) "flipped payload byte is typed" true
    (is_corrupt (fun () -> replay_dir dir))

let test_corrupt_segment_magic () =
  with_seg_dir @@ fun dir ->
  let _ = record_seg ~dir () in
  clobber
    (Filename.concat dir (Replay.Seglog.segment_file 0))
    (fun s -> "not-a-segment\n" ^ s);
  Alcotest.(check bool) "bad segment magic is typed" true
    (is_corrupt (fun () -> replay_dir dir))

let test_corrupt_checkpoint () =
  with_seg_dir @@ fun dir ->
  let seg = record_seg ~dir () in
  Alcotest.(check bool) "first seal has a checkpoint" true
    (seg.sr_manifest.mf_segments.(0).sg_checkpoint <> None);
  (* the first entry ends with its 32-hex-digit pin: make it non-hex *)
  clobber (Filename.concat dir Replay.Seglog.manifest_file) (fun s ->
      match String.split_on_char '\n' s with
      | header :: seg0 :: rest ->
          let pin_at = String.length seg0 - 32 in
          String.concat "\n"
            (header :: (String.sub seg0 0 pin_at ^ String.make 32 'g') :: rest)
      | _ -> s);
  Alcotest.(check bool) "non-hex checkpoint pin is typed" true
    (is_corrupt (fun () -> replay_dir dir))

let test_corrupt_manifest () =
  with_seg_dir @@ fun dir ->
  let _ = record_seg ~dir () in
  let manifest = Filename.concat dir Replay.Seglog.manifest_file in
  (* truncation: drop the end marker and the last entry *)
  clobber manifest (fun s ->
      match String.rindex_opt (String.trim s) '\n' with
      | Some i -> String.sub s 0 i
      | None -> "");
  Alcotest.(check bool) "truncated manifest is typed" true
    (is_corrupt (fun () -> replay_dir dir));
  (* a manifest in the retired /1 format, header and all *)
  let _ = record_seg ~dir () in
  clobber manifest (fun s ->
      let nl = String.index s '\n' in
      "chimera-log-segments/1" ^ String.sub s nl (String.length s - nl));
  Alcotest.(check bool) "/1 manifest header is typed" true
    (is_corrupt (fun () -> replay_dir dir));
  (* and a missing manifest *)
  Sys.remove manifest;
  Alcotest.(check bool) "missing manifest is typed" true
    (is_corrupt (fun () -> replay_dir dir))

(* the manifest is replaced by rename: a crash mid-write strands a
   half-written [manifest.tmp] beside the whole previous manifest *)
let test_stranded_manifest_tmp () =
  with_seg_dir @@ fun dir ->
  let seg = record_seg ~dir () in
  let manifest = Filename.concat dir Replay.Seglog.manifest_file in
  let tmp = manifest ^ ".tmp" in
  Alcotest.(check bool) "a finished recording leaves no temp manifest" false
    (Sys.file_exists tmp);
  let whole = In_channel.with_open_bin manifest In_channel.input_all in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (String.sub whole 0 (String.length whole / 2)));
  (match
     Chimera.Runner.same_execution seg.sr_outcome (replay_dir dir).st_outcome
   with
  | Ok () -> ()
  | Error d ->
      Alcotest.failf "replay beside a stranded temp manifest diverged: %a"
        Chimera.Runner.pp_divergence d);
  ignore (Replay.Seglog.create_writer ~dir);
  Alcotest.(check bool) "a fresh writer drops the stranded temp manifest"
    false (Sys.file_exists tmp)

let suite =
  [
    Alcotest.test_case "spill matches monolithic recording" `Quick
      test_spill_matches_monolithic;
    Alcotest.test_case "streamed replay matches recording" `Quick
      test_streamed_replay_matches_recording;
    Alcotest.test_case "windowed replay halts with matching digest" `Quick
      test_windowed_replay_halts_with_matching_digest;
    Alcotest.test_case "checkpoints pin re-recordings" `Quick
      test_checkpoints_pin_rerecordings;
    Alcotest.test_case "checkpoint_every=2 pins the even seals" `Quick
      test_checkpoint_every_pins_even_seals;
    Alcotest.test_case "corrupt: segment payload" `Quick
      test_corrupt_segment_payload;
    Alcotest.test_case "corrupt: segment magic" `Quick
      test_corrupt_segment_magic;
    Alcotest.test_case "corrupt: checkpoint" `Quick test_corrupt_checkpoint;
    Alcotest.test_case "corrupt: manifest" `Quick test_corrupt_manifest;
    Alcotest.test_case "stranded manifest.tmp is harmless" `Quick
      test_stranded_manifest_tmp;
  ]
