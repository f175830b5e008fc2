(** Standalone gate for the segmented spilling log (`make log-check`).

    Library leg, on knot at its sustained-load scale (20k requests)
    with a deliberately small segment threshold so the recorder seals
    and spills dozens of times:

    - the spilling recorder's peak resident segment must be a small
      fraction of the raw log total — bounded log memory {e measured}
      on a sustained run, not asserted;
    - a full streamed replay of the segment directory must reproduce
      the recording (same outputs, same faults, same ticks) with every
      segment loaded;
    - a windowed replay to a mid-run tick must halt early, read only
      the covering prefix of segment files, and land on the same state
      digest the full replay computed at that segment's drain;
    - exactly every 4th seal pins a checkpoint, the hex engine state
      digest at that seal, in the manifest.

    CLI leg, end to end through the installed subcommands:

    - [chimera record --segment-dir] spills a segment directory and
      [chimera replay --segment-dir] streams it back with identical
      stdout;
    - the directory holds a [chimera-log-segments/2] manifest, and
      each [ckpt-NNNN.bin] file holds its seal's manifest pin;
    - a windowed [--from-tick/--window] replay reports an early halt;
    - flipping one byte in a sealed segment makes the streamed replay
      exit with the typed corrupt-log status (3) — never a crash, and
      never a silent success; so does a manifest rewritten to the
      retired [/1] header.

    A machine-readable report lands in /tmp/chimera-log.json (schema
    chimera-log-check/1), validated by the shared {!Bjson} reader
    before it is written. Exits 0 when every check passes, 1
    otherwise. *)

let failures = ref 0

let check what ok =
  if ok then Fmt.pr "  ok: %s@." what
  else begin
    incr failures;
    Fmt.pr "  FAIL: %s@." what
  end

let cli =
  try Sys.getenv "CHIMERA_CLI"
  with Not_found -> "./_build/default/bin/chimera_cli.exe"

let rm_rf dir = ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

let fresh_dir tag =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chimera-logcheck-%d-%s" (Unix.getpid ()) tag)
  in
  rm_rf d;
  d

(* ------------------------------------------------------------------ *)
(* library leg: sustained knot through the spilling recorder *)

type lib_results = {
  lr_requests : int;
  lr_segments : int;
  lr_peak_raw : int;
  lr_total_raw : int;
  lr_total_z : int;
  lr_checkpoints : int;
  lr_window_segments : int;
}

let run_library () : lib_results =
  let b = Bench_progs.Registry.by_name "knot" in
  let scale = b.b_sustained_scale in
  let an =
    Chimera.Pipeline.analyze ~profile_runs:6
      ~profile_io:(fun i -> b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
      (Minic.Parser.parse ~file:"knot" (b.b_source ~workers:4 ~scale))
  in
  let io = b.b_io ~seed:42 ~scale in
  let config = { Interp.Engine.default_config with seed = 1; cores = 4 } in
  let dir = fresh_dir "lib" in
  let sr =
    Chimera.Runner.record_segmented ~config ~io ~dir ~events_per_segment:2048
      ~checkpoint_every:4 an.an_instrumented
  in
  let st = sr.Chimera.Runner.sr_stats in
  let requests = sr.sr_outcome.o_stats.n_syscalls in
  check "sustained load (>= 20k syscalls recorded)" (requests >= 20_000);
  check
    (Fmt.str "spilled recording (%d segments sealed)" st.Replay.Seglog.ws_segments)
    (st.Replay.Seglog.ws_segments >= 16);
  check
    (Fmt.str "bounded residency (peak segment %dB, raw total %dB)"
       st.Replay.Seglog.ws_peak_raw st.Replay.Seglog.ws_total_raw)
    (st.Replay.Seglog.ws_peak_raw * 4 <= st.Replay.Seglog.ws_total_raw);
  (* full streamed replay == recording *)
  let full = Chimera.Runner.replay_streamed ~config ~io ~dir an.an_instrumented in
  check "streamed replay reproduces the recording"
    (Chimera.Runner.same_execution sr.sr_outcome full.st_outcome = Ok ());
  check "streamed replay read every segment"
    (full.Chimera.Runner.st_segments_loaded = st.Replay.Seglog.ws_segments
    && not full.st_halted);
  (* windowed replay: halt mid-run on the digest the full replay saw *)
  let mf = sr.Chimera.Runner.sr_manifest in
  let nseg = Array.length mf.Replay.Seglog.mf_segments in
  let mid = mf.Replay.Seglog.mf_segments.(nseg / 2).Replay.Seglog.sg_last_tick in
  let cover = Replay.Seglog.covering_segment mf ~upto:mid in
  let win =
    Chimera.Runner.replay_streamed ~config ~io ~upto_tick:mid ~dir
      an.an_instrumented
  in
  check "windowed replay halts early"
    (win.Chimera.Runner.st_halted
    && win.st_segments_loaded < st.Replay.Seglog.ws_segments);
  check "window reads only the covering segment prefix"
    (win.Chimera.Runner.st_segments_loaded = cover + 1);
  let digest_at (sr : Chimera.Runner.streamed_replay) idx =
    List.assoc_opt idx sr.Chimera.Runner.st_digests
  in
  check "windowed digest == full-replay digest at the halt segment"
    (match (digest_at full cover, digest_at win cover) with
    | Some df, Some dw -> df = dw
    | _ -> false);
  (* checkpoints: a digest pin at exactly every 4th seal *)
  let pinned =
    Array.to_list mf.Replay.Seglog.mf_segments
    |> List.filter (fun (s : Replay.Seglog.segment) -> s.sg_checkpoint <> None)
  in
  check
    (Fmt.str "checkpoints pinned at exactly every 4th seal (%d)"
       (List.length pinned))
    (Array.for_all
       (fun (s : Replay.Seglog.segment) ->
         match s.sg_checkpoint with
         | Some d -> s.sg_index mod 4 = 0 && String.length d = 32
         | None -> s.sg_index mod 4 <> 0)
       mf.Replay.Seglog.mf_segments);
  rm_rf dir;
  {
    lr_requests = requests;
    lr_segments = st.Replay.Seglog.ws_segments;
    lr_peak_raw = st.Replay.Seglog.ws_peak_raw;
    lr_total_raw = st.Replay.Seglog.ws_total_raw;
    lr_total_z = st.Replay.Seglog.ws_total_z;
    lr_checkpoints = List.length pinned;
    lr_window_segments = win.Chimera.Runner.st_segments_loaded;
  }

(* ------------------------------------------------------------------ *)
(* CLI leg *)

(** Run [cmd], capturing stdout; (exit code, stdout lines). *)
let run_cmd cmd : int * string list =
  let out = Filename.temp_file "chimera-logcheck" ".out" in
  let code = Sys.command (Fmt.str "%s > %s 2>/dev/null" cmd (Filename.quote out)) in
  let lines = In_channel.with_open_text out In_channel.input_lines in
  Sys.remove out;
  (code, lines)

let run_cli () =
  (* a small sustained server: knot at a reduced scale keeps the gate
     quick while still sealing dozens of segments under the small
     threshold (the CLI drives io from --io-seed's random model) *)
  let src =
    Bench_progs.Server.knot ~workers:4
      ~scale:(Bench_progs.Server.knot_sustained_scale / 10)
  in
  let mc = Filename.temp_file "chimera-logcheck" ".mc" in
  let oc = open_out mc in
  output_string oc src;
  close_out oc;
  let dir = fresh_dir "cli" in
  let common = "--profile-runs 2 --no-cache --seed 1 --cores 4 --io-seed 7" in
  let rec_code, rec_out =
    run_cmd
      (Fmt.str "%s record %s %s --segment-dir %s --segment-events 1024"
         (Filename.quote cli) (Filename.quote mc) common (Filename.quote dir))
  in
  check "cli: segmented record exits 0" (rec_code = 0);
  let manifest = Filename.concat dir "manifest" in
  check "cli: /2 manifest + segments on disk"
    (Sys.file_exists manifest
    && Sys.file_exists (Filename.concat dir "seg-0000.seg")
    && In_channel.with_open_bin manifest In_channel.input_line
       = Some "chimera-log-segments/2");
  check "cli: each seal's ckpt-NNNN.bin holds its manifest pin"
    (Array.for_all
       (fun (s : Replay.Seglog.segment) ->
         let f = Filename.concat dir (Replay.Seglog.checkpoint_file s.sg_index) in
         Sys.file_exists f
         && Some (In_channel.with_open_bin f In_channel.input_all) = s.sg_checkpoint)
       (Replay.Seglog.read_manifest ~dir).mf_segments);
  let replay extra =
    run_cmd
      (Fmt.str "%s replay %s %s --segment-dir %s%s" (Filename.quote cli)
         (Filename.quote mc) common (Filename.quote dir) extra)
  in
  let rep_code, rep_out = replay "" in
  check "cli: streamed replay exits 0" (rep_code = 0);
  check "cli: streamed replay stdout == record stdout" (rep_out = rec_out);
  let win_code, win_out = replay " --from-tick 0 --window 100000" in
  check "cli: windowed replay exits 0" (win_code = 0);
  check "cli: windowed replay is a prefix of the full outputs"
    (List.length win_out < List.length rep_out
    && win_out
       = List.filteri (fun i _ -> i < List.length win_out) rep_out);
  (* corrupt one sealed segment: flip a byte in the compressed payload
     (past the header), then expect the typed corrupt-log exit *)
  let seg = Filename.concat dir "seg-0002.seg" in
  let bytes = In_channel.with_open_bin seg In_channel.input_all in
  let n = String.length bytes in
  let b = Bytes.of_string bytes in
  Bytes.set b (n - 4) (Char.chr (Char.code (Bytes.get b (n - 4)) lxor 0xff));
  Out_channel.with_open_bin seg (fun oc -> Out_channel.output_bytes oc b);
  let bad_code, _ = replay "" in
  check "cli: corrupted segment checksum exits with the typed status 3"
    (bad_code = 3);
  (* a directory in the retired /1 format is rejected on its header:
     undo the segment damage so the header is the only fault *)
  Out_channel.with_open_bin seg (fun oc -> output_string oc bytes);
  let text = In_channel.with_open_bin manifest In_channel.input_all in
  let nl = String.index text '\n' in
  Out_channel.with_open_bin manifest (fun oc ->
      output_string oc
        ("chimera-log-segments/1" ^ String.sub text nl (String.length text - nl)));
  let old_code, _ = replay "" in
  check "cli: a /1 manifest exits with the typed status 3" (old_code = 3);
  rm_rf dir;
  Sys.remove mc

(* ------------------------------------------------------------------ *)

let report_json (lr : lib_results) =
  let doc =
    Fmt.str
      {|{"schema": "chimera-log-check/1",
 "bench": "knot", "requests": %d,
 "segments": %d, "checkpoints": %d,
 "peak_raw_bytes": %d, "total_raw_bytes": %d, "total_z_bytes": %d,
 "residency_ratio": %.2f,
 "window_segments": %d,
 "failures": %d}
|}
      lr.lr_requests lr.lr_segments lr.lr_checkpoints lr.lr_peak_raw
      lr.lr_total_raw lr.lr_total_z
      (float_of_int lr.lr_total_raw /. float_of_int (max 1 lr.lr_peak_raw))
      lr.lr_window_segments !failures
  in
  (match Bjson.parse doc with
  | exception Bjson.Bad m -> check (Fmt.str "report JSON parses (%s)" m) false
  | _ -> ());
  let oc = open_out "/tmp/chimera-log.json" in
  output_string oc doc;
  close_out oc;
  Fmt.pr "report: /tmp/chimera-log.json@."

let () =
  Fmt.pr "segmented-log gate: sustained spill / stream / checkpoint@.";
  let lr = run_library () in
  Fmt.pr "segmented-log gate: CLI record/replay/window/corrupt loop@.";
  run_cli ();
  report_json lr;
  if !failures > 0 then begin
    Fmt.pr "%d check(s) FAILED@." !failures;
    exit 1
  end;
  Fmt.pr "all checks passed@."
