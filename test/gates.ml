(** The two heavy end-to-end gates, behind one harness and one report:
    [gates.exe [log|refine]...] runs the named legs (both by default).

    [log] — the segmented spilling log, on knot at its sustained-load
    scale (20k requests) with a small segment threshold so the recorder
    seals and spills dozens of times:
    - the peak resident segment is a small fraction of the raw log
      total (bounded log memory, measured);
    - a full streamed replay reproduces the recording and loads every
      segment; a windowed replay to a mid-run tick halts early, reads
      only the covering segment prefix, and lands on the digest the full
      replay computed there;
    - exactly every 4th seal pins a checkpoint digest in the manifest;
    - through the CLI: [record --segment-dir] writes a
      [chimera-log-segments/2] manifest and one [ckpt-NNNN.bin] per pin,
      [replay --segment-dir] reproduces the record's stdout, a windowed
      replay prints a prefix of it, and a flipped segment byte or a
      manifest with the retired [/1] header exits with the typed
      corrupt-log status 3.

    [refine] — corpus-driven lock dropping on the pfscan/fft/ocean trio:
    - the lockopt plan refined on a stress corpus (seeds 1..4 x every
      strategy, 4 cores) passes the safety valve, which re-records every
      cell with the detector attached and must find no violation;
    - record == replay under the lockopt and the refined plan, refined
      runtime weak-lock acquisitions never exceed lockopt's, and drop
      strictly on at least two of the three programs;
    - through the CLI: [stress --corpus] writes a manifest, [refine
      --corpus] emits one deployment per program and validates (exit 0),
      and a manifest with corrupted plan digests exits with the typed
      issue status 2.

    Every check and figure is kept per leg. The report
    [/tmp/chimera-gates.json] (schema [chimera-gates/1]) is written once
    at exit, pass or fail. Exits 0 when every check passes, 1 otherwise,
    2 on an unknown leg. [CHIMERA_CLI] names the CLI binary (default
    [./_build/default/bin/chimera_cli.exe]). *)

(* ------------------------------------------------------------------ *)
(* harness *)

type leg = {
  name : string;
  mutable checks : (string * bool) list;  (** newest first *)
  mutable metrics : (string * Bjson.t) list;  (** newest first *)
}

let current = ref { name = ""; checks = []; metrics = [] }

let check what ok =
  Fmt.pr "  %s: %s@." (if ok then "ok" else "FAIL") what;
  !current.checks <- (what, ok) :: !current.checks

let metric name v = !current.metrics <- (name, v) :: !current.metrics

let cli =
  Option.value (Sys.getenv_opt "CHIMERA_CLI")
    ~default:"./_build/default/bin/chimera_cli.exe"

(** [f dir] on a fresh temporary directory, removed afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_dir "chimera-gates" "" in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(** Run the CLI on [args]: exit code and stdout lines. *)
let run_cli args =
  let out = Filename.temp_file "chimera-gates" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Fmt.str "%s %s > %s 2>/dev/null" (Filename.quote cli) args
             (Filename.quote out))
      in
      (code, In_channel.with_open_text out In_channel.input_lines))

(** Analyze benchmark [name] at [scale] (default: its evaluation scale)
    as the experiments do; the analysis and the seed-42 io model. *)
let analyze_bench ?scale name =
  let b = Bench_progs.Registry.by_name name in
  let scale = Option.value scale ~default:b.b_eval_scale in
  let an =
    Chimera.Pipeline.analyze ~profile_runs:6
      ~profile_io:(fun i -> b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
      (Minic.Parser.parse ~file:name (b.b_source ~workers:4 ~scale))
  in
  (an, b.b_io ~seed:42 ~scale)

let config = { Interp.Engine.default_config with seed = 1; cores = 4 }

(* ------------------------------------------------------------------ *)
(* log leg *)

let log_library () =
  let an, io =
    analyze_bench
      ~scale:(Bench_progs.Registry.by_name "knot").b_sustained_scale "knot"
  in
  with_temp_dir @@ fun dir ->
  let sr =
    Chimera.Runner.record_segmented ~config ~io ~dir ~events_per_segment:2048
      ~checkpoint_every:4 an.an_instrumented
  in
  let st = sr.sr_stats in
  let requests = sr.sr_outcome.o_stats.n_syscalls in
  check "sustained load (>= 20k syscalls recorded)" (requests >= 20_000);
  check
    (Fmt.str "spilled recording (%d segments sealed)" st.ws_segments)
    (st.ws_segments >= 16);
  check
    (Fmt.str "bounded residency (peak segment %dB, raw total %dB)"
       st.ws_peak_raw st.ws_total_raw)
    (st.ws_peak_raw * 4 <= st.ws_total_raw);
  let full =
    Chimera.Runner.replay_streamed ~config ~io ~dir an.an_instrumented
  in
  check "streamed replay reproduces the recording"
    (Chimera.Runner.same_execution sr.sr_outcome full.st_outcome = Ok ());
  check "streamed replay read every segment"
    (full.st_segments_loaded = st.ws_segments && not full.st_halted);
  (* windowed replay: halt mid-run on the digest the full replay saw *)
  let mf = sr.sr_manifest in
  let mid = mf.mf_segments.(Array.length mf.mf_segments / 2).sg_last_tick in
  let cover = Replay.Seglog.covering_segment mf ~upto:mid in
  let win =
    Chimera.Runner.replay_streamed ~config ~io ~upto_tick:mid ~dir
      an.an_instrumented
  in
  check "windowed replay halts early"
    (win.st_halted && win.st_segments_loaded < st.ws_segments);
  check "window reads only the covering segment prefix"
    (win.st_segments_loaded = cover + 1);
  check "windowed digest == full-replay digest at the halt segment"
    (match List.assoc_opt cover full.st_digests with
    | Some d -> List.assoc_opt cover win.st_digests = Some d
    | None -> false);
  let pinned =
    Array.to_list mf.mf_segments
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
       mf.mf_segments);
  metric "bench" (Bjson.Str "knot");
  metric "requests" (Bjson.int requests);
  metric "segments" (Bjson.int st.ws_segments);
  metric "checkpoints" (Bjson.int (List.length pinned));
  metric "peak_raw_bytes" (Bjson.int st.ws_peak_raw);
  metric "total_raw_bytes" (Bjson.int st.ws_total_raw);
  metric "total_z_bytes" (Bjson.int st.ws_total_z);
  metric "residency_ratio"
    (Bjson.Num
       (float_of_int st.ws_total_raw /. float_of_int (max 1 st.ws_peak_raw)));
  metric "window_segments" (Bjson.int win.st_segments_loaded)

let log_cli () =
  with_temp_dir @@ fun tmp ->
  (* knot at a tenth of its sustained scale still seals dozens of
     segments under the small threshold; the CLI draws io from
     --io-seed's random model *)
  let mc = Filename.concat tmp "knot.mc" in
  Out_channel.with_open_bin mc (fun oc ->
      output_string oc
        (Bench_progs.Server.knot ~workers:4
           ~scale:(Bench_progs.Server.knot_sustained_scale / 10)));
  let dir = Filename.concat tmp "segs" in
  let run cmd extra =
    run_cli
      (Fmt.str
         "%s %s --profile-runs 2 --no-cache --seed 1 --cores 4 --io-seed 7 \
          --segment-dir %s%s"
         cmd (Filename.quote mc) (Filename.quote dir) extra)
  in
  let rec_code, rec_out = run "record" " --segment-events 1024" in
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
         let f =
           Filename.concat dir (Replay.Seglog.checkpoint_file s.sg_index)
         in
         Sys.file_exists f
         && Some (In_channel.with_open_bin f In_channel.input_all)
            = s.sg_checkpoint)
       (Replay.Seglog.read_manifest ~dir).mf_segments);
  let rep_code, rep_out = run "replay" "" in
  check "cli: streamed replay exits 0" (rep_code = 0);
  check "cli: streamed replay stdout == record stdout" (rep_out = rec_out);
  let win_code, win_out = run "replay" " --window 100000" in
  check "cli: windowed replay exits 0" (win_code = 0);
  check "cli: windowed replay is a prefix of the full outputs"
    (List.length win_out < List.length rep_out
    && win_out = List.filteri (fun i _ -> i < List.length win_out) rep_out);
  (* flip a byte of one sealed segment's compressed payload (past the
     header): the streamed replay must exit with the typed status *)
  let seg = Filename.concat dir "seg-0002.seg" in
  let bytes = In_channel.with_open_bin seg In_channel.input_all in
  let b = Bytes.of_string bytes in
  let i = Bytes.length b - 4 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Out_channel.with_open_bin seg (fun oc -> Out_channel.output_bytes oc b);
  check "cli: corrupted segment checksum exits with the typed status 3"
    (fst (run "replay" "") = 3);
  (* undo the damage so the retired /1 header is the only fault *)
  Out_channel.with_open_bin seg (fun oc -> output_string oc bytes);
  let text = In_channel.with_open_bin manifest In_channel.input_all in
  let nl = String.index text '\n' in
  Out_channel.with_open_bin manifest (fun oc ->
      output_string oc "chimera-log-segments/1";
      output_string oc (String.sub text nl (String.length text - nl)));
  check "cli: a /1 manifest exits with the typed status 3"
    (fst (run "replay" "") = 3)

(* ------------------------------------------------------------------ *)
(* refine leg *)

let trio = [ "pfscan"; "fft"; "ocean" ]
let seeds = [ 1; 2; 3; 4 ]

let refine_bench name =
  let an, io = analyze_bench name in
  let jobs =
    List.concat_map
      (fun strat -> List.map (fun s -> (s, strat)) seeds)
      Interp.Engine.all_strategies
  in
  let obs =
    Refine.corpus_observations ~cores:4 ~io ~instrumented:an.an_instrumented
      ~racy_sids:an.an_report.racy_sids ~jobs ()
  in
  let rf = Refine.refine ~min_coverage:2 ~plan:an.an_plan obs in
  let refined = Instrument.Transform.apply an.an_prog rf.rf_plan in
  let va =
    Refine.validate ~cores:4 ~io ~report:an.an_report ~refined ~jobs ()
  in
  let run_one prog =
    let r = Chimera.Runner.record ~config ~io prog in
    let rep = Chimera.Runner.replay ~config ~io prog r.rc_log in
    ( Refine.runtime_weak_acqs r.rc_outcome,
      Chimera.Runner.same_execution r.rc_outcome rep = Ok () )
  in
  let rt_lockopt, det_lockopt = run_one an.an_instrumented in
  let rt_refined, det_refined = run_one refined in
  Fmt.pr "  %-8s static %2d -> %2d (%d lock(s) dropped)  rt-acq %3d -> %3d@."
    name rf.rf_base_acqs rf.rf_refined_acqs
    (List.length rf.rf_dropped)
    rt_lockopt rt_refined;
  check (name ^ ": safety valve clean") (va.va_violations = []);
  check (name ^ ": record == replay under the lockopt plan") det_lockopt;
  check (name ^ ": record == replay under the refined plan") det_refined;
  check
    (name ^ ": refined acquisitions never exceed lockopt")
    (rt_refined <= rt_lockopt);
  metric name
    (Bjson.Obj
       [
         ("static_acqs", Bjson.int rf.rf_base_acqs);
         ("refined_acqs", Bjson.int rf.rf_refined_acqs);
         ("locks_dropped", Bjson.int (List.length rf.rf_dropped));
         ("violations", Bjson.int (List.length va.va_violations));
         ("rt_acq_lockopt", Bjson.int rt_lockopt);
         ("rt_acq_refined", Bjson.int rt_refined);
         ("replay_lockopt", Bjson.Bool det_lockopt);
         ("replay_refined", Bjson.Bool det_refined);
       ]);
  rt_refined < rt_lockopt

let refine_library () =
  metric "min_coverage" (Bjson.int 2);
  metric "seeds" (Bjson.List (List.map Bjson.int seeds));
  let strict = List.filter refine_bench trio in
  check "strict runtime-acquisition drop on >= 2 applications"
    (List.length strict >= 2)

let refine_cli () =
  with_temp_dir @@ fun dir ->
  let corpus = Filename.quote (Filename.concat dir "corpus") in
  let plans = Filename.concat dir "plans" in
  let code, _ =
    run_cli
      (Fmt.str "stress %s --seeds 1..3 --corpus %s -j 2"
         (String.concat " " trio) corpus)
  in
  check "cli: stress --corpus exits 0" (code = 0);
  let manifest = Filename.concat (Filename.concat dir "corpus") "corpus.json" in
  check "cli: corpus manifest written" (Sys.file_exists manifest);
  let refine extra =
    fst
      (run_cli
         (Fmt.str "refine --corpus %s -o %s%s" corpus (Filename.quote plans)
            extra))
  in
  check "cli: refine validates its own corpus (exit 0)"
    (refine " --min-coverage 2" = 0);
  List.iter
    (fun b ->
      check
        (Fmt.str "cli: refined deployment emitted for %s" b)
        (Sys.file_exists (Filename.concat plans (b ^ ".refined.json"))))
    trio;
  (* stale evidence: corrupt every plan digest in the manifest *)
  let doc = Bjson.load_file manifest in
  let rec corrupt = function
    | Bjson.Obj kvs -> Bjson.Obj (List.map (fun (k, v) -> (k, field k v)) kvs)
    | Bjson.List l -> Bjson.List (List.map corrupt l)
    | v -> v
  and field k v =
    if k <> "plan_digest" then corrupt v
    else Bjson.Str "deadbeefdeadbeefdeadbeefdeadbeef"
  in
  let corrupted = corrupt doc in
  check "cli: manifest corruption changed the digest" (corrupted <> doc);
  Out_channel.with_open_bin manifest (fun oc ->
      output_string oc (Bjson.to_string corrupted));
  check "cli: stale corpus evidence is a typed issue (exit 2)" (refine "" = 2)

(* ------------------------------------------------------------------ *)

let all_legs =
  [
    ("log", [ log_library; log_cli ]);
    ("refine", [ refine_library; refine_cli ]);
  ]

let report_file = "/tmp/chimera-gates.json"

let leg_ok l = List.for_all snd l.checks

let report legs =
  let leg_json l =
    ( l.name,
      Bjson.Obj
        [
          ("ok", Bjson.Bool (leg_ok l));
          ( "checks",
            Bjson.List
              (List.rev_map
                 (fun (what, ok) ->
                   Bjson.Obj
                     [ ("name", Bjson.Str what); ("ok", Bjson.Bool ok) ])
                 l.checks) );
          ("metrics", Bjson.Obj (List.rev l.metrics));
        ] )
  in
  Bjson.Obj
    [
      ("schema", Bjson.Str "chimera-gates/1");
      ("ok", Bjson.Bool (List.for_all leg_ok legs));
      ("legs", Bjson.Obj (List.map leg_json legs));
    ]

let () =
  let names =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst all_legs
    | names -> names
  in
  List.iter
    (fun n ->
      if not (List.mem_assoc n all_legs) then begin
        Fmt.epr "gates: unknown leg %s (legs: log, refine)@." n;
        exit 2
      end)
    names;
  let legs =
    List.map
      (fun name ->
        Fmt.pr "[%s]@." name;
        current := { name; checks = []; metrics = [] };
        List.iter
          (fun part ->
            try part ()
            with e -> check ("completes: " ^ Printexc.to_string e) false)
          (List.assoc name all_legs);
        !current)
      names
  in
  Out_channel.with_open_bin report_file (fun oc ->
      output_string oc (Bjson.to_string (report legs));
      output_char oc '\n');
  Fmt.pr "report: %s@." report_file;
  let failed =
    List.concat_map
      (fun l -> List.filter (fun (_, ok) -> not ok) l.checks)
      legs
  in
  if failed <> [] then begin
    Fmt.pr "gates: %d check(s) FAILED@." (List.length failed);
    exit 1
  end;
  Fmt.pr "gates: all checks passed@."
