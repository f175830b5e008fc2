(** The chimera command-line tool.

    Subcommands mirror the pipeline stages:

    - [races FILE]      — run RELAY and print the static race report
    - [plan FILE]       — print the weak-lock instrumentation plan
    - [instrument FILE] — print the instrumented program
    - [run FILE]        — execute natively (prints outputs)
    - [record FILE]     — analyze, instrument, record; write logs
    - [replay FILE]     — replay from recorded logs and verify determinism
    - [trace FILE]      — record + replay with event tracing; contention
                          report and stream-divergence diagnosis
    - [bench NAME]      — the same pipeline on a built-in benchmark

    MiniC sources are C-subset files (see README); built-in benchmark
    names: aget pfscan pbzip2 knot apache ocean water fft radix. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path = Minic.Typecheck.parse_and_check ~file:path (read_file path)

let write_file name s =
  let oc = open_out_bin name in
  output_string oc s;
  close_out oc

let config_of ?(strategy = Interp.Engine.Sdefault) seed cores =
  { Interp.Engine.default_config with seed; cores; strategy }

(* --trace-out support: a sink is created only when requested, so the
   default path runs with tracing fully disabled *)
let sink_for trace_out =
  Option.map (fun _ -> Trace.Sink.create ()) trace_out

let dump_trace trace_out sink =
  match (trace_out, sink) with
  | Some path, Some s ->
      let evs = Trace.Sink.events s in
      write_file path (Trace.to_chrome evs);
      Fmt.epr "[trace: %d events (%d dropped) -> %s]@." (List.length evs)
        (Trace.Sink.dropped s) path
  | _ -> ()

(* common args *)
let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed")

let cores_arg =
  Arg.(value & opt int 4 & info [ "cores" ] ~doc:"Simulated cores")

let strategy_conv =
  Arg.enum
    (List.map
       (fun s -> (Interp.Engine.strategy_name s, s))
       Interp.Engine.all_strategies)

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Interp.Engine.Sdefault
    & info [ "strategy" ]
        ~doc:
          "Schedule strategy: $(b,default) (seeded round-robin with work \
           stealing), $(b,pct) (PCT-style priority schedule with a \
           change point at each quantum expiry), or $(b,storm) \
           (weak-timeout storm: slashed timeouts, dense expiry sweeps, \
           short quanta). Replay is gated by recorded per-object orders, \
           so a log recorded under any strategy replays under any other.")

(* a seed range for sweep modes: "A..B" inclusive, or a single seed "N" *)
let seeds_conv : (int * int) Arg.conv =
  let parse s =
    let fail () =
      Error (`Msg (Fmt.str "invalid seed range %S (expected A..B or N)" s))
    in
    match String.split_on_char '.' s with
    | [ a; ""; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b when a <= b -> Ok (a, b)
        | _ -> fail ())
    | [ n ] -> (
        match int_of_string_opt n with Some v -> Ok (v, v) | None -> fail ())
    | _ -> fail ()
  in
  let print ppf (a, b) = Fmt.pf ppf "%d..%d" a b in
  Arg.conv (parse, print)

let seeds_arg =
  Arg.(
    value
    & opt (some seeds_conv) None
    & info [ "seeds" ] ~docv:"A..B"
        ~doc:
          "Sweep scheduler seeds $(docv) (inclusive) instead of a single \
           $(b,--seed)")

let seeds_list (a, b) = List.init (b - a + 1) (fun i -> a + i)

let io_seed_arg =
  Arg.(value & opt int 42 & info [ "io-seed" ] ~doc:"Input-model seed")

let profile_runs_arg =
  Arg.(
    value & opt int 8
    & info [ "profile-runs" ] ~docv:"N"
        ~doc:
          "At most $(docv) profiling runs. Profiling stops earlier once \
           two further runs leave the plan's view of the profile (the \
           concurrent function pairs and the loops at or over the \
           loop-body threshold) unchanged.")

let opts_arg =
  let opts_conv =
    Arg.enum
      [
        ("all", Instrument.Plan.all_opts);
        ("naive", Instrument.Plan.naive);
        ("func", Instrument.Plan.funcs_only);
        ("loop", Instrument.Plan.loops_only);
      ]
  in
  Arg.(value & opt opts_conv Instrument.Plan.all_opts
       & info [ "opts" ] ~doc:"Optimization set: all | naive | func | loop")

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Trace the run and write a Chrome-trace (chrome://tracing) \
           JSON array of its events to $(docv). Timestamps are logical \
           per-thread step counts, so traces are replay-stable.")

let no_lockopt_arg =
  Arg.(
    value & flag
    & info [ "no-lockopt" ]
        ~doc:
          "Disable the interprocedural must-lockset elision and \
           instrument the raw plan")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan the analysis out over $(docv) domains (SCC-scheduled \
           summaries, race scans, profiling runs, lockopt dataflow). \
           Output is byte-identical to $(b,-j 1).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Bypass the persistent analysis cache (neither read nor write)")

let cache_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Analysis cache directory. Defaults to \\$CHIMERA_CACHE_DIR, \
           else \\$XDG_CACHE_HOME/chimera, else ~/.cache/chimera.")

let cache_of ~no_cache ~cache_dir =
  if no_cache then None else Some (Ancache.create ?dir:cache_dir ())

(* damaged-entry diagnostics go to stderr in the same style as the
   corrupt-replay-log message; routine hit/miss lines stay quiet *)
let cli_cache_log msg =
  if String.length msg >= 8 && String.sub msg 0 8 = "warning:" then
    Fmt.epr "chimera: %s@." msg

let with_jobs jobs f =
  if jobs <= 1 then f None
  else Par.Pool.with_pool ~domains:jobs (fun p -> f (Some p))

let analyze_file ?opts ?mhp ?(profile_runs = 8) ?(no_lockopt = false)
    ~jobs ~no_cache ~cache_dir path =
  with_jobs jobs (fun pool ->
      Chimera.Pipeline.analyze ?opts ?mhp ~profile_runs
        ~lockopt:(not no_lockopt) ?pool
        ?cache:(cache_of ~no_cache ~cache_dir)
        ~cache_log:cli_cache_log
        (Minic.Parser.parse ~file:path (read_file path)))

(* ------------------------------------------------------------------ *)

(* exit code for surfaced correctness issues: stress-matrix divergence,
   a dynamic race outside the static report, a refined-plan digest
   mismatch, or a safety-valve violation *)
let issue_exit = 2

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let refine_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "refine" ] ~docv:"PLAN"
        ~doc:
          "Run under the corpus-refined deployment plan in $(docv) \
           (written by $(b,chimera refine)). The plan embeds a digest of \
           the base plan it refines; a mismatch with the plan computed \
           here — or a dropped lock the base plan does not contain — \
           exits 2, so a stale deployment can never silently drop the \
           wrong locks.")

(* Resolve the program to execute: the lockopt-instrumented one, or —
   under --refine — the re-derived refined instrumentation *)
let refined_program (an : Chimera.Pipeline.analysis) = function
  | None -> an.Chimera.Pipeline.an_instrumented
  | Some path -> (
      let dp =
        try Refine.load_deployment path
        with Refine.Bad_plan msg ->
          Fmt.epr "chimera: refined plan %s: %s@." path msg;
          exit issue_exit
      in
      match Refine.apply_deployment ~plan:an.an_plan dp with
      | Error e ->
          Fmt.epr "chimera: refined plan %s: %a@." path
            Refine.pp_deploy_error e;
          exit issue_exit
      | Ok plan' ->
          Fmt.epr "[refined plan: %d lock(s) dropped, %d -> %d static \
                   acquisitions]@."
            (List.length dp.Refine.dp_dropped)
            (Instrument.Plan.n_acquisitions an.an_plan)
            (Instrument.Plan.n_acquisitions plan');
          let an = Chimera.Pipeline.with_refined an plan' in
          Option.get an.an_instr_refined)

let races_cmd =
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain-races" ]
          ~doc:
            "List every candidate pair with its provenance: kept, \
             pruned:mhp (sites can never run concurrently), or \
             pruned:escape (every raced-on object is confined by \
             fork/join ordering)")
  in
  let no_mhp_arg =
    Arg.(
      value & flag
      & info [ "no-mhp" ]
          ~doc:"Disable MHP pruning and print raw RELAY output")
  in
  let run file explain no_mhp jobs no_cache cache_dir =
    (* the report is profile-independent, so the cached pipeline entry is
       keyed with zero profiling runs and shared across repeated calls *)
    let an =
      analyze_file ~mhp:(not no_mhp) ~profile_runs:0 ~jobs ~no_cache
        ~cache_dir file
    in
    let report = an.Chimera.Pipeline.an_report in
    if explain then Fmt.pr "%a@." Relay.Detect.pp_report_explain report
    else Fmt.pr "%a@." Relay.Detect.pp_report report
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:"Static data-race report (RELAY + MHP fork/join pruning)")
    Term.(
      const run $ file_arg $ explain_arg $ no_mhp_arg $ jobs_arg
      $ no_cache_arg $ cache_dir_arg)

let plan_cmd =
  let explain_plan_arg =
    Arg.(
      value & flag
      & info [ "explain-plan" ]
          ~doc:
            "List every weak-lock acquisition with its region, claimed \
             ranges, and lockopt provenance: kept, elided:dominated (a \
             dominating enclosing region already holds the lock), or \
             elided:callsite (every call site of the function holds it)")
  in
  let run file profile_runs opts no_lockopt jobs no_cache cache_dir
      explain_plan =
    let an =
      analyze_file ~opts ~profile_runs ~no_lockopt ~jobs ~no_cache ~cache_dir
        file
    in
    if explain_plan then Fmt.pr "%a@." Lockopt.pp_explain an.an_lockopt
    else begin
      Fmt.pr "%a@." (Profiling.Profile.pp ~cap:profile_runs) an.an_profile;
      Fmt.pr "%a@." Instrument.Plan.pp_summary an.an_plan;
      Fmt.pr "%a@.@." Lockopt.pp_report an.an_lockopt;
      List.iter
        (fun (pd : Instrument.Plan.pair_decision) ->
          Fmt.pr "%a@.  lock %a@.  side1 %a (%s)@.  side2 %a (%s)@."
            Relay.Detect.pp_race_pair pd.pd_pair Minic.Ast.pp_weak_lock pd.pd_lock
            Instrument.Plan.pp_region pd.pd_s1.sd_region pd.pd_s1.sd_reason
            Instrument.Plan.pp_region pd.pd_s2.sd_region pd.pd_s2.sd_reason)
        an.an_plan.pl_decisions
    end
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Weak-lock granularity plan (profiling + bounds)")
    Term.(
      const run $ file_arg $ profile_runs_arg $ opts_arg $ no_lockopt_arg
      $ jobs_arg $ no_cache_arg $ cache_dir_arg $ explain_plan_arg)

let instrument_cmd =
  let run file profile_runs opts no_lockopt jobs no_cache cache_dir =
    let an =
      analyze_file ~opts ~profile_runs ~no_lockopt ~jobs ~no_cache ~cache_dir
        file
    in
    print_string (Minic.Pretty.program_to_string an.an_instrumented)
  in
  Cmd.v (Cmd.info "instrument" ~doc:"Print the weak-lock-instrumented program")
    Term.(
      const run $ file_arg $ profile_runs_arg $ opts_arg $ no_lockopt_arg
      $ jobs_arg $ no_cache_arg $ cache_dir_arg)

let print_outcome (o : Interp.Engine.outcome) =
  List.iter (fun (_, v) -> Fmt.pr "%d@." v) o.o_outputs;
  List.iter
    (fun (p, m) -> Fmt.epr "fault in %a: %s@." Runtime.Key.pp_tid_path p m)
    o.o_faults;
  Fmt.epr "[%d simulated ticks, %d statements, %d threads]@." o.o_ticks
    o.o_stats.n_stmts
    (List.length o.o_steps)

let run_cmd =
  let run file seed cores io_seed strategy seeds trace_out =
    let prog = load file in
    let io = Interp.Iomodel.random ~seed:io_seed in
    match seeds with
    | None ->
        let sink = sink_for trace_out in
        let o =
          Chimera.Runner.native ~config:(config_of ~strategy seed cores) ?sink
            ~io prog
        in
        print_outcome o;
        dump_trace trace_out sink
    | Some range ->
        (* seed sweep: one native run per seed, no tracing *)
        List.iter
          (fun s ->
            Fmt.pr "-- seed %d --@." s;
            print_outcome
              (Chimera.Runner.native ~config:(config_of ~strategy s cores) ~io
                 prog))
          (seeds_list range)
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a MiniC program natively")
    Term.(
      const run $ file_arg $ seed_arg $ cores_arg $ io_seed_arg
      $ strategy_arg $ seeds_arg $ trace_out_arg)

let det_cmd =
  let run file seed cores io_seed profile_runs opts no_lockopt jobs no_cache
      cache_dir =
    let an =
      analyze_file ~opts ~profile_runs ~no_lockopt ~jobs ~no_cache ~cache_dir
        file
    in
    let o =
      Chimera.Runner.deterministic ~config:(config_of seed cores)
        ~io:(Interp.Iomodel.random ~seed:io_seed) an.an_instrumented
    in
    print_outcome o
  in
  Cmd.v
    (Cmd.info "det"
       ~doc:
         "Instrument and run under deterministic logical-time arbitration \
          (same output for every --seed, no logs)")
    Term.(
      const run $ file_arg $ seed_arg $ cores_arg $ io_seed_arg
      $ profile_runs_arg $ opts_arg $ no_lockopt_arg $ jobs_arg
      $ no_cache_arg $ cache_dir_arg)

let segment_dir_arg ~doc =
  Arg.(value & opt (some string) None & info [ "segment-dir" ] ~doc)

let record_cmd =
  let run file seed cores io_seed strategy seeds profile_runs opts no_lockopt
      jobs no_cache cache_dir out trace_out refine segment_dir segment_events =
    let an =
      analyze_file ~opts ~profile_runs ~no_lockopt ~jobs ~no_cache ~cache_dir
        file
    in
    let prog = refined_program an refine in
    let io = Interp.Iomodel.random ~seed:io_seed in
    let record_one ?sink ~prefix s =
      let r =
        Chimera.Runner.record ~config:(config_of ~strategy s cores) ?sink ~io
          prog
      in
      write_file (prefix ^ ".input.log") (Replay.Log.encode_input_log r.rc_log);
      write_file (prefix ^ ".order.log") (Replay.Log.encode_order_log r.rc_log);
      Fmt.epr "[logs: input %dB (%dB gz), order %dB (%dB gz) -> %s.*.log]@."
        r.rc_input_log_raw r.rc_input_log_z r.rc_order_log_raw
        r.rc_order_log_z prefix;
      r
    in
    let record_seg_one ?sink ~dir s =
      let sr =
        Chimera.Runner.record_segmented ~config:(config_of ~strategy s cores)
          ?sink ~io ~dir ~events_per_segment:segment_events prog
      in
      let st = sr.Chimera.Runner.sr_stats in
      Fmt.epr
        "[segments: %d sealed, %d events, peak raw %dB (resident bound), \
         total raw %dB, %dB gz -> %s]@."
        st.Replay.Seglog.ws_segments st.ws_events st.ws_peak_raw
        st.ws_total_raw st.ws_total_z dir;
      sr
    in
    match (seeds, segment_dir) with
    | None, None ->
        let sink = sink_for trace_out in
        let r = record_one ?sink ~prefix:out seed in
        print_outcome r.rc_outcome;
        dump_trace trace_out sink
    | None, Some dir ->
        let sink = sink_for trace_out in
        let sr = record_seg_one ?sink ~dir seed in
        print_outcome sr.sr_outcome;
        dump_trace trace_out sink
    | Some range, None ->
        (* one recording per seed, logs under per-seed prefixes, with a
           content-addressed dedup summary across the sweep *)
        let digests =
          List.map
            (fun s ->
              let r = record_one ~prefix:(Fmt.str "%s.%d" out s) s in
              Chimera.Stress.log_digest r.rc_log)
            (seeds_list range)
        in
        Fmt.pr "recorded %d seeds, %d distinct logs@." (List.length digests)
          (List.length (List.sort_uniq compare digests))
    | Some range, Some dir ->
        (* per-seed segment directories; dedup on the segment checksums *)
        let digests =
          List.map
            (fun s ->
              let sr = record_seg_one ~dir:(Fmt.str "%s.%d" dir s) s in
              Array.to_list sr.sr_manifest.Replay.Seglog.mf_segments
              |> List.concat_map (fun (sg : Replay.Seglog.segment) ->
                     [ sg.sg_md5_input; sg.sg_md5_order ])
              |> String.concat ","
              |> fun m -> Digest.to_hex (Digest.string m))
            (seeds_list range)
        in
        Fmt.pr "recorded %d seeds, %d distinct logs@." (List.length digests)
          (List.length (List.sort_uniq compare digests))
  in
  let out_arg =
    Arg.(value & opt string "chimera" & info [ "o" ] ~doc:"Log file prefix")
  in
  let segment_events_arg =
    Arg.(
      value & opt int 4096
      & info [ "segment-events" ]
          ~doc:
            "With --segment-dir: gated events per sealed segment (the \
             resident-log-memory bound)")
  in
  Cmd.v (Cmd.info "record" ~doc:"Instrument and record an execution")
    Term.(
      const run $ file_arg $ seed_arg $ cores_arg $ io_seed_arg
      $ strategy_arg $ seeds_arg $ profile_runs_arg $ opts_arg
      $ no_lockopt_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg $ out_arg
      $ trace_out_arg $ refine_arg
      $ segment_dir_arg
          ~doc:
            "Record with a segmented, spilling log: seal, compress, \
             checksum and spill bounded segments to this directory instead \
             of one monolithic log pair"
      $ segment_events_arg)

(* exit code for a log that fails to decode (distinct from cmdliner's
   reserved 123-125 range and from program exit codes) *)
let corrupt_log_exit = 3


let replay_cmd =
  let run file seed cores io_seed strategy seeds profile_runs opts no_lockopt
      jobs no_cache cache_dir logs trace_out refine segment_dir from_tick
      window =
    let an =
      analyze_file ~opts ~profile_runs ~no_lockopt ~jobs ~no_cache ~cache_dir
        file
    in
    let prog = refined_program an refine in
    let io = Interp.Iomodel.random ~seed:io_seed in
    (* the determinism sweep: one and the same execution under every seed *)
    let sweep_check outcomes =
      let first = snd (List.hd outcomes) in
      print_outcome first;
      let bad =
        List.filter
          (fun (_, o) -> Chimera.Runner.same_execution first o <> Ok ())
          outcomes
      in
      if bad = [] then
        Fmt.pr "replay under %d seeds: IDENTICAL@." (List.length outcomes)
      else begin
        List.iter
          (fun (s, o) ->
            match Chimera.Runner.same_execution first o with
            | Ok () -> ()
            | Error d ->
                Fmt.pr "seed %d: DIVERGED: %a@." s
                  Chimera.Runner.pp_divergence d)
          bad;
        exit 1
      end
    in
    match segment_dir with
    | Some dir ->
        (* streamed (and possibly windowed) replay of a segment directory *)
        let upto_tick = Option.map (fun w -> from_tick + w) window in
        let stream_one ?sink s =
          try
            Chimera.Runner.replay_streamed
              ~config:(config_of ~strategy s cores)
              ?sink ~io ?upto_tick ~dir prog
          with Replay.Log.Corrupt msg ->
            Fmt.epr "chimera: corrupt replay log: %s@." msg;
            exit corrupt_log_exit
        in
        let report (sr : Chimera.Runner.streamed_replay) =
          Fmt.epr "[stream: %d segment(s) loaded%s]@." sr.st_segments_loaded
            (if sr.st_halted then
               Fmt.str ", halted at window bound [%d,+%d] (digest %s)"
                 from_tick
                 (Option.value window ~default:0)
                 (match List.rev sr.st_digests with
                 | (_, d) :: _ -> d
                 | [] -> "-")
             else "")
        in
        (match seeds with
        | None ->
            let sink = sink_for trace_out in
            let sr = stream_one ?sink seed in
            print_outcome sr.st_outcome;
            report sr;
            dump_trace trace_out sink
        | Some range ->
            let outcomes =
              List.map
                (fun s ->
                  let sr = stream_one s in
                  report sr;
                  (s, sr.Chimera.Runner.st_outcome))
                (seeds_list range)
            in
            sweep_check outcomes)
    | None -> (
        let log =
          try
            Replay.Log.decode
              (read_file (logs ^ ".input.log"))
              (read_file (logs ^ ".order.log"))
          with Replay.Log.Corrupt msg ->
            Fmt.epr "chimera: corrupt replay log: %s@." msg;
            exit corrupt_log_exit
        in
        match seeds with
        | None ->
            let sink = sink_for trace_out in
            let o =
              Chimera.Runner.replay ~config:(config_of ~strategy seed cores)
                ?sink ~io prog log
            in
            print_outcome o;
            dump_trace trace_out sink
        | Some range ->
            let outcomes =
              List.map
                (fun s ->
                  ( s,
                    Chimera.Runner.replay
                      ~config:(config_of ~strategy s cores)
                      ~io prog log ))
                (seeds_list range)
            in
            sweep_check outcomes)
  in
  let logs_arg =
    Arg.(value & opt string "chimera" & info [ "logs" ] ~doc:"Log file prefix")
  in
  let from_tick_arg =
    Arg.(
      value & opt int 0
      & info [ "from-tick" ]
          ~doc:"With --segment-dir and --window: start of the replay window")
  in
  let window_arg =
    Arg.(
      value & opt (some int) None
      & info [ "window" ]
          ~doc:
            "With --segment-dir: replay only the window of $(b,--from-tick) \
             to $(b,--from-tick)+$(i,W) ticks — streaming halts cleanly \
             after the last segment covering the window drains, never \
             reading the later segment files")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a recorded execution"
       ~exits:
         (Cmd.Exit.info corrupt_log_exit
            ~doc:"the recorded logs are truncated or corrupt"
         :: Cmd.Exit.defaults))
    Term.(
      const run $ file_arg $ seed_arg $ cores_arg $ io_seed_arg
      $ strategy_arg $ seeds_arg $ profile_runs_arg $ opts_arg
      $ no_lockopt_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg $ logs_arg
      $ trace_out_arg $ refine_arg
      $ segment_dir_arg
          ~doc:
            "Stream the replay out of this segment directory (written by \
             $(b,record --segment-dir)) instead of monolithic log files"
      $ from_tick_arg $ window_arg)

let trace_cmd =
  let run file seed cores io_seed profile_runs opts no_lockopt jobs no_cache
      cache_dir top trace_out =
    let an =
      analyze_file ~opts ~profile_runs ~no_lockopt ~jobs ~no_cache ~cache_dir
        file
    in
    let config = config_of seed cores in
    let io = Interp.Iomodel.random ~seed:io_seed in
    let rec_sink = Trace.Sink.create () in
    let r =
      Chimera.Runner.record ~config ~sink:rec_sink ~io an.an_instrumented
    in
    let rep_sink = Trace.Sink.create () in
    let o =
      Chimera.Runner.replay
        ~config:{ config with seed = config.seed + 7919 }
        ~sink:rep_sink ~io an.an_instrumented r.rc_log
    in
    let rec_events = Trace.Sink.events rec_sink in
    Fmt.pr "@[<v>%a@]@."
      (Trace.pp_report ~top)
      (Trace.summarize ~dropped:(Trace.Sink.dropped rec_sink) rec_events);
    let st = r.rc_outcome.o_stats in
    Fmt.pr "timeout preemptions: %d | handoffs served: %d, expired: %d@."
      st.n_forced st.n_handoff_served st.n_handoff_expired;
    (match trace_out with
    | Some path ->
        write_file path (Trace.to_chrome rec_events);
        Fmt.epr "[trace: %d events -> %s]@." (List.length rec_events) path
    | None -> ());
    let stream_div () =
      Trace.first_divergence ~recorded:rec_events
        ~replayed:(Trace.Sink.events rep_sink)
    in
    match Chimera.Runner.same_execution r.rc_outcome o with
    | Ok () -> (
        match stream_div () with
        | None ->
            Fmt.pr "record and replay stable event streams: IDENTICAL@."
        | Some d ->
            Fmt.pr "event streams diverge: %a@." Trace.pp_divergence d;
            exit 1)
    | Error d -> (
        Fmt.pr "replay DIVERGED: %a@." Chimera.Runner.pp_divergence d;
        (match stream_div () with
        | Some dv -> Fmt.pr "first diverging event: %a@." Trace.pp_divergence dv
        | None ->
            Fmt.pr
              "no diverging trace event (data-only divergence: same \
               control flow and synchronization, different values)@.");
        exit 1)
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~doc:"Locks to list in the contention report")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record with event tracing, replay under a shifted scheduler \
          seed, print per-lock/per-granularity contention metrics, and \
          verify the stable event streams match")
    Term.(
      const run $ file_arg $ seed_arg $ cores_arg $ io_seed_arg
      $ profile_runs_arg $ opts_arg $ no_lockopt_arg $ jobs_arg
      $ no_cache_arg $ cache_dir_arg $ top_arg $ trace_out_arg)

let bench_cmd =
  let run name seed cores workers strategy seeds no_lockopt jobs no_cache
      cache_dir refine =
    let b = Bench_progs.Registry.by_name name in
    let src = b.b_source ~workers ~scale:b.b_eval_scale in
    (* under --refine the analysis mirrors the stress/corpus pipeline
       (profile_runs 6, stress cache tag) so the deployment's base-plan
       digest can match the plan computed here *)
    let profile_runs, tag =
      match refine with
      | None -> (8, "bench:" ^ name)
      | Some _ -> (6, "stress:" ^ name)
    in
    let an =
      with_jobs jobs (fun pool ->
          Chimera.Pipeline.analyze ~profile_runs ~lockopt:(not no_lockopt)
            ~profile_io:(fun i ->
              b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
            ?pool
            ?cache:(cache_of ~no_cache ~cache_dir)
            ~cache_tag:tag
            ~cache_log:cli_cache_log
            (Minic.Parser.parse ~file:name src))
    in
    let instrumented = refined_program an refine in
    let io = b.b_io ~seed:42 ~scale:b.b_eval_scale in
    let config = config_of ~strategy seed cores in
    let ov, r = Chimera.Runner.measure ~config ~io ~original:an.an_prog
        ~instrumented () in
    Fmt.pr "%s: %d races, %a@." name
      (List.length an.an_report.races)
      Instrument.Plan.pp_summary an.an_plan;
    Fmt.pr "%a@." Lockopt.pp_report an.an_lockopt;
    Fmt.pr "native %d ticks | record %d ticks (%.2fx) | replay %d ticks (%.2fx)@."
      ov.ov_native_ticks ov.ov_record_ticks ov.ov_record ov.ov_replay_ticks
      ov.ov_replay;
    Fmt.pr "logs: input %dB gz | order %dB gz@." r.rc_input_log_z r.rc_order_log_z;
    Fmt.pr "runtime weak acquisitions (record): %d@."
      (Refine.runtime_weak_acqs r.rc_outcome);
    (match
       Chimera.Runner.same_execution r.rc_outcome
         (Chimera.Runner.replay
            ~config:{ config with seed = config.seed + 7919 }
            ~io instrumented r.rc_log)
     with
    | Ok () -> Fmt.pr "replay (different scheduler seed): DETERMINISTIC@."
    | Error d -> (
        Fmt.pr "replay DIVERGED: %a@." Chimera.Runner.pp_divergence d;
        (* localize it: diff the recorded vs replayed event streams *)
        match
          Chimera.Runner.first_trace_divergence ~config ~io
            instrumented r.rc_log
        with
        | Some dv ->
            Fmt.pr "first diverging event: %a@." Trace.pp_divergence dv
        | None -> Fmt.pr "no diverging trace event (data-only)@."));
    match seeds with
    | None -> ()
    | Some range ->
        (* record/replay determinism across a full seed sweep *)
        let bad = ref 0 in
        List.iter
          (fun s ->
            match
              Chimera.Runner.record_replay_check
                ~config:{ config with seed = s } ~io instrumented
            with
            | Ok _ -> ()
            | Error d ->
                incr bad;
                Fmt.pr "seed %d: DIVERGED: %a@." s
                  Chimera.Runner.pp_divergence d)
          (seeds_list range);
        let a, b = range in
        Fmt.pr "seed sweep %d..%d: %s@." a b
          (if !bad = 0 then "DETERMINISTIC" else Fmt.str "%d DIVERGED" !bad);
        if !bad > 0 then exit 1
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some (Arg.enum (List.map (fun n -> (n, n)) Bench_progs.Registry.names))) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark name")
  in
  let workers_arg =
    Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Worker threads")
  in
  Cmd.v (Cmd.info "bench" ~doc:"Run the full pipeline on a built-in benchmark")
    Term.(
      const run $ name_arg $ seed_arg $ cores_arg $ workers_arg
      $ strategy_arg $ seeds_arg $ no_lockopt_arg $ jobs_arg $ no_cache_arg
      $ cache_dir_arg $ refine_arg)

(* ------------------------------------------------------------------ *)
(* stress: batch matrix recording + fault injection *)

(* exit code for a matrix with divergences / claim drift / golden
   mismatches / stuck recordings (exit 3, shared with corrupt-log, covers
   fault-injection contract violations) *)
let stress_issue_exit = 2

let stress_json (rp : Chimera.Stress.report)
    (fault : Chimera.Stress.fault_report option) : string =
  let b = Buffer.create 1024 in
  let strings xs =
    String.concat ", "
      (List.map (fun s -> Fmt.str "\"%s\"" (Bjson.escape s)) xs)
  in
  Buffer.add_string b
    (Fmt.str
       "{\n  \"jobs\": %d,\n  \"distinct\": %d,\n  \"replayed\": %d,\n  \
        \"issues\": [%s]"
       rp.rp_jobs rp.rp_distinct rp.rp_replayed
       (strings
          (List.map (Fmt.str "%a" Chimera.Stress.pp_issue) rp.rp_issues)));
  (match fault with
  | None -> ()
  | Some f ->
      Buffer.add_string b
        (Fmt.str
           ",\n  \"fault\": {\n    \"mutants\": %d,\n    \"truncations\": \
            %d,\n    \"flips\": %d,\n    \"appends\": %d,\n    \
            \"rejected\": %d,\n    \"benign\": %d,\n    \"divergent\": \
            %d,\n    \"crashes\": [%s]\n  }"
           (Chimera.Stress.fault_total f)
           f.fi_truncations f.fi_flips f.fi_appends f.fi_rejected f.fi_benign
           f.fi_divergent
           (strings
              (List.map (fun (w, e) -> w ^ ": " ^ e) f.fi_crashes))));
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let stress_cmd =
  let run benches srcs raw seeds strategies cores io_seed jobs no_cache
      cache_dir golden json_out fault_logs no_fault_inject max_truncations
      max_flips corpus =
    (* a raw (uninstrumented) matrix is a negative control; its
       recordings are useless as refinement evidence *)
    if raw && corpus <> None then begin
      Fmt.epr "chimera: stress: --corpus cannot be combined with --raw@.";
      exit Cmd.Exit.cli_error
    end;
    (* a corrupt on-disk log pair is rejected up front, before any
       recording work *)
    (match fault_logs with
    | None -> ()
    | Some prefix -> (
        match
          Replay.Log.decode
            (read_file (prefix ^ ".input.log"))
            (read_file (prefix ^ ".order.log"))
        with
        | exception Replay.Log.Corrupt msg ->
            Fmt.epr "chimera: corrupt replay log: %s@." msg;
            exit corrupt_log_exit
        | _ -> Fmt.pr "logs %s.*.log: decode OK@." prefix));
    let golden_rows =
      match golden with Some p -> Chimera.Stress.golden_ticks p | None -> []
    in
    (* the built-in trio is a default, not an addition: naming benches or
       sources explicitly replaces it *)
    let benches =
      if benches = [] && srcs = [] then [ "pfscan"; "fft"; "ocean" ]
      else benches
    in
    let seeds = seeds_list seeds in
    with_jobs jobs (fun pool ->
        let cache = cache_of ~no_cache ~cache_dir in
        (* benchmark analysis mirrors the golden-counters generator
           (profile_runs 6, profile-io seeds 100+i, 4 workers, io seed 42
           at eval scale) so --golden pins are directly comparable *)
        let bench_spec name :
            Chimera.Stress.prog_spec
            * (string * (Refine.Corpus.kind * string option * int * string)) =
          let b = Bench_progs.Registry.by_name name in
          let src = b.b_source ~workers:4 ~scale:b.b_eval_scale in
          let an =
            Chimera.Pipeline.analyze ~profile_runs:6
              ~profile_io:(fun i ->
                b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
              ?pool ?cache
              ~cache_tag:("stress:" ^ name)
              ~cache_log:cli_cache_log
              (Minic.Parser.parse ~file:name src)
          in
          ( {
              sp_name = name;
              sp_instrumented =
                (if raw then an.an_prog else an.an_instrumented);
              sp_io = b.b_io ~seed:42 ~scale:b.b_eval_scale;
              sp_golden_ticks =
                (if raw then None else List.assoc_opt name golden_rows);
            },
            ( name,
              (Refine.Corpus.Kbench, None, 42, Refine.plan_digest an.an_plan)
            ) )
        in
        let src_spec path :
            Chimera.Stress.prog_spec
            * (string * (Refine.Corpus.kind * string option * int * string)) =
          let an =
            Chimera.Pipeline.analyze ~profile_runs:6 ?pool ?cache
              ~cache_log:cli_cache_log
              (Minic.Parser.parse ~file:path (read_file path))
          in
          ( {
              sp_name = Filename.basename path;
              sp_instrumented =
                (if raw then an.an_prog else an.an_instrumented);
              sp_io = Interp.Iomodel.random ~seed:io_seed;
              sp_golden_ticks = None;
            },
            ( Filename.basename path,
              ( Refine.Corpus.Ksrc,
                Some path,
                io_seed,
                Refine.plan_digest an.an_plan ) ) )
        in
        let specs =
          List.map bench_spec benches @ List.map src_spec srcs
        in
        let progs = List.map fst specs and meta = List.map snd specs in
        if progs = [] then begin
          Fmt.epr "chimera: stress: no programs given@.";
          exit Cmd.Exit.cli_error
        end;
        Fmt.pr "stress matrix: %d program(s) x %d seed(s) x %d strateg%s@."
          (List.length progs) (List.length seeds) (List.length strategies)
          (if List.length strategies = 1 then "y" else "ies");
        let rp =
          Chimera.Stress.run_matrix ?pool ~cores ~seeds ~strategies ~progs ()
        in
        Fmt.pr
          "recorded %d jobs, %d distinct logs (%d duplicates); replayed %d@."
          rp.rp_jobs rp.rp_distinct (rp.rp_jobs - rp.rp_distinct)
          rp.rp_replayed;
        List.iter (fun i -> Fmt.pr "%a@." Chimera.Stress.pp_issue i) rp.rp_issues;
        (match corpus with
        | None -> ()
        | Some dir ->
            let c = Refine.Corpus.of_stress ~dir ~cores ~meta rp in
            Refine.Corpus.save c;
            Fmt.epr "[corpus: %d program(s), %d distinct recording(s) -> %s]@."
              (List.length c.co_entries)
              (List.fold_left
                 (fun acc (e : Refine.Corpus.entry) ->
                   acc + List.length e.ce_recordings)
                 0 c.co_entries)
              dir);
        let fault =
          if no_fault_inject then None
          else begin
            let sp = List.hd progs in
            let f =
              Chimera.Stress.fault_injection ?pool
                ~max_truncations ~max_flips
                ~config:{ Interp.Engine.default_config with cores }
                ~io:sp.Chimera.Stress.sp_io
                ~instrumented:sp.Chimera.Stress.sp_instrumented ()
            in
            Fmt.pr "fault injection on %s: %a@." sp.Chimera.Stress.sp_name
              Chimera.Stress.pp_fault_report f;
            List.iter
              (fun (what, e) -> Fmt.pr "  CRASH: %s: %s@." what e)
              f.fi_crashes;
            Some f
          end
        in
        (match json_out with
        | None -> ()
        | Some path ->
            let doc = stress_json rp fault in
            (match Bjson.parse doc with
            | exception Bjson.Bad m ->
                Fmt.failwith "stress emitted invalid JSON: %s" m
            | _ -> ());
            write_file path doc;
            Fmt.epr "[stress report -> %s]@." path);
        let crashes =
          match fault with Some f -> f.fi_crashes <> [] | None -> false
        in
        if crashes then begin
          Fmt.pr "stress: FAULT-INJECTION CONTRACT VIOLATED@.";
          exit corrupt_log_exit
        end;
        if rp.rp_issues <> [] then begin
          Fmt.pr "stress: %d issue(s)@." (List.length rp.rp_issues);
          exit stress_issue_exit
        end;
        Fmt.pr "stress: OK@.")
  in
  let benches_arg =
    Arg.(
      value
      & pos_all
          (Arg.enum
             (List.map (fun n -> (n, n)) Bench_progs.Registry.names))
          []
      & info [] ~docv:"BENCH"
          ~doc:
            "Built-in benchmarks to stress (default, when no $(docv) or \
             $(b,--src) is given: pfscan fft ocean)")
  in
  let srcs_arg =
    Arg.(
      value & opt_all file []
      & info [ "src" ] ~docv:"FILE"
          ~doc:"Also stress a MiniC source file (repeatable)")
  in
  let raw_arg =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Record the $(b,uninstrumented) programs — a negative control: \
             their data races are expected to make replay diverge, \
             exercising the exit-2 path")
  in
  let stress_seeds_arg =
    Arg.(
      value
      & opt seeds_conv (1, 8)
      & info [ "seeds" ] ~docv:"A..B" ~doc:"Seed range (default 1..8)")
  in
  let strategies_arg =
    Arg.(
      value
      & opt (list strategy_conv) Interp.Engine.all_strategies
      & info [ "strategies" ] ~docv:"S,..."
          ~doc:"Strategies to sweep (default: default,pct,storm)")
  in
  let golden_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "golden" ] ~docv:"FILE"
          ~doc:
            "Pin default-strategy seed-1 record ticks to the golden \
             counters table in $(docv) (requires --cores 4, the golden \
             generator's configuration)")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write a JSON report to $(docv)")
  in
  let fault_logs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-logs" ] ~docv:"PREFIX"
          ~doc:
            "Decode-validate the on-disk log pair $(docv).input.log / \
             $(docv).order.log before stressing; a corrupt pair exits 3")
  in
  let no_fault_inject_arg =
    Arg.(
      value & flag
      & info [ "no-fault-inject" ] ~doc:"Skip the log fault-injection phase")
  in
  let max_truncations_arg =
    Arg.(
      value & opt int 256
      & info [ "max-truncations" ]
          ~doc:"Truncation-point cap per log (evenly sampled beyond it)")
  in
  let max_flips_arg =
    Arg.(
      value & opt int 64
      & info [ "max-flips" ] ~doc:"Byte-corruption cap per log")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Save the matrix's distinct recordings and a $(b,corpus.json) \
             manifest (with per-program base-plan digests) under $(docv), \
             for later $(b,chimera refine) runs")
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Batch-record a (program x seed x strategy) matrix under \
          adversarial schedules, dedup the logs by content address, \
          replay every distinct recording, and fault-inject the encoded \
          logs (truncation at every record boundary + byte corruption), \
          asserting typed rejection or a clean divergence report"
       ~exits:
         (Cmd.Exit.info stress_issue_exit
            ~doc:
              "the matrix surfaced issues: replay divergence, served-claim \
               drift, a stuck recording, or a golden-ticks mismatch"
         :: Cmd.Exit.info corrupt_log_exit
              ~doc:
                "a $(b,--fault-logs) pair failed to decode, or fault \
                 injection crashed the decoder/replayer (contract \
                 violation)"
         :: Cmd.Exit.defaults))
    Term.(
      const run $ benches_arg $ srcs_arg $ raw_arg $ stress_seeds_arg
      $ strategies_arg $ cores_arg $ io_seed_arg $ jobs_arg $ no_cache_arg
      $ cache_dir_arg $ golden_arg $ json_arg $ fault_logs_arg
      $ no_fault_inject_arg $ max_truncations_arg $ max_flips_arg
      $ corpus_arg)

(* ------------------------------------------------------------------ *)
(* dynrace: dynamic detector runs with static cross-checking *)

let dynrace_cmd =
  let track_weak_arg =
    Arg.(
      value & flag
      & info [ "track-weak" ]
          ~doc:
            "Run the $(b,instrumented) program with weak locks counted \
             as synchronization — the transformed-program race-freedom \
             check (any race exits 2). Without this flag the \
             $(b,original) program runs with weak locks ignored and \
             every dynamic race is cross-checked against the static \
             report (an uncovered race exits 2).")
  in
  let run file seed cores io_seed strategy seeds track_weak profile_runs
      opts no_lockopt jobs no_cache cache_dir =
    let an =
      analyze_file ~opts ~profile_runs ~no_lockopt ~jobs ~no_cache ~cache_dir
        file
    in
    let io = Interp.Iomodel.random ~seed:io_seed in
    let seeds = match seeds with None -> [ seed ] | Some r -> seeds_list r in
    let prog = if track_weak then an.an_instrumented else an.an_prog in
    let races = ref 0 and uncovered = ref 0 and checks = ref 0 in
    List.iter
      (fun s ->
        let det = Dynrace.create ~track_weak () in
        let hooks = Dynrace.attach det (Interp.Engine.no_hooks ()) in
        let (_ : Interp.Engine.outcome) =
          Interp.Engine.run
            ~config:(config_of ~strategy s cores)
            ~hooks ~mode:Interp.Engine.Native ~io prog
        in
        checks := !checks + Dynrace.n_checks det;
        List.iter
          (fun (r : Dynrace.race) ->
            incr races;
            let covered =
              Hashtbl.mem an.an_report.racy_sids r.dr_sid1
              && Hashtbl.mem an.an_report.racy_sids r.dr_sid2
            in
            if not covered then incr uncovered;
            Fmt.pr "seed %d: %a [%s]@." s Dynrace.pp_race r
              (if covered then "covered" else "UNCOVERED"))
          (Dynrace.races det))
      seeds;
    Fmt.pr "%d run(s): %d dynamic race(s), %d uncovered, %d memory \
            operation(s) checked@."
      (List.length seeds) !races !uncovered !checks;
    if track_weak && !races > 0 then begin
      Fmt.pr "dynrace: instrumented program races with weak locks counted \
              as synchronization@.";
      exit issue_exit
    end;
    if !uncovered > 0 then begin
      Fmt.pr "dynrace: a dynamic race escapes the static report@.";
      exit issue_exit
    end;
    Fmt.pr "dynrace: OK@."
  in
  Cmd.v
    (Cmd.info "dynrace"
       ~doc:
         "Run the vector-clock dynamic race detector and cross-check \
          every dynamic race against RELAY's static report (the paper's \
          coverage oracle); with $(b,--track-weak), check the \
          instrumented program race-free under weak-lock synchronization"
       ~exits:
         (Cmd.Exit.info issue_exit
            ~doc:
              "a dynamic race is not statically covered, or (with \
               $(b,--track-weak)) the instrumented program raced"
         :: Cmd.Exit.defaults))
    Term.(
      const run $ file_arg $ seed_arg $ cores_arg $ io_seed_arg
      $ strategy_arg $ seeds_arg $ track_weak_arg $ profile_runs_arg
      $ opts_arg $ no_lockopt_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg)

(* ------------------------------------------------------------------ *)
(* refine: corpus-driven plan refinement *)

let refine_cmd =
  let corpus_arg =
    Arg.(
      required
      & opt (some dir) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Corpus directory written by $(b,chimera stress --corpus)")
  in
  let min_coverage_arg =
    Arg.(
      value & opt int 2
      & info [ "min-coverage" ] ~docv:"N"
          ~doc:
            "Distinct recordings that must exercise both sides of a pair \
             before its never-racy evidence licenses a drop")
  in
  let out_dir_arg =
    Arg.(
      value & opt string "."
      & info [ "o"; "out-dir" ] ~docv:"DIR"
          ~doc:"Directory for the $(i,NAME).refined.json deployment plans")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "List every static pair with its evidence and provenance: \
             dropped:never-racy, kept:witnessed, kept:unexercised, or \
             kept (shared lock)")
  in
  let run corpus_dir min_coverage out_dir explain jobs no_cache cache_dir =
    let corpus =
      try Refine.Corpus.load ~dir:corpus_dir
      with Refine.Corpus.Bad msg ->
        Fmt.epr "chimera: corpus %s: %s@." corpus_dir msg;
        exit issue_exit
    in
    with_jobs jobs (fun pool ->
        let cache = cache_of ~no_cache ~cache_dir in
        let issues = ref 0 in
        List.iter
          (fun (e : Refine.Corpus.entry) ->
            (* reconstruct the analysis exactly as `stress` built it, so
               the plan digest recorded in the manifest can match *)
            let an, io =
              match e.ce_kind with
              | Refine.Corpus.Kbench ->
                  let b = Bench_progs.Registry.by_name e.ce_name in
                  let src = b.b_source ~workers:4 ~scale:b.b_eval_scale in
                  ( Chimera.Pipeline.analyze ~profile_runs:6
                      ~profile_io:(fun i ->
                        b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
                      ?pool ?cache
                      ~cache_tag:("stress:" ^ e.ce_name)
                      ~cache_log:cli_cache_log
                      (Minic.Parser.parse ~file:e.ce_name src),
                    b.b_io ~seed:42 ~scale:b.b_eval_scale )
              | Refine.Corpus.Ksrc ->
                  let path =
                    match e.ce_source with
                    | Some p -> p
                    | None ->
                        Fmt.epr
                          "chimera: corpus entry %s: source entry without \
                           a source path@."
                          e.ce_name;
                        exit issue_exit
                  in
                  ( Chimera.Pipeline.analyze ~profile_runs:6 ?pool ?cache
                      ~cache_log:cli_cache_log
                      (Minic.Parser.parse ~file:path (read_file path)),
                    Interp.Iomodel.random ~seed:e.ce_io_seed )
            in
            let digest = Refine.plan_digest an.an_plan in
            if digest <> e.ce_plan_digest then begin
              Fmt.epr
                "chimera: %s: corpus plan digest mismatch (recorded under \
                 %s, computed %s) — re-record the corpus@."
                e.ce_name e.ce_plan_digest digest;
              incr issues
            end
            else begin
              let obs =
                try
                  Refine.observe_corpus ?pool ~io
                    ~instrumented:an.an_instrumented
                    ~racy_sids:an.an_report.racy_sids corpus e
                with Refine.Corpus.Bad msg ->
                  Fmt.epr "chimera: corpus %s: %s@." e.ce_name msg;
                  exit issue_exit
              in
              let rf = Refine.refine ~min_coverage ~plan:an.an_plan obs in
              Fmt.pr "%s: %a@." e.ce_name Refine.pp_summary rf;
              if explain then
                List.iter
                  (fun pr -> Fmt.pr "  %a@." Refine.pp_pair_result pr)
                  rf.rf_pairs;
              mkdir_p out_dir;
              let path =
                Filename.concat out_dir (e.ce_name ^ ".refined.json")
              in
              write_file path
                (Refine.deployment_json
                   (Refine.deployment_of ~program:e.ce_name ~base:an.an_plan
                      rf));
              Fmt.epr "[refined plan -> %s]@." path;
              let refined =
                Instrument.Transform.apply an.an_prog rf.rf_plan
              in
              let jobs =
                List.map
                  (fun (r : Refine.Corpus.recording) ->
                    (r.cr_seed, r.cr_strategy))
                  e.ce_recordings
              in
              let va =
                Refine.validate ?pool ~cores:e.ce_cores ~io
                  ~report:an.an_report ~refined ~jobs ()
              in
              if va.va_violations <> [] then begin
                List.iter
                  (fun v -> Fmt.pr "  %a@." Refine.pp_violation v)
                  va.va_violations;
                incr issues
              end
              else
                Fmt.pr
                  "  validate: %d cell(s) re-recorded, %d race(s) \
                   checked, clean@."
                  va.va_jobs va.va_races_checked
            end)
          corpus.co_entries;
        if !issues > 0 then begin
          Fmt.pr "refine: %d issue(s)@." !issues;
          exit issue_exit
        end;
        Fmt.pr "refine: OK@.")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Close the static/dynamic loop: replay a stress corpus with the \
          race detector attached, aggregate per-pair evidence, drop the \
          weak locks proven never-racy at the coverage threshold, write \
          deployment plans, and validate the refined plans by \
          re-recording every corpus cell (any violation exits 2)"
       ~exits:
         (Cmd.Exit.info issue_exit
            ~doc:
              "a plan digest mismatch, damaged corpus, or safety-valve \
               violation (an uncovered or reintroduced race, or replay \
               divergence under the refined plan)"
         :: Cmd.Exit.defaults))
    Term.(
      const run $ corpus_arg $ min_coverage_arg $ out_dir_arg $ explain_arg
      $ jobs_arg $ no_cache_arg $ cache_dir_arg)

let cache_cmd =
  let stats_cmd =
    let run cache_dir =
      let c = Ancache.create ?dir:cache_dir () in
      let s = Ancache.stats c in
      Fmt.pr "dir: %s@.entries: %d@.bytes: %d@.stray tmp files: %d@."
        (Ancache.dir c) s.Ancache.st_entries s.Ancache.st_bytes
        s.Ancache.st_tmp
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Print the cache directory, entry count, size, and the number \
            of stray writer temp files (crashed atomic writes)")
      Term.(const run $ cache_dir_arg)
  in
  let clear_cmd =
    let run cache_dir =
      let c = Ancache.create ?dir:cache_dir () in
      let tmp = List.length (Ancache.stray_tmp_files c) in
      let n = Ancache.clear c in
      Fmt.pr "removed %d entr%s%s from %s@." n
        (if n = 1 then "y" else "ies")
        (if tmp > 0 then Fmt.str " and %d stray tmp file(s)" tmp else "")
        (Ancache.dir c)
    in
    Cmd.v
      (Cmd.info "clear"
         ~doc:
           "Delete every entry in the analysis cache and sweep stray \
            writer temp files")
      Term.(const run $ cache_dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect or clear the persistent analysis cache used by the \
          analyze-consuming subcommands")
    [ stats_cmd; clear_cmd ]

let () =
  let doc = "Chimera: hybrid program analysis for deterministic replay" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "chimera" ~version:"1.0.0" ~doc)
          [ races_cmd; plan_cmd; instrument_cmd; run_cmd; det_cmd;
            record_cmd; replay_cmd; trace_cmd; bench_cmd; dynrace_cmd;
            stress_cmd; refine_cmd; cache_cmd ]))
