(** Wall-clock benchmark harness: host-performance timings of the
    pipeline phases, per benchmark, on the monotonic clock.

    The simulated-tick ratios elsewhere in the harness reproduce the
    paper's *overhead* numbers; this module measures how fast the
    analyzer/recorder/replayer themselves run on the host — the
    regression surface for host-performance work (`make bench-regress`).

    Phases, timed independently per repetition:

    - [analyze]      — RELAY + profiling + planning + lockopt (the static
                       pipeline on the type-checked program, cold: no
                       cache, every stage recomputed). The harness pool
                       is threaded {e inside} the pipeline, so this
                       measures the parallel static pipeline at [-j N];
                       benches are measured one after another so each
                       analyze owns the whole pool.
    - [analyze_warm] — the same call against a freshly populated
                       analysis cache ({!Ancache}): one digest + read +
                       unmarshal, the incremental-rebuild path.
    - [instrument]   — applying the weak-lock plan to the AST
    - [record]       — one recorded run of the instrumented program
    - [replay]       — one replay of that recording under a shifted seed

    Every repetition asserts record==replay digests, so the timings can
    never come from a broken execution. One extra record run per bench
    carries a {!Interp.Phases} attribution (which never perturbs the
    simulated execution — its tick count is asserted against the
    untimed runs) and lands in the JSON as [record_phases]. Results are
    emitted as JSON (schema [chimera-wall-bench/3], documented in
    EXPERIMENTS.md):

    {v
    { "schema": "chimera-wall-bench/3",
      "reps": 3, "workers": 4, "cores": 4, "jobs": 4,
      "benches": [
        { "name": "aget", "scale": 256,
          "record_ticks": 123456,
          "phases": {
            "analyze":      {"mean_s": 0.41, "min_s": 0.40},
            "analyze_warm": {"mean_s": 0.002, "min_s": 0.001},
            "instrument":   {"mean_s": 0.01, "min_s": 0.01},
            "record":       {"mean_s": 0.52, "min_s": 0.50},
            "replay":       {"mean_s": 0.48, "min_s": 0.46}},
          "analyze_stages": {
            "pointer": 0.001, "relay": 0.002, "mhp": 0.001,
            "profile": 0.39, "plan": 0.001, "lockopt": 0.002},
          "record_phases": {
            "total_s": 0.52, "interp_s": 0.40, "recorder_s": 0.08,
            "scheduler_s": 0.02, "weaklock_s": 0.02},
          "record_replay_mean_s": 1.00 }, ... ],
      "total_wall_s": 12.3 }
    v}

    [flame_json] renders the per-bench record-phase breakdown as a
    Chrome-trace flamegraph (one row per benchmark, one complete event
    per phase) loadable in [chrome://tracing] / Perfetto.

    [compare] (the `wallcmp` experiment) reads two such files (via the
    shared {!Bjson} reader) and fails when any benchmark's
    record+replay mean — or its cold analyze mean — regressed beyond a
    tolerance ratio, when the aggregate warm-cache analyze speedup
    falls below its floor, or when the fresh run's aggregate scheduler
    share of record time exceeds its ceiling — the `make bench-regress`
    / CI `bench-smoke` gate. *)

let now_s () =
  Int64.to_float (Monotonic_clock.now ()) /. 1e9

(** Time one thunk: result, seconds. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

type phase = { mean_s : float; min_s : float }

let phase_of = function
  | [] -> { mean_s = 0.; min_s = 0. }
  | samples ->
      let n = float_of_int (List.length samples) in
      {
        mean_s = List.fold_left ( +. ) 0. samples /. n;
        min_s = List.fold_left min infinity samples;
      }

(** Stage order in the JSON breakdown (matches {!Chimera.Pipeline}'s
    [stage_sink] names). *)
let stage_names = [ "pointer"; "relay"; "mhp"; "profile"; "plan"; "lockopt" ]

(** Record-run wall-clock attribution, seconds (one instrumented run;
    see {!Interp.Phases}). *)
type rec_phases = {
  rp_total : float;
  rp_interp : float;
  rp_recorder : float;
  rp_scheduler : float;
  rp_weaklock : float;
}

type row = {
  w_name : string;
  w_scale : int;
  w_record_ticks : int;  (** simulated ticks of the recorded run (rep 1) *)
  w_analyze : phase;  (** cold: no cache *)
  w_analyze_warm : phase;  (** cache hit on a populated store *)
  w_stages : (string * float) list;  (** mean seconds per static stage *)
  w_instrument : phase;
  w_record : phase;
  w_replay : phase;
  w_rec_phases : rec_phases;
}

(** record+replay mean — the primary regression metric. *)
let rec_rep (r : row) = r.w_record.mean_s +. r.w_replay.mean_s

(* ------------------------------------------------------------------ *)
(* Measurement *)

let profile_runs = 12 (* matches Harness.analyze *)

(** Run the phases [reps] times for one benchmark. Each cold repetition
    is a fresh end-to-end pipeline (no analysis cache), so the analyze
    phase measures real work every time; the warm repetitions then hit a
    cache populated in a throwaway directory. *)
let measure_wall ?(workers = 4) ?(cores = 4) ?pool ~reps
    (b : Bench_progs.Registry.bench) : row =
  let scale = b.b_eval_scale in
  let src = b.b_source ~workers ~scale in
  let io = b.b_io ~seed:42 ~scale in
  let config = { Interp.Engine.default_config with seed = 1; cores } in
  let profile_io i = b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale in
  let analyze_s = ref [] and instr_s = ref [] in
  let record_s = ref [] and replay_s = ref [] in
  let record_ticks = ref 0 in
  let stage_total : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let stage_sink name dt =
    Hashtbl.replace stage_total name
      (dt +. Option.value (Hashtbl.find_opt stage_total name) ~default:0.)
  in
  for rep = 1 to reps do
    let parsed = Minic.Parser.parse ~file:b.b_name src in
    let an, t_an =
      timed (fun () ->
          Chimera.Pipeline.analyze ~profile_runs ~profile_io ?pool ~stage_sink
            parsed)
    in
    (* the plan application is cheap and already included in [analyze];
       time it on its own as the instrument phase *)
    let _, t_instr =
      timed (fun () ->
          Instrument.Transform.apply an.Chimera.Pipeline.an_prog
            an.Chimera.Pipeline.an_plan)
    in
    let r, t_rec =
      timed (fun () -> Chimera.Runner.record ~config ~io an.an_instrumented)
    in
    let rp, t_rep =
      timed (fun () ->
          Chimera.Runner.replay
            ~config:{ config with Interp.Engine.seed = config.seed + 7919 }
            ~io an.an_instrumented r.Chimera.Runner.rc_log)
    in
    (match Chimera.Runner.same_execution r.Chimera.Runner.rc_outcome rp with
    | Ok () -> ()
    | Error d ->
        Fmt.failwith "wall bench %s: replay diverged: %a" b.b_name
          Chimera.Runner.pp_divergence d);
    if rep = 1 then
      record_ticks := r.Chimera.Runner.rc_outcome.Interp.Engine.o_ticks;
    analyze_s := t_an :: !analyze_s;
    instr_s := t_instr :: !instr_s;
    record_s := t_rec :: !record_s;
    replay_s := t_rep :: !replay_s
  done;
  (* warm-cache reps: populate a throwaway store once (untimed), then
     time pure cache hits *)
  let warm_s = ref [] in
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chimera-wallcache-%d-%s" (Unix.getpid ()) b.b_name)
  in
  let cache = Ancache.create ~dir:cache_dir () in
  let cache_tag = "wall:" ^ b.b_name in
  let parsed = Minic.Parser.parse ~file:b.b_name src in
  let an_w =
    Chimera.Pipeline.analyze ~profile_runs ~profile_io ?pool ~cache ~cache_tag
      parsed
  in
  for _ = 1 to reps do
    let _, t_warm =
      timed (fun () ->
          Chimera.Pipeline.analyze ~profile_runs ~profile_io ?pool ~cache
            ~cache_tag parsed)
    in
    warm_s := t_warm :: !warm_s
  done;
  ignore (Ancache.clear cache);
  (try Sys.rmdir cache_dir with Sys_error _ -> ());
  (* one attributed record run: where does record-phase wall time go? The
     attribution must be a pure observer, so its tick count is pinned to
     the untimed repetitions' *)
  let ph = Interp.Phases.create ~now:now_s () in
  let r_ph =
    Chimera.Runner.record ~config ~io ~phases:ph
      an_w.Chimera.Pipeline.an_instrumented
  in
  if r_ph.Chimera.Runner.rc_outcome.Interp.Engine.o_ticks <> !record_ticks then
    Fmt.failwith
      "wall bench %s: phase attribution perturbed the run (%d ticks vs %d)"
      b.b_name r_ph.Chimera.Runner.rc_outcome.Interp.Engine.o_ticks
      !record_ticks;
  let stage_mean name =
    Option.value (Hashtbl.find_opt stage_total name) ~default:0.
    /. float_of_int reps
  in
  {
    w_name = b.b_name;
    w_scale = scale;
    w_record_ticks = !record_ticks;
    w_analyze = phase_of !analyze_s;
    w_analyze_warm = phase_of !warm_s;
    w_stages = List.map (fun n -> (n, stage_mean n)) stage_names;
    w_instrument = phase_of !instr_s;
    w_record = phase_of !record_s;
    w_replay = phase_of !replay_s;
    w_rec_phases =
      {
        rp_total = Interp.Phases.total_s ph;
        rp_interp = Interp.Phases.interp_s ph;
        rp_recorder = Interp.Phases.recorder_s ph;
        rp_scheduler = Interp.Phases.scheduler_s ph;
        rp_weaklock = Interp.Phases.weaklock_s ph;
      };
  }

let pp_phase name ppf (p : phase) =
  Fmt.pf ppf {|"%s": {"mean_s": %.6f, "min_s": %.6f}|} name p.mean_s p.min_s

let row_json (r : row) : string =
  let p = r.w_rec_phases in
  Fmt.str
    {|    {"name": "%s", "scale": %d, "record_ticks": %d,
     "phases": {%a, %a, %a, %a, %a},
     "analyze_stages": {%s},
     "record_phases": {"total_s": %.6f, "interp_s": %.6f, "recorder_s": %.6f, "scheduler_s": %.6f, "weaklock_s": %.6f},
     "record_replay_mean_s": %.6f}|}
    r.w_name r.w_scale r.w_record_ticks (pp_phase "analyze") r.w_analyze
    (pp_phase "analyze_warm") r.w_analyze_warm (pp_phase "instrument")
    r.w_instrument (pp_phase "record") r.w_record (pp_phase "replay")
    r.w_replay
    (String.concat ", "
       (List.map
          (fun (n, s) -> Fmt.str {|"%s": %.6f|} n s)
          r.w_stages))
    p.rp_total p.rp_interp p.rp_recorder p.rp_scheduler p.rp_weaklock
    (rec_rep r)

(* ------------------------------------------------------------------ *)
(* Chrome-trace flamegraph of the record-phase breakdown *)

(** One trace row (chrome tid) per benchmark; within it, one complete
    ("ph":"X") event per phase bucket laid end to end, microsecond
    timestamps. Load in chrome://tracing or Perfetto. *)
let flame_json (rows : row list) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  let first = ref true in
  let event fields =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b "{";
    Buffer.add_string b (String.concat "," fields);
    Buffer.add_string b "}"
  in
  List.iteri
    (fun i r ->
      event
        [
          {|"name":"thread_name"|}; {|"ph":"M"|}; {|"pid":0|};
          Fmt.str {|"tid":%d|} i;
          Fmt.str {|"args":{"name":"%s record"}|} r.w_name;
        ];
      let us s = int_of_float (1e6 *. s) in
      let p = r.w_rec_phases in
      let cursor = ref 0 in
      List.iter
        (fun (name, dur_s) ->
          let dur = us dur_s in
          if dur > 0 then begin
            event
              [
                Fmt.str {|"name":"%s"|} name; {|"cat":"record"|};
                {|"ph":"X"|}; {|"pid":0|};
                Fmt.str {|"tid":%d|} i;
                Fmt.str {|"ts":%d|} !cursor;
                Fmt.str {|"dur":%d|} dur;
              ];
            cursor := !cursor + dur
          end)
        [
          ("interp", p.rp_interp); ("recorder", p.rp_recorder);
          ("scheduler", p.rp_scheduler); ("weaklock", p.rp_weaklock);
        ])
    rows;
  Buffer.add_string b "]\n";
  Buffer.contents b

(** Run the wall benchmark over [benches] and print the JSON document.
    Benches run one after another; the harness pool (when installed) is
    threaded {e inside} each pipeline, so the analyze phase measures the
    parallel static pipeline at full [-j N] width rather than one
    serial analyze per domain. *)
let run ?(benches = Bench_progs.Registry.all) ?flame ~reps () =
  let pool = Harness.pool () in
  let jobs = match pool with Some p -> Par.Pool.size p | None -> 1 in
  let t0 = now_s () in
  let rows = List.map (fun b -> measure_wall ?pool ~reps b) benches in
  let total = now_s () -. t0 in
  (match flame with
  | Some file ->
      let oc = open_out file in
      output_string oc (flame_json rows);
      close_out oc;
      Fmt.epr "flamegraph: wrote %s (load in chrome://tracing)@." file
  | None -> ());
  Harness.emit_json
    (Fmt.str
       {|{"schema": "chimera-wall-bench/3", "reps": %d, "workers": 4, "cores": 4, "jobs": %d,
 "benches": [
%s
 ],
 "total_wall_s": %.3f}
|}
       reps jobs
       (String.concat ",\n" (List.map row_json rows))
       total)

(* ------------------------------------------------------------------ *)
(* Sustained-load segmented recording (the `sustained` experiment):
   bounded log residency measured, not asserted *)

type sus_row = {
  s_name : string;
  s_scale : int;
  s_requests : int;  (** syscalls served by the recorded run *)
  s_ticks : int;
  s_segments : int;
  s_events : int;  (** gated events spilled across the segments *)
  s_peak_raw : int;  (** resident-log bound: largest in-memory segment *)
  s_total_raw : int;  (** what a monolithic recording keeps resident *)
  s_total_z : int;  (** compressed on-disk footprint *)
  s_record_s : float;
  s_replay_s : float;
  s_window_s : float;  (** windowed replay to the mid-run checkpoint *)
  s_window_segments : int;  (** segments the window actually read *)
}

let residency_ratio (r : sus_row) =
  float_of_int r.s_total_raw /. float_of_int (max 1 r.s_peak_raw)

(** Record one benchmark at its sustained scale through the spilling
    recorder, then verify the recording three ways — full streamed
    replay matches the recording, a mid-run windowed replay halts early
    on a digest the full replay also computed, and the later segment
    files stay unread by the window — while timing each leg. *)
let measure_sustained ?(workers = 4) ?(cores = 4)
    (b : Bench_progs.Registry.bench) : sus_row =
  let scale = b.b_sustained_scale in
  let an = Harness.analyze b ~opts:Instrument.Plan.all_opts ~workers ~scale in
  let io = b.b_io ~seed:42 ~scale in
  let config = { Interp.Engine.default_config with seed = 1; cores } in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chimera-sustained-%d-%s" (Unix.getpid ()) b.b_name)
  in
  let sr, t_rec =
    timed (fun () ->
        Chimera.Runner.record_segmented ~config ~io ~dir
          ~events_per_segment:8192 an.an_instrumented)
  in
  let st = sr.Chimera.Runner.sr_stats in
  let full, t_rep =
    timed (fun () ->
        Chimera.Runner.replay_streamed ~config ~io ~dir an.an_instrumented)
  in
  (match
     Chimera.Runner.same_execution sr.Chimera.Runner.sr_outcome
       full.Chimera.Runner.st_outcome
   with
  | Ok () -> ()
  | Error d ->
      Fmt.failwith "sustained %s: streamed replay diverged: %a" b.b_name
        Chimera.Runner.pp_divergence d);
  (* windowed leg: replay to the middle of the run and stop *)
  let mf = sr.Chimera.Runner.sr_manifest in
  let nseg = Array.length mf.Replay.Seglog.mf_segments in
  let mid = mf.Replay.Seglog.mf_segments.(nseg / 2).Replay.Seglog.sg_last_tick in
  let cover = Replay.Seglog.covering_segment mf ~upto:mid in
  let win, t_win =
    timed (fun () ->
        Chimera.Runner.replay_streamed ~config ~io ~upto_tick:mid ~dir
          an.an_instrumented)
  in
  if not win.Chimera.Runner.st_halted then
    Fmt.failwith "sustained %s: windowed replay ran to completion" b.b_name;
  let digest_at digests idx = List.assoc_opt idx digests in
  (match
     ( digest_at full.Chimera.Runner.st_digests cover,
       digest_at win.Chimera.Runner.st_digests cover )
   with
  | Some df, Some dw when df = dw -> ()
  | df, dw ->
      Fmt.failwith
        "sustained %s: windowed digest mismatch at segment %d (full %a, \
         window %a)"
        b.b_name cover
        Fmt.(option ~none:(any "absent") string)
        df
        Fmt.(option ~none:(any "absent") string)
        dw);
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  {
    s_name = b.b_name;
    s_scale = scale;
    s_requests = sr.Chimera.Runner.sr_outcome.o_stats.n_syscalls;
    s_ticks = sr.Chimera.Runner.sr_outcome.o_ticks;
    s_segments = st.Replay.Seglog.ws_segments;
    s_events = st.Replay.Seglog.ws_events;
    s_peak_raw = st.Replay.Seglog.ws_peak_raw;
    s_total_raw = st.Replay.Seglog.ws_total_raw;
    s_total_z = st.Replay.Seglog.ws_total_z;
    s_record_s = t_rec;
    s_replay_s = t_rep;
    s_window_s = t_win;
    s_window_segments = win.Chimera.Runner.st_segments_loaded;
  }

let sus_row_json (r : sus_row) : string =
  Fmt.str
    {|    {"name": "%s", "scale": %d, "requests": %d, "ticks": %d,
     "segments": %d, "events": %d,
     "peak_raw_bytes": %d, "total_raw_bytes": %d, "total_z_bytes": %d,
     "residency_ratio": %.2f,
     "record_s": %.3f, "replay_s": %.3f, "window_s": %.3f,
     "window_segments": %d}|}
    r.s_name r.s_scale r.s_requests r.s_ticks r.s_segments r.s_events
    r.s_peak_raw r.s_total_raw r.s_total_z (residency_ratio r) r.s_record_s
    r.s_replay_s r.s_window_s r.s_window_segments

(** The sustained-load experiment (`bench sustained`, and the heart of
    `make log-check`): serve tens of thousands of requests through each
    server benchmark under the spilling recorder and emit a
    [chimera-sustained-log/1] JSON report. Fails — beyond the replay
    checks in {!measure_sustained} — when a server's sustained run
    serves fewer than [min_requests] syscalls (the load wasn't
    sustained) or when its peak resident segment is not at least
    [min_ratio] times smaller than the raw log total (spilling didn't
    actually bound memory). *)
let sustained ?(benches = Bench_progs.Registry.all) ?(min_requests = 20_000)
    ?(min_ratio = 4.) () =
  let servers, rest =
    List.partition
      (fun (b : Bench_progs.Registry.bench) ->
        b.b_kind = Bench_progs.Registry.Server)
      benches
  in
  ignore rest;
  if servers = [] then failwith "sustained: no server benchmarks selected";
  let t0 = now_s () in
  let rows = List.map (fun b -> measure_sustained b) servers in
  let total = now_s () -. t0 in
  let failed = ref false in
  List.iter
    (fun r ->
      let ratio = residency_ratio r in
      let low_load = r.s_requests < min_requests in
      let unbounded = ratio < min_ratio in
      if low_load || unbounded then failed := true;
      Fmt.epr
        "sustained %-8s %6d requests, %3d segments: peak %6dB of %8dB raw \
         (%5.1fx residency reduction)%s%s@."
        r.s_name r.s_requests r.s_segments r.s_peak_raw r.s_total_raw ratio
        (if low_load then
           Fmt.str "  LOAD TOO LOW (< %d requests)" min_requests
         else "")
        (if unbounded then Fmt.str "  RESIDENCY UNBOUNDED (< %.1fx)" min_ratio
         else ""))
    rows;
  Harness.emit_json
    (Fmt.str
       {|{"schema": "chimera-sustained-log/1", "workers": 4, "cores": 4,
 "min_requests": %d, "min_residency_ratio": %.1f,
 "benches": [
%s
 ],
 "total_wall_s": %.3f}
|}
       min_requests min_ratio
       (String.concat ",\n" (List.map sus_row_json rows))
       total);
  if !failed then begin
    Fmt.epr "FAIL: sustained-load segmented recording gate@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The comparison gate (shared Bjson reader) *)

type cmp_row = {
  c_name : string;
  c_rec_rep : float;
  c_analyze : float;  (** cold analyze mean; 0 when absent *)
  c_warm : float;  (** warm-cache analyze mean; 0 when absent *)
  c_rec_total : float;  (** attributed record total; 0 when absent (pre-/3) *)
  c_rec_sched : float;  (** scheduler + weak-lock admission share of it *)
}

let rows_of_json (j : Bjson.t) : cmp_row list =
  match Bjson.mem "benches" j with
  | Some (Bjson.List bs) ->
      List.map
        (fun b ->
          let phase name field =
            match Bjson.mem "phases" b with
            | Some ph -> Bjson.num_or 0. (Option.bind (Bjson.mem name ph) (Bjson.mem field))
            | None -> 0.
          in
          let rec_phase field =
            match Bjson.mem "record_phases" b with
            | Some rp -> Bjson.num_or 0. (Bjson.mem field rp)
            | None -> 0.
          in
          {
            c_name = Bjson.str_exn "name" (Bjson.mem "name" b);
            c_rec_rep =
              Bjson.num_exn "record_replay_mean_s"
                (Bjson.mem "record_replay_mean_s" b);
            c_analyze = phase "analyze" "mean_s";
            c_warm = phase "analyze_warm" "mean_s";
            c_rec_total = rec_phase "total_s";
            c_rec_sched = rec_phase "scheduler_s" +. rec_phase "weaklock_s";
          })
        bs
  | _ -> raise (Bjson.Bad "no benches array")

(** Compare a fresh wall run against the committed baseline. Exits
    nonzero when any benchmark's record+replay mean — or its cold
    analyze mean — exceeds [max_ratio] x its baseline (a wall-clock
    regression), when a baseline benchmark is missing from the new run,
    or when the fresh run carries warm-cache numbers whose aggregate
    speedup (sum of cold analyze means / sum of warm means) falls below
    [min_warm_speedup] (default 10, the incremental-rebuild floor; the
    aggregate is used because the smallest benches analyze in
    milliseconds cold), or when the fresh run carries record-phase
    attribution whose aggregate scheduler share — scheduler bookkeeping
    plus weak-lock admission over attributed record total — exceeds
    [max_sched_share] (default 0.35: the counter-gated scans keep
    scheduler bookkeeping a minority of record time; judged in aggregate because
    the smallest benches record in milliseconds). Improvements are
    reported but never fail. *)
let compare ?(min_warm_speedup = 10.) ?(max_sched_share = 0.35) ~baseline
    ~fresh ~max_ratio () =
  let base = rows_of_json (Bjson.load_file baseline) in
  let cur = rows_of_json (Bjson.load_file fresh) in
  Fmt.pr "wall-clock regression gate: %s vs baseline %s (tolerance %.2fx)@."
    fresh baseline max_ratio;
  Fmt.pr "%-10s %12s %12s %7s | %11s %11s %7s@." "bench" "base-recrep"
    "cur-recrep" "ratio" "base-an" "cur-an" "ratio";
  Fmt.pr "%s@." (String.make 80 '-');
  let failed = ref false in
  let ratio cur base = cur /. Float.max 1e-9 base in
  List.iter
    (fun b ->
      match List.find_opt (fun c -> c.c_name = b.c_name) cur with
      | None ->
          failed := true;
          Fmt.pr "%-10s %12.4f %12s %7s | %11.4f %11s %7s  MISSING@." b.c_name
            b.c_rec_rep "-" "-" b.c_analyze "-" "-"
      | Some c ->
          let rr = ratio c.c_rec_rep b.c_rec_rep in
          let ra =
            (* analyze gate only when the baseline carries the phase *)
            if b.c_analyze > 0. then ratio c.c_analyze b.c_analyze else 0.
          in
          let bad_rr = rr > max_ratio in
          let bad_an = ra > max_ratio in
          if bad_rr || bad_an then failed := true;
          Fmt.pr "%-10s %12.4f %12.4f %6.2fx | %11.4f %11.4f %6.2fx%s%s@."
            b.c_name b.c_rec_rep c.c_rec_rep rr b.c_analyze c.c_analyze ra
            (if bad_rr then "  REC/REP REGRESSED" else "")
            (if bad_an then "  ANALYZE REGRESSED" else ""))
    base;
  let total f xs = List.fold_left (fun a r -> a +. f r) 0. xs in
  Fmt.pr "%s@." (String.make 80 '-');
  Fmt.pr "%-10s %12.4f %12.4f %6.2fx | %11.4f %11.4f %6.2fx@." "total"
    (total (fun r -> r.c_rec_rep) base)
    (total (fun r -> r.c_rec_rep) cur)
    (ratio (total (fun r -> r.c_rec_rep) cur) (total (fun r -> r.c_rec_rep) base))
    (total (fun r -> r.c_analyze) base)
    (total (fun r -> r.c_analyze) cur)
    (ratio (total (fun r -> r.c_analyze) cur) (total (fun r -> r.c_analyze) base));
  (* warm-cache floor: judged on the fresh run alone, in aggregate *)
  let warm_total = total (fun r -> r.c_warm) cur in
  if warm_total > 0. then begin
    let speedup = total (fun r -> r.c_analyze) cur /. warm_total in
    let bad = speedup < min_warm_speedup in
    if bad then failed := true;
    Fmt.pr "warm-cache analyze speedup (aggregate): %.1fx (floor %.1fx)%s@."
      speedup min_warm_speedup
      (if bad then "  TOO SLOW" else "")
  end;
  (* scheduler-share ceiling: also fresh-run-only, in aggregate; absent
     record_phases (a pre-/3 file) leaves the gate off *)
  let rec_total = total (fun r -> r.c_rec_total) cur in
  if rec_total > 0. then begin
    let share = total (fun r -> r.c_rec_sched) cur /. rec_total in
    let bad = share > max_sched_share in
    if bad then failed := true;
    Fmt.pr
      "scheduler share of attributed record time (aggregate): %.3f (ceiling \
       %.2f)%s@."
      share max_sched_share
      (if bad then "  SCHEDULER-HEAVY" else "")
  end;
  if !failed then begin
    Fmt.pr "FAIL: wall-clock regression beyond %.2fx tolerance@." max_ratio;
    exit 1
  end
  else Fmt.pr "OK: within tolerance@."
