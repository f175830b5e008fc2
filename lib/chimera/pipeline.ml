(** The end-to-end Chimera pipeline (Figure 1 of the paper):

    source → RELAY static race detection → off-line profiling →
    clique + symbolic-bounds granularity planning → weak-lock
    instrumentation → record / replay.

    {!analyze} runs the static and profiling stages and produces the
    instrumented program; {!Runner} (sibling module) executes programs in
    native/record/replay modes and checks replay determinism. *)

open Minic.Ast

type analysis = {
  an_prog : program;              (** original program, type-checked *)
  an_summaries : Relay.Summary.t;
  an_report : Relay.Detect.report;
  an_profile : Profiling.Profile.t;
  an_plan_raw : Instrument.Plan.t;  (** plan before lockopt elision *)
  an_plan : Instrument.Plan.t;      (** plan actually instrumented *)
  an_lockopt : Lockopt.report;
  an_instrumented : program;      (** the data-race-free transformed program *)
  an_plan_refined : Instrument.Plan.t option;
      (** corpus-refined plan (third plan stage); [None] until a
          refinement is installed with {!with_refined} *)
  an_instr_refined : program option;
      (** program instrumented under [an_plan_refined] *)
}

let default_profile_io i = Interp.Iomodel.random ~seed:(1000 + (i * 37))

(** Everything the cached analysis result depends on, except the
    [profile_io] closure — that one is not digestible, so callers
    supplying a non-default io model must pass a distinguishing
    [cache_tag] (the CLI's default io keeps the default tag). *)
let cache_key ~opts ~profile_runs ~profile_config ~mhp ~lockopt ~cache_tag
    (prog : program) : string =
  Ancache.key_of_parts
    [
      Ancache.tool_version;
      Marshal.to_string prog [];
      Marshal.to_string (opts : Instrument.Plan.options) [];
      string_of_int profile_runs;
      Marshal.to_string (profile_config : Interp.Engine.config) [];
      string_of_bool mhp;
      string_of_bool lockopt;
      cache_tag;
    ]

(** Run the full static + profiling pipeline.

    [profile_runs] caps the profiling runs and defaults to 20 (as in
    the paper, Section 7.1); profiling stops earlier once the plan's
    view of the merged profile ({!Instrument.Plan.profile_view}) is
    stable (see {!Profiling.Profile.profile_many});
    [profile_io] supplies per-run input models (profiling inputs should
    differ from evaluation inputs); [opts] selects the optimization set
    (Figure 5's configurations live in {!Instrument.Plan}); [lockopt]
    (default on) elides acquisitions the must-lockset analysis proves
    redundant (see {!Lockopt}); [pool] fans out the profile runs, the
    SCC-scheduled summary computation, the per-object race scans and the
    per-function lockopt dataflow — all observationally identical to the
    serial run.

    [cache] consults/updates a persistent {!Ancache} store keyed on the
    program + options + tool version (+ [cache_tag], which must cover
    any custom [profile_io]); a hit skips every stage. Damaged entries
    fall back to recomputation and are overwritten. [stage_sink] gets a
    [(stage, seconds)] call per timed stage (["pointer"], ["relay"],
    ["mhp"], ["profile"], ["plan"], ["lockopt"]); [cache_log] gets
    one-line diagnostics about cache hits/misses. *)
let analyze ?(opts = Instrument.Plan.all_opts) ?(profile_runs = 20)
    ?(profile_io = default_profile_io)
    ?(profile_config = Interp.Engine.default_config) ?(mhp = true)
    ?(lockopt = true) ?pool ?(cache : Ancache.t option)
    ?(cache_tag = "default") ?(stage_sink : (string -> float -> unit) option)
    ?(cache_log : (string -> unit) option) (prog : program) : analysis =
  let prog = Minic.Typecheck.check prog in
  let log fmt = Fmt.kstr (fun s -> Option.iter (fun k -> k s) cache_log) fmt in
  let key =
    match cache with
    | None -> ""
    | Some _ ->
        cache_key ~opts ~profile_runs ~profile_config ~mhp ~lockopt ~cache_tag
          prog
  in
  let cached : analysis option =
    match cache with
    | None -> None
    | Some c -> (
        match Ancache.find c ~key with
        | Ok payload -> (
            match (Marshal.from_string payload 0 : analysis) with
            | an ->
                log "analysis cache hit (key %s)" key;
                Some an
            (* what [Marshal] raises on a payload that is not a
               marshalled value: a bad header or a truncated body *)
            | exception (Failure _ | Invalid_argument _) ->
                log
                  "warning: analysis cache entry %s undecodable; recomputing"
                  key;
                None)
        | Error Ancache.Absent ->
            log "analysis cache miss (key %s)" key;
            None
        | Error reason ->
            log "warning: analysis cache entry %s: %a; recomputing" key
              Ancache.pp_miss reason;
            None)
  in
  match cached with
  | Some an -> an
  | None ->
      let now = Unix.gettimeofday in
      let emit name dt = Option.iter (fun k -> k name dt) stage_sink in
      let t0 = now () in
      let pa = Pointer.Analysis.run prog in
      emit "pointer" (now () -. t0);
      let t0 = now () in
      let summaries = Relay.Summary.compute ?pool prog pa in
      let t_relay = now () -. t0 in
      let precomputed_mhp =
        if not mhp then None
        else begin
          let t0 = now () in
          let m = Mhp.analyze prog pa summaries.Relay.Summary.cg in
          emit "mhp" (now () -. t0);
          Some m
        end
      in
      let t0 = now () in
      let report = Relay.Detect.detect ~mhp ?precomputed_mhp ?pool summaries in
      emit "relay" (t_relay +. (now () -. t0));
      let t0 = now () in
      let profile =
        Profiling.Profile.profile_many ~config:profile_config ?pool
          ~view:(Instrument.Plan.profile_view opts) ~io_of:profile_io
          ~runs:profile_runs prog
      in
      emit "profile" (now () -. t0);
      let t0 = now () in
      let plan_raw = Instrument.Plan.compute ~opts prog report profile in
      emit "plan" (now () -. t0);
      let t0 = now () in
      let plan, lockopt_report =
        if lockopt then
          Lockopt.optimize ?pool prog plan_raw summaries.Relay.Summary.cg
        else (plan_raw, Lockopt.disabled plan_raw)
      in
      emit "lockopt" (now () -. t0);
      let instrumented = Instrument.Transform.apply prog plan in
      let an =
        {
          an_prog = prog;
          an_summaries = summaries;
          an_report = report;
          an_profile = profile;
          an_plan_raw = plan_raw;
          an_plan = plan;
          an_lockopt = lockopt_report;
          an_instrumented = instrumented;
          an_plan_refined = None;
          an_instr_refined = None;
        }
      in
      (match cache with
      | None -> ()
      | Some c ->
          if not (Ancache.put c ~key (Marshal.to_string an [])) then
            log "warning: could not write analysis cache entry %s" key);
      an

(** Install a corpus-refined plan as the analysis's third plan stage and
    instrument the program under it. Refinement only ever narrows the
    lockopt plan, so the static report and profile stay untouched. *)
let with_refined (an : analysis) (plan : Instrument.Plan.t) : analysis =
  {
    an with
    an_plan_refined = Some plan;
    an_instr_refined = Some (Instrument.Transform.apply an.an_prog plan);
  }

(** Convenience: parse, check, analyze. *)
let analyze_source ?opts ?profile_runs ?profile_io ?profile_config ?mhp
    ?lockopt ?pool ?cache ?cache_tag ?stage_sink ?cache_log ?file src =
  analyze ?opts ?profile_runs ?profile_io ?profile_config ?mhp ?lockopt ?pool
    ?cache ?cache_tag ?stage_sink ?cache_log
    (Minic.Parser.parse ?file src)
