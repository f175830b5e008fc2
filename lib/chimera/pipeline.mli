(** The end-to-end Chimera pipeline (paper Figure 1): source → RELAY →
    profiling → clique + bounds planning → weak-lock instrumentation.
    Execution lives in {!Runner}. *)

type analysis = {
  an_prog : Minic.Ast.program;       (** original, type-checked *)
  an_summaries : Relay.Summary.t;
  an_report : Relay.Detect.report;
  an_profile : Profiling.Profile.t;
  an_plan_raw : Instrument.Plan.t;
      (** plan as computed, before lockopt elision *)
  an_plan : Instrument.Plan.t;  (** plan actually instrumented *)
  an_lockopt : Lockopt.report;
  an_instrumented : Minic.Ast.program;
      (** the data-race-free transformed program *)
  an_plan_refined : Instrument.Plan.t option;
      (** corpus-refined plan (third plan stage beside [an_plan_raw] /
          [an_plan]); [None] until installed with {!with_refined} *)
  an_instr_refined : Minic.Ast.program option;
      (** program instrumented under [an_plan_refined] *)
}

(** Install a corpus-refined plan (see {!Refine} in [chimera.refine])
    as the third plan stage and instrument the program under it. *)
val with_refined : analysis -> Instrument.Plan.t -> analysis

(** The cache key {!analyze} uses for a program under the given options
    (exposed for tests and cache tooling). [cache_tag] must cover any
    non-default [profile_io]. *)
val cache_key :
  opts:Instrument.Plan.options ->
  profile_runs:int ->
  profile_config:Interp.Engine.config ->
  mhp:bool ->
  lockopt:bool ->
  cache_tag:string ->
  Minic.Ast.program ->
  string

(** Run the static + profiling pipeline. [profile_runs] is a maximum,
    default 20 (paper Section 7.1): profiling stops once the plan's view
    of the merged profile ({!Instrument.Plan.profile_view}) has not
    changed for {!Profiling.Profile.stable_runs} runs; [profile_io]
    supplies per-run input models (profiling inputs should differ from
    evaluation inputs); [opts] selects the optimization set (Figure 5's configurations live in
    {!Instrument.Plan}); [mhp] (default on) statically prunes race pairs
    that fork/join ordering serializes (see {!Mhp}); [lockopt] (default
    on) elides acquisitions the interprocedural must-lockset analysis
    proves redundant (see {!Lockopt}); [pool] fans out the profile runs,
    the SCC-scheduled summaries, the per-object race scans and the
    per-function lockopt dataflow (all observationally identical to
    serial).

    [cache] consults/updates a persistent {!Ancache} store: a hit skips
    every stage; damaged entries fall back to recomputation and are
    overwritten; [cache_tag] (default ["default"]) must distinguish any
    custom [profile_io]. [stage_sink] receives [(stage, seconds)] per
    timed stage (["pointer"], ["relay"], ["mhp"], ["profile"], ["plan"],
    ["lockopt"]); [cache_log] receives one-line cache diagnostics. *)
val analyze :
  ?opts:Instrument.Plan.options ->
  ?profile_runs:int ->
  ?profile_io:(int -> Interp.Iomodel.t) ->
  ?profile_config:Interp.Engine.config ->
  ?mhp:bool ->
  ?lockopt:bool ->
  ?pool:Par.Pool.t ->
  ?cache:Ancache.t ->
  ?cache_tag:string ->
  ?stage_sink:(string -> float -> unit) ->
  ?cache_log:(string -> unit) ->
  Minic.Ast.program ->
  analysis

val analyze_source :
  ?opts:Instrument.Plan.options ->
  ?profile_runs:int ->
  ?profile_io:(int -> Interp.Iomodel.t) ->
  ?profile_config:Interp.Engine.config ->
  ?mhp:bool ->
  ?lockopt:bool ->
  ?pool:Par.Pool.t ->
  ?cache:Ancache.t ->
  ?cache_tag:string ->
  ?stage_sink:(string -> float -> unit) ->
  ?cache_log:(string -> unit) ->
  ?file:string ->
  string ->
  analysis
