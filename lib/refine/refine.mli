(** Corpus-driven plan refinement: close the static → dynamic → static
    loop. Replay every distinct recording of a stress corpus with the
    vector-clock detector attached ({!Dynrace}, weak locks {e not}
    counted as synchronization, so races surface exactly where weak
    locks are load-bearing), aggregate per-static-pair evidence, and
    drop the weak locks guarding pairs proven never-racy above a
    coverage threshold.

    The evidence lattice per kept static pair is

    {v unexercised  <  exercised-never-racy  <  witnessed v}

    and only the middle point, at or above [min_coverage] distinct
    recordings, permits a drop. Refinement narrows {e instrumentation},
    never {e detection}: dropped pairs stay in the RELAY report, and
    {!validate} re-records the corpus cells under the refined plan with
    weak locks counted as synchronization — any dynamic race at all is a
    typed violation (an uncovered one breaks the static soundness floor;
    a covered one means a dropped lock was load-bearing). *)

open Interp

(* ------------------------------------------------------------------ *)
(* Corpus manifest *)

module Corpus : sig
  exception Bad of string
  (** Raised on a missing, malformed, or inconsistent manifest. *)

  type recording = {
    cr_seed : int;
    cr_strategy : Engine.strategy;
    cr_digest : string;  (** {!Chimera.Stress.log_digest} content address *)
    cr_ticks : int;      (** record-run ticks *)
    cr_input : string;   (** input-log path, relative to the corpus dir *)
    cr_order : string;   (** order-log path, relative to the corpus dir *)
  }

  type kind = Kbench | Ksrc

  type entry = {
    ce_name : string;
    ce_kind : kind;
    ce_source : string option;  (** source path for {!Ksrc} entries *)
    ce_io_seed : int;           (** input-model seed ({!Ksrc} entries) *)
    ce_cores : int;
    ce_plan_digest : string;
        (** {!plan_digest} of the plan the corpus was recorded under —
            refine rejects a corpus whose plan no longer matches *)
    ce_recordings : recording list;  (** distinct recordings, matrix order *)
  }

  type t = { co_dir : string; co_entries : entry list }

  val manifest : string
  (** Manifest file name within the corpus dir ([corpus.json]). *)

  val save : t -> unit
  (** Write [co_dir ^ "/" ^ manifest] (the log files are written by
      {!of_stress}), one compact {!Bjson} document. *)

  val load : dir:string -> t
  (** @raise Bad on a missing or malformed manifest. *)

  val load_log : t -> entry -> recording -> Replay.Log.t
  (** Decode one recording's log pair, re-checking its content address.
      @raise Bad on a missing file, digest drift, or corrupt log. *)

  val of_stress :
    dir:string ->
    cores:int ->
    meta:(string * (kind * string option * int * string)) list ->
    Chimera.Stress.report ->
    t
  (** Build a corpus from a stress report: dedup the live recordings by
      content address per program (first cell per digest in matrix
      order), write each distinct log pair under [dir], and return the
      manifest. [meta] maps program name to
      [(kind, source, io_seed, plan_digest)]. *)
end

(* ------------------------------------------------------------------ *)
(* Evidence *)

type witness = {
  wt_sid1 : int;
  wt_sid2 : int;       (** the dynamically racing sids *)
  wt_addr : string;    (** pretty-printed raced-on address *)
  wt_seed : int;       (** recording that exposed the race *)
  wt_strategy : string;
  wt_exact : bool;
      (** the racing sids are exactly the pair's sids (false: the race
          touches one side only — still disqualifying) *)
}

type pair_evidence = {
  pe_runs : int;     (** distinct recordings replayed *)
  pe_both : int;     (** recordings in which both sids executed *)
  pe_overlap : int;  (** recordings where the sids touched a common address *)
  pe_witness : witness option;
}

(** One detector replay of one distinct recording. *)
type observation = {
  ob_seed : int;
  ob_strategy : Engine.strategy;
  ob_races : Dynrace.race list;
  ob_reached : (int, unit) Hashtbl.t;  (** racy sids that executed *)
  ob_addrs : (int, (Runtime.Key.addr, unit) Hashtbl.t) Hashtbl.t;
      (** racy sid → addresses it touched *)
  ob_checks : int;  (** detector memory operations examined *)
}

val observe :
  config:Engine.config ->
  io:Iomodel.t ->
  instrumented:Minic.Ast.program ->
  racy_sids:(int, unit) Hashtbl.t ->
  seed:int ->
  strategy:Engine.strategy ->
  Replay.Log.t ->
  observation
(** Replay one recording with the detector attached ([track_weak:false])
    plus a coverage probe over [racy_sids]. [config] should carry the
    recording's cores and strategy; its seed is free (replay is gated by
    the log). *)

val observe_recordings :
  ?pool:Par.Pool.t ->
  ?replay_seed_delta:int ->
  cores:int ->
  io:Iomodel.t ->
  instrumented:Minic.Ast.program ->
  racy_sids:(int, unit) Hashtbl.t ->
  ((int * Engine.strategy) * Replay.Log.t) list ->
  observation list
(** Fan {!observe} over already-deduped recordings (concurrently on
    [pool] when given; output identical at any pool size). *)

val corpus_observations :
  ?pool:Par.Pool.t ->
  ?replay_seed_delta:int ->
  cores:int ->
  io:Iomodel.t ->
  instrumented:Minic.Ast.program ->
  racy_sids:(int, unit) Hashtbl.t ->
  jobs:(int * Engine.strategy) list ->
  unit ->
  observation list
(** Record every [(seed, strategy)] cell, dedup by content address, and
    {!observe} each distinct recording — the in-memory corpus used by
    the bench harness and the golden-counters generator. *)

val observe_corpus :
  ?pool:Par.Pool.t ->
  ?replay_seed_delta:int ->
  io:Iomodel.t ->
  instrumented:Minic.Ast.program ->
  racy_sids:(int, unit) Hashtbl.t ->
  Corpus.t ->
  Corpus.entry ->
  observation list
(** {!observe} every recording of an on-disk corpus entry.
    @raise Corpus.Bad on log damage or digest drift. *)

(* ------------------------------------------------------------------ *)
(* Refinement *)

(** Per-pair provenance, in the style of [--explain-races] /
    [--explain-plan]. *)
type prov =
  | Dropped_never_racy
      (** exercised at or above the coverage threshold, never racy; its
          lock is dropped *)
  | Kept_witnessed  (** a dynamic race touched the pair — fast path *)
  | Kept_unexercised  (** coverage below the threshold *)
  | Kept_shared
      (** never-racy with enough coverage, but its lock also guards a
          pair that must stay *)

val prov_name : prov -> string
(** [kept] / [dropped:never-racy] / [kept:unexercised] /
    [kept:witnessed]. *)

type pair_result = {
  pr_decision : Instrument.Plan.pair_decision;
  pr_evidence : pair_evidence;
  pr_prov : prov;
}

val pp_pair_result : pair_result Fmt.t

type t = {
  rf_pairs : pair_result list;  (** in [pl_decisions] order *)
  rf_dropped : Minic.Ast.weak_lock list;  (** sorted *)
  rf_plan : Instrument.Plan.t;  (** refined plan *)
  rf_min_coverage : int;
  rf_base_acqs : int;     (** static acquisitions before refinement *)
  rf_refined_acqs : int;  (** static acquisitions after *)
}

val refine :
  ?min_coverage:int ->
  plan:Instrument.Plan.t ->
  observation list ->
  t
(** Aggregate evidence and drop every weak lock all of whose guarded
    pairs are exercised-never-racy at [min_coverage] (default 2) or more
    distinct recordings. A witnessed pair pins its lock regardless of
    coverage. *)

val pp_summary : t Fmt.t

(* ------------------------------------------------------------------ *)
(* Deployment plans *)

val plan_digest : Instrument.Plan.t -> string
(** Order-independent content address of a plan's region tables. *)

exception Bad_plan of string
(** Raised when a deployment file is unreadable or malformed. *)

type deployment = {
  dp_program : string;
  dp_plan_digest : string;  (** digest of the base plan refined from *)
  dp_min_coverage : int;
  dp_dropped : Minic.Ast.weak_lock list;
  dp_pairs : (int * int * string) list;  (** (sid1, sid2, provenance) *)
}

val deployment_of : program:string -> base:Instrument.Plan.t -> t -> deployment

val deployment_json : deployment -> string
(** Schema [chimera-refined-plan/1]: one compact {!Bjson} document and a
    trailing newline. *)

val deployment_of_json : string -> deployment
(** @raise Bad_plan on malformed input. *)

val load_deployment : string -> deployment
(** Read and parse a deployment file. @raise Bad_plan. *)

type deploy_error =
  | Digest_mismatch of { de_expected : string; de_got : string }
      (** the deployment refines a different plan than the one computed *)
  | Unknown_lock of Minic.Ast.weak_lock
      (** a dropped lock does not exist in the base plan *)

val pp_deploy_error : deploy_error Fmt.t

val apply_deployment :
  plan:Instrument.Plan.t -> deployment -> (Instrument.Plan.t, deploy_error) result
(** Re-derive the refined plan from a deployment: check the plan digest,
    then drop the listed locks. *)

(* ------------------------------------------------------------------ *)
(* Safety valve *)

type violation =
  | Uncovered of { vu_seed : int; vu_strategy : string; vu_race : Dynrace.race }
      (** a dynamic race under the refined plan is not statically
          covered — the soundness floor is broken *)
  | Reintroduced of {
      vr_seed : int;
      vr_strategy : string;
      vr_race : Dynrace.race;
    }
      (** a statically covered race became dynamic: a dropped lock was
          load-bearing *)
  | Diverged of { vd_seed : int; vd_strategy : string; vd_div : Chimera.Runner.divergence }
      (** record/replay broke under the refined plan *)

val pp_violation : violation Fmt.t

type validation = {
  va_jobs : int;           (** corpus cells re-recorded *)
  va_races_checked : int;  (** dynamic races examined *)
  va_violations : violation list;  (** empty iff the refined plan is safe *)
}

val validate :
  ?pool:Par.Pool.t ->
  ?replay_seed_delta:int ->
  cores:int ->
  io:Iomodel.t ->
  report:Relay.Detect.report ->
  refined:Minic.Ast.program ->
  jobs:(int * Engine.strategy) list ->
  unit ->
  validation
(** Re-record every corpus cell under the refined instrumentation with
    the detector attached ([track_weak:true] — weak locks count as
    synchronization, so a race-free result means the refined program
    still deterministically replays), classify every dynamic race, and
    check record==replay per cell. *)

val runtime_weak_acqs : Engine.outcome -> int
(** Runtime weak-lock acquisitions of a run, summed over granularities. *)
