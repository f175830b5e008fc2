(** Fleet-mode stress harness: batch recording of a
    (program x seed x strategy) matrix, content-addressed log dedup,
    replay validation of every distinct recording, and systematic log
    fault injection (truncation at every record boundary + byte
    corruption sweeps).

    Matrix contract: every distinct recording replays to the same
    execution with no served-claim drift; default-strategy seed-1 cells
    may additionally be pinned to golden tick counts.

    Fault contract: every damaged log yields a typed
    {!Replay.Log.Corrupt} rejection, a benign replay, or a clean
    divergence report — never a crash or a hang. *)

open Interp

(* ------------------------------------------------------------------ *)
(* Matrix *)

type prog_spec = {
  sp_name : string;
  sp_instrumented : Minic.Ast.program;
  sp_io : Iomodel.t;
  sp_golden_ticks : int option;
      (** expected record ticks for the default-strategy
          seed-{!golden_seed} cell, if pinned *)
}

type job = {
  jb_prog : prog_spec;
  jb_seed : int;
  jb_strategy : Engine.strategy;
}

val pp_job : job Fmt.t

type job_result = {
  jr_job : job;
  jr_digest : string;  (** content address of the encoded log pair *)
  jr_ticks : int;      (** record-run ticks *)
  jr_recorded : Runner.recorded;
}

type issue =
  | Diverged of job * Runner.divergence
  | Claim_drift of job * Replay.Replayer.claim_mismatch list
  | Stuck of job * string list
  | Golden_mismatch of job * int * int  (** expected, actual ticks *)

val pp_issue : issue Fmt.t

type report = {
  rp_jobs : int;      (** matrix size: recordings attempted *)
  rp_distinct : int;  (** distinct logs after content-addressed dedup *)
  rp_replayed : int;  (** distinct logs replayed and checked *)
  rp_results : job_result list;  (** in matrix order *)
  rp_issues : issue list;  (** empty iff the matrix is clean *)
}

val log_digest : input:string -> order:string -> string
(** Content address of a recording from its encoded input and order logs
    ([rc_input]/[rc_order], or the log files): their MD5s, hex-concatenated. *)

val golden_seed : int
(** The seed of the matrix cell [sp_golden_ticks] pins (1, matching the
    golden-counters generator). *)

val golden_ticks : string -> (string * int) list
(** [golden_ticks path]: the [(benchmark, record ticks)] rows of a
    golden-counters table such as [test/golden/golden_counters.expected]
    (space-separated columns, name first, ticks last; the header row is
    skipped), in file order.
    @raise Sys_error when [path] cannot be read. *)

val run_matrix :
  ?pool:Par.Pool.t ->
  ?cores:int ->
  ?replay_seed_delta:int ->
  seeds:int list ->
  strategies:Engine.strategy list ->
  progs:prog_spec list ->
  unit ->
  report
(** Record the full matrix (concurrently on [pool] when given), dedup
    the logs by content address per program, replay each distinct
    recording once under a shifted seed with the same strategy, and
    collect issues. Deterministic at any pool size. *)

(* ------------------------------------------------------------------ *)
(* Fault injection *)

type fault_outcome =
  | Rejected   (** decode raised typed [Corrupt] *)
  | Benign     (** decoded; replay matched the original *)
  | Divergent  (** decoded; replay reported a divergence or claim drift *)
  | Crash of string  (** untyped exception — contract violation *)

type fault_report = {
  fi_truncations : int;
  fi_flips : int;
  fi_appends : int;  (** trailing-garbage mutants *)
  fi_rejected : int;
  fi_benign : int;
  fi_divergent : int;
  fi_crashes : (string * string) list;
      (** (mutant description, exception) — empty iff the contract
          holds *)
}

val fault_total : fault_report -> int

val fault_injection :
  ?pool:Par.Pool.t ->
  ?max_truncations:int ->
  ?max_flips:int ->
  ?config:Engine.config ->
  io:Iomodel.t ->
  instrumented:Minic.Ast.program ->
  unit ->
  fault_report
(** Record [instrumented] once, then damage the encoded logs
    systematically: truncate at every record boundary (evenly sampled
    down to [max_truncations] per log), xor single bytes at [max_flips]
    evenly spaced offsets per log (masks 0x01/0x80/0xFF), and append
    trailing garbage (1 and 64 bytes, several leading values) to each
    log — the mutants a decoder without an end-of-input check would
    silently accept. Each mutant is decoded and, when accepted, replayed
    under a tick budget derived from the baseline run, then
    classified. *)

val pp_fault_report : fault_report Fmt.t
