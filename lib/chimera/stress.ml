(** Fleet-mode stress harness: batch recording of a
    (program x seed x strategy) matrix under adversarial schedules,
    content-addressed log dedup, replay validation of every distinct
    recording, and systematic log fault injection.

    The harness asks two questions the single-trial drivers cannot:

    - {e breadth}: does record==replay hold across many seeds and across
      schedule strategies engineered to be hostile (PCT priority
      schedules, weak-timeout storms), not just the default scheduler at
      a handful of seeds?
    - {e robustness}: does a damaged log — truncated at any record
      boundary, or with any byte corrupted — always produce a typed
      {!Replay.Log.Corrupt} rejection or a clean divergence report,
      never a crash, hang, or silent success?

    Everything here is deterministic: jobs are pure functions of their
    (program, seed, strategy) triple, so the matrix report is identical
    at any pool size. *)

open Interp

(* ------------------------------------------------------------------ *)
(* Matrix *)

type prog_spec = {
  sp_name : string;
  sp_instrumented : Minic.Ast.program;
  sp_io : Iomodel.t;
  sp_golden_ticks : int option;
}

type job = {
  jb_prog : prog_spec;
  jb_seed : int;
  jb_strategy : Engine.strategy;
}

let pp_job ppf (j : job) =
  Fmt.pf ppf "%s seed=%d strategy=%s" j.jb_prog.sp_name j.jb_seed
    (Engine.strategy_name j.jb_strategy)

type job_result = {
  jr_job : job;
  jr_digest : string;
  jr_ticks : int;
  jr_recorded : Runner.recorded;
}

type issue =
  | Diverged of job * Runner.divergence
  | Claim_drift of job * Replay.Replayer.claim_mismatch list
  | Stuck of job * string list
  | Golden_mismatch of job * int * int  (** expected, actual ticks *)

let pp_issue ppf = function
  | Diverged (j, d) ->
      Fmt.pf ppf "[%a] replay diverged: %a" pp_job j Runner.pp_divergence d
  | Claim_drift (j, ms) ->
      Fmt.pf ppf "[%a] %d claim mismatch(es); first: %a" pp_job j
        (List.length ms)
        Fmt.(option ~none:(any "?") Replay.Replayer.pp_claim_mismatch)
        (match ms with m :: _ -> Some m | [] -> None)
  | Stuck (j, st) ->
      Fmt.pf ppf "[%a] recording timed out / deadlocked (%d threads stuck)"
        pp_job j (List.length st)
  | Golden_mismatch (j, want, got) ->
      Fmt.pf ppf "[%a] golden ticks mismatch: expected %d, got %d" pp_job j
        want got

type report = {
  rp_jobs : int;      (** matrix size: recordings attempted *)
  rp_distinct : int;  (** distinct logs after content-addressed dedup *)
  rp_replayed : int;  (** distinct logs replayed and checked *)
  rp_results : job_result list;  (** in matrix order *)
  rp_issues : issue list;
}

(** Content address of a recording: the input and order encodings are
    digested separately and hex-concatenated, so two logs whose
    concatenations collide at a section boundary still get distinct
    addresses. *)
let log_digest ~input ~order : string =
  Digest.to_hex (Digest.string input) ^ Digest.to_hex (Digest.string order)

(** The matrix cell pinned by [sp_golden_ticks]: default strategy at
    seed 1, matching the golden-counters generator. *)
let golden_seed = 1

(** [(name, ticks)] rows of a golden-counters table: name is the first
    column, ticks the last; the header row has no integer there. *)
let golden_ticks path : (string * int) list =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let cols = List.filter (( <> ) "") (String.split_on_char ' ' line) in
         match (cols, List.rev cols) with
         | name :: _ :: _, ticks :: _ ->
             Option.map (fun t -> (name, t)) (int_of_string_opt ticks)
         | _ -> None)

let job_config ~cores (j : job) : Engine.config =
  {
    Engine.default_config with
    seed = j.jb_seed;
    cores;
    strategy = j.jb_strategy;
  }

(** Record the full (program x strategy x seed) matrix — concurrently on
    [pool] when given — then dedup the encoded logs by content address
    (per program) and replay each distinct recording once under a
    shifted scheduler seed with the same strategy, checking strong
    observable equality plus the absence of served-claim drift. Jobs
    whose recording times out are reported [Stuck] and not replayed.
    When a program carries [sp_golden_ticks], its default-strategy
    seed-{!golden_seed} cell is additionally pinned to that tick count
    ([cores] must match the golden generator's for the pin to be
    meaningful). *)
let run_matrix ?(pool : Par.Pool.t option) ?(cores = 4)
    ?(replay_seed_delta = 7919) ~(seeds : int list)
    ~(strategies : Engine.strategy list) ~(progs : prog_spec list) () :
    report =
  let jobs =
    List.concat_map
      (fun sp ->
        List.concat_map
          (fun st ->
            List.map
              (fun seed -> { jb_prog = sp; jb_seed = seed; jb_strategy = st })
              seeds)
          strategies)
      progs
  in
  (* phase 1: record everything *)
  let results =
    Par.Pool.map_opt pool
      (fun j ->
        let r =
          Runner.record ~config:(job_config ~cores j) ~io:j.jb_prog.sp_io
            j.jb_prog.sp_instrumented
        in
        {
          jr_job = j;
          jr_digest = log_digest ~input:r.rc_input ~order:r.rc_order;
          jr_ticks = r.rc_outcome.Engine.o_ticks;
          jr_recorded = r;
        })
      jobs
  in
  let stuck, live =
    List.partition (fun jr -> jr.jr_recorded.Runner.rc_outcome.Engine.o_timed_out) results
  in
  (* phase 2: content-addressed dedup, keeping the first job per (program,
     digest) in matrix order *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun jr ->
        let key = jr.jr_job.jb_prog.sp_name ^ "/" ^ jr.jr_digest in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      live
  in
  (* phase 3: replay each distinct recording and check *)
  let replay_issues =
    Par.Pool.map_opt pool
      (fun jr ->
        let j = jr.jr_job in
        let config = job_config ~cores j in
        let o =
          Runner.replay
            ~config:
              { config with Engine.seed = config.Engine.seed + replay_seed_delta }
            ~io:j.jb_prog.sp_io j.jb_prog.sp_instrumented
            jr.jr_recorded.Runner.rc_log
        in
        let div =
          match Runner.same_execution jr.jr_recorded.Runner.rc_outcome o with
          | Ok () -> []
          | Error d -> [ Diverged (j, d) ]
        in
        let drift =
          match o.Engine.o_claim_mismatches with
          | [] -> []
          | ms -> [ Claim_drift (j, ms) ]
        in
        div @ drift)
      distinct
    |> List.concat
  in
  let golden_issues =
    List.filter_map
      (fun jr ->
        let j = jr.jr_job in
        match (j.jb_prog.sp_golden_ticks, j.jb_strategy, j.jb_seed) with
        | Some want, Engine.Sdefault, s
          when s = golden_seed && jr.jr_ticks <> want ->
            Some (Golden_mismatch (j, want, jr.jr_ticks))
        | _ -> None)
      live
  in
  let stuck_issues =
    List.map
      (fun jr ->
        Stuck (jr.jr_job, jr.jr_recorded.Runner.rc_outcome.Engine.o_stuck))
      stuck
  in
  {
    rp_jobs = List.length jobs;
    rp_distinct = List.length distinct;
    rp_replayed = List.length distinct;
    rp_results = results;
    rp_issues = stuck_issues @ golden_issues @ replay_issues;
  }

(* ------------------------------------------------------------------ *)
(* Fault injection *)

(** What a damaged log did. The contract is that only the first three
    may occur: typed rejection at decode, a replay that still matches
    the original execution (possible when the damage lands in bytes the
    replayer never consults), or a clean divergence report. A [Crash] —
    any exception other than {!Replay.Log.Corrupt}, or a replay that
    escapes with an exception — is a harness failure. *)
type fault_outcome =
  | Rejected   (** decode raised typed [Corrupt] *)
  | Benign     (** decoded; replay matched the original *)
  | Divergent  (** decoded; replay reported a divergence or claim drift *)
  | Crash of string  (** untyped exception — contract violation *)

type fault_report = {
  fi_truncations : int;
  fi_flips : int;
  fi_appends : int;
  fi_rejected : int;
  fi_benign : int;
  fi_divergent : int;
  fi_crashes : (string * string) list;
      (** (mutant description, exception) — empty iff the contract holds *)
}

let fault_total (f : fault_report) =
  f.fi_truncations + f.fi_flips + f.fi_appends

(** Evenly sample at most [cap] of [n] candidate indices (all of them
    when [n <= cap]), preserving order. *)
let sample_indices ~cap n =
  if n <= cap then List.init n Fun.id
  else List.init cap (fun i -> i * n / cap)

let flip_masks = [| 0x01; 0x80; 0xFF |]

(** Systematic log damage on one fresh recording of [instrumented]:
    truncate each encoded log at every record boundary (the marked
    offsets of {!Replay.Log.encode_input_log_marked} /
    [encode_order_log_marked], evenly sampled down to
    [max_truncations] per log when there are more), and corrupt single
    bytes at [max_flips] evenly spaced offsets per log, cycling xor
    masks 0x01 / 0x80 / 0xFF. Every mutant is pushed through decode and
    — when decode accepts it — a full replay bounded by a tick budget
    derived from the baseline run, and classified per
    {!fault_outcome}. *)
let fault_injection ?(pool : Par.Pool.t option) ?(max_truncations = 512)
    ?(max_flips = 128) ?(config = Engine.default_config) ~(io : Iomodel.t)
    ~(instrumented : Minic.Ast.program) () : fault_report =
  let baseline = Runner.record ~config ~io instrumented in
  let input_s, input_marks =
    Replay.Log.encode_input_log_marked baseline.rc_log
  in
  let order_s, order_marks =
    Replay.Log.encode_order_log_marked baseline.rc_log
  in
  (* a damaged log must not be able to hang the harness: cap replay at a
     generous multiple of the undamaged run *)
  let budget =
    min config.Engine.max_ticks
      (max 1_000_000 (8 * baseline.rc_outcome.Engine.o_ticks))
  in
  let replay_config = { config with Engine.max_ticks = budget } in
  let classify (input_m : string) (order_m : string) : fault_outcome =
    match Replay.Log.decode input_m order_m with
    | exception Replay.Log.Corrupt _ -> Rejected
    | exception e -> Crash (Printexc.to_string e)
    | mlog -> (
        match Runner.replay ~config:replay_config ~io instrumented mlog with
        | exception e -> Crash (Printexc.to_string e)
        | o -> (
            match Runner.same_execution baseline.rc_outcome o with
            | Ok () when o.Engine.o_claim_mismatches = [] -> Benign
            | Ok () | Error _ -> Divergent))
  in
  let truncs side marks =
    List.map
      (fun i ->
        let off = marks.(i) in
        (Fmt.str "%s truncated at byte %d" side off, side, `Trunc off))
      (sample_indices ~cap:max_truncations (Array.length marks))
  in
  let flips side s =
    let n = String.length s in
    if n = 0 then []
    else
      List.mapi
        (fun k off ->
          let mask = flip_masks.(k mod Array.length flip_masks) in
          ( Fmt.str "%s byte %d xor 0x%02x" side off mask,
            side,
            `Flip (off, mask) ))
        (sample_indices ~cap:(min max_flips n) n)
  in
  (* trailing-garbage mutants: a decoder that stops at the last record it
     understands would accept every one of these — the end-of-input check
     in [Log.decode] must reject them typed *)
  let appends side =
    List.map
      (fun suffix ->
        ( Fmt.str "%s + %d trailing byte(s) (0x%02x..)" side
            (String.length suffix)
            (Char.code suffix.[0]),
          side,
          `Append suffix ))
      [ "\x00"; "\x01"; "\xff"; String.make 64 '\x00' ]
  in
  let mutants =
    truncs "input-log" input_marks
    @ truncs "order-log" order_marks
    @ flips "input-log" input_s
    @ flips "order-log" order_s
    @ appends "input-log"
    @ appends "order-log"
  in
  let n_of p = List.length (List.filter (fun (_, _, m) -> p m) mutants) in
  let n_truncs = n_of (function `Trunc _ -> true | _ -> false) in
  let n_appends = n_of (function `Append _ -> true | _ -> false) in
  let apply side damage =
    let base = if side = "input-log" then input_s else order_s in
    let m =
      match damage with
      | `Trunc off -> String.sub base 0 off
      | `Flip (off, mask) ->
          let b = Bytes.of_string base in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask));
          Bytes.to_string b
      | `Append suffix -> base ^ suffix
    in
    if side = "input-log" then (m, order_s) else (input_s, m)
  in
  let outcomes =
    Par.Pool.map_opt pool
      (fun (what, side, damage) ->
        let input_m, order_m = apply side damage in
        (what, classify input_m order_m))
      mutants
  in
  let count p = List.length (List.filter (fun (_, o) -> p o) outcomes) in
  {
    fi_truncations = n_truncs;
    fi_flips = List.length mutants - n_truncs - n_appends;
    fi_appends = n_appends;
    fi_rejected = count (function Rejected -> true | _ -> false);
    fi_benign = count (function Benign -> true | _ -> false);
    fi_divergent = count (function Divergent -> true | _ -> false);
    fi_crashes =
      List.filter_map
        (fun (what, o) ->
          match o with Crash e -> Some (what, e) | _ -> None)
        outcomes;
  }

let pp_fault_report ppf (f : fault_report) =
  Fmt.pf ppf
    "%d mutants (%d truncations, %d byte flips, %d appends): %d rejected \
     typed, %d benign, %d divergent (reported), %d crashes"
    (fault_total f) f.fi_truncations f.fi_flips f.fi_appends f.fi_rejected
    f.fi_benign f.fi_divergent
    (List.length f.fi_crashes)
