(** Execution drivers: native / record / replay runs, log-size accounting,
    and the determinism check used throughout the tests and benchmarks.

    Overheads are ratios of simulated makespan (ticks): the paper's
    "recording overhead" is record-run ticks on the {e instrumented}
    program over native ticks on the {e original} program with the same
    inputs and thread count. *)

open Interp

type recorded = {
  rc_outcome : Engine.outcome;
  rc_log : Replay.Log.t;
  rc_input : string;  (** [Replay.Log.encode_input_log rc_log] *)
  rc_order : string;  (** [Replay.Log.encode_order_log rc_log] *)
  rc_input_log_raw : int;     (** bytes before compression *)
  rc_order_log_raw : int;
  rc_input_log_z : int;       (** compressed bytes *)
  rc_order_log_z : int;
}

let native ?(config = Engine.default_config) ?sink ~io prog : Engine.outcome =
  Engine.run ~config ?sink ~mode:Engine.Native ~io prog

let deterministic ?(config = Engine.default_config) ?sink ~io prog :
    Engine.outcome =
  Engine.run ~config ?sink ~mode:Engine.Deterministic ~io prog

let record ?(config = Engine.default_config) ?hooks ?sink ?phases ~io prog :
    recorded =
  let outcome =
    Engine.run ~config ?hooks ?sink ?phases ~mode:Engine.Record ~io prog
  in
  let rc =
    match outcome.Engine.o_recorder with
    | Some rc -> rc
    | None -> invalid_arg "record: engine returned no recorder"
  in
  let log = rc.Replay.Recorder.log in
  let rc_input = Replay.Log.encode_input_log log in
  let rc_order = Replay.Log.encode_order_log log in
  {
    rc_outcome = outcome;
    rc_log = log;
    rc_input;
    rc_order;
    rc_input_log_raw = String.length rc_input;
    rc_order_log_raw = String.length rc_order;
    rc_input_log_z = Zcompress.compressed_size rc_input;
    rc_order_log_z = Zcompress.compressed_size rc_order;
  }

let replay ?(config = Engine.default_config) ?hooks ?sink ~io prog
    (log : Replay.Log.t) : Engine.outcome =
  Engine.run ~config ?hooks ?sink ~mode:(Engine.Replay log) ~io prog

(* ------------------------------------------------------------------ *)
(* Segmented (spilling) recording and streamed / windowed replay *)

type seg_recorded = {
  sr_outcome : Engine.outcome;
  sr_manifest : Replay.Seglog.manifest;
  sr_stats : Replay.Seglog.writer_stats;
  sr_dir : string;
}

let record_segmented ?(config = Engine.default_config) ?hooks ?sink ~io ~dir
    ?(events_per_segment = 4096) ?(checkpoint_every = 1) prog : seg_recorded =
  let w = Replay.Seglog.create_writer ~dir in
  let eng = Engine.make_engine ~config ?hooks ?sink ~mode:Engine.Record ~io prog in
  let rc =
    match eng.Engine.recorder with
    | Some rc -> rc
    | None -> invalid_arg "record_segmented: engine has no recorder"
  in
  let seals = ref 0 in
  let flush ~log ~first_tick ~last_tick ~events =
    (* the digest is taken at the seal instant: a function of the seed,
       inputs and seal point only, so every re-recording pins the same
       digest here *)
    let checkpoint =
      if checkpoint_every > 0 && !seals mod checkpoint_every = 0 then
        Some (Engine.state_digest eng)
      else None
    in
    incr seals;
    Replay.Seglog.append w ?checkpoint ~first_tick ~last_tick ~events log
  in
  Replay.Recorder.set_spill rc ~events_per_segment ~flush;
  let outcome = Engine.run_engine eng in
  Replay.Recorder.finish rc ~now:eng.Engine.ticks;
  let stats = Replay.Seglog.writer_stats w in
  let manifest = Replay.Seglog.close_writer w in
  { sr_outcome = outcome; sr_manifest = manifest; sr_stats = stats; sr_dir = dir }

type streamed_replay = {
  st_outcome : Engine.outcome;
  st_segments_loaded : int;
  st_halted : bool;
  st_digests : (int * string) list;
      (* (segment index, replay-side state digest at its drain),
         oldest first *)
}

let replay_streamed ?(config = Engine.default_config) ?hooks ?sink ~io
    ?upto_tick ~dir prog : streamed_replay =
  let manifest, pull = Replay.Seglog.stream ~dir in
  let r = Replay.Replayer.of_stream pull in
  (match upto_tick with
  | Some upto ->
      Replay.Replayer.set_window r
        ~last_segment:(Replay.Seglog.covering_segment manifest ~upto)
  | None -> ());
  let eng =
    Engine.make_engine ~config ?hooks ?sink ~replayer:r
      ~mode:(Engine.Replay (Replay.Log.create ())) ~io prog
  in
  let digests = ref [] in
  Replay.Replayer.set_on_advance r (fun idx ->
      digests := (idx, Engine.state_digest eng) :: !digests);
  let outcome = Engine.run_engine eng in
  {
    st_outcome = outcome;
    st_segments_loaded = Replay.Replayer.segments_loaded r;
    st_halted = Replay.Replayer.halted r;
    st_digests = List.rev !digests;
  }

(* ------------------------------------------------------------------ *)
(* Determinism comparison *)

type divergence =
  | Outputs of (Runtime.Key.tid_path * int) list * (Runtime.Key.tid_path * int) list
  | Final_state of int * int
  | Steps of (Runtime.Key.tid_path * int) list * (Runtime.Key.tid_path * int) list
  | Faults of (Runtime.Key.tid_path * string) list * (Runtime.Key.tid_path * string) list
  | Timed_out

let pp_divergence ppf = function
  | Outputs (a, b) ->
      Fmt.pf ppf "outputs differ: [%a] vs [%a]"
        Fmt.(list ~sep:comma int)
        (List.map snd a)
        Fmt.(list ~sep:comma int)
        (List.map snd b)
  | Final_state (a, b) -> Fmt.pf ppf "final memory differs: %d vs %d" a b
  | Steps (a, b) ->
      Fmt.pf ppf "per-thread step counts differ: [%a] vs [%a]"
        Fmt.(list ~sep:comma int)
        (List.map snd a)
        Fmt.(list ~sep:comma int)
        (List.map snd b)
  | Faults (a, b) ->
      Fmt.pf ppf "faults differ: %d vs %d" (List.length a) (List.length b)
  | Timed_out -> Fmt.string ppf "a run timed out / deadlocked"

(** Is [b] the same execution as [a]? Compares the output trace, the
    final shared-memory hash, per-thread instruction counts, and faults —
    the strongest observable-equality check the simulator offers. *)
let same_execution (a : Engine.outcome) (b : Engine.outcome) :
    (unit, divergence) result =
  if a.o_timed_out || b.o_timed_out then Error Timed_out
  else if a.o_outputs <> b.o_outputs then Error (Outputs (a.o_outputs, b.o_outputs))
  else if a.o_faults <> b.o_faults then Error (Faults (a.o_faults, b.o_faults))
  else if a.o_final_hash <> b.o_final_hash then
    Error (Final_state (a.o_final_hash, b.o_final_hash))
  else if a.o_steps <> b.o_steps then Error (Steps (a.o_steps, b.o_steps))
  else Ok ()

(** Record the instrumented program with [record_seed], then replay it
    under a different scheduler seed and check the executions match. *)
let record_replay_check ?(config = Engine.default_config) ~io
    ?(replay_seed_delta = 7919) (instrumented : Minic.Ast.program) :
    (recorded * Engine.outcome, divergence) result =
  let r = record ~config ~io instrumented in
  let replay_config =
    { config with Engine.seed = config.Engine.seed + replay_seed_delta }
  in
  let o = replay ~config:replay_config ~io instrumented r.rc_log in
  match same_execution r.rc_outcome o with
  | Ok () -> Ok (r, o)
  | Error d -> Error d

(* ------------------------------------------------------------------ *)
(* Replay-divergence diagnosis *)

(** When a replay of [log] diverges from what [config] records, locate
    the first diverging trace event: re-record with tracing on (the
    ground truth this configuration produces), replay [log] traced, and
    diff the stable per-thread streams. [None] means the streams agree —
    the divergence, if any, is data-only (same control flow and
    synchronization, different values). *)
let first_trace_divergence ?(config = Engine.default_config)
    ?(replay_seed_delta = 7919) ~io (instrumented : Minic.Ast.program)
    (log : Replay.Log.t) : Trace.divergence option =
  let rec_sink = Trace.Sink.create () in
  ignore (record ~config ~sink:rec_sink ~io instrumented);
  let rep_sink = Trace.Sink.create () in
  let replay_config =
    { config with Engine.seed = config.Engine.seed + replay_seed_delta }
  in
  ignore (replay ~config:replay_config ~sink:rep_sink ~io instrumented log);
  Trace.first_divergence
    ~recorded:(Trace.Sink.events rec_sink)
    ~replayed:(Trace.Sink.events rep_sink)

(* ------------------------------------------------------------------ *)
(* Overhead measurement *)

type overhead = {
  ov_native_ticks : int;
  ov_record_ticks : int;
  ov_replay_ticks : int;
  ov_record : float;  (** record / native *)
  ov_replay : float;
}

(** One full trial — native run of [original], record + replay of
    [instrumented] (replay under a shifted scheduler seed) — plus the
    divergence check. Each trial builds its own engines, io models come in
    per-trial, and nothing is shared, so trials are safe to run on
    separate domains. *)
type trial = {
  tr_native : Engine.outcome;
  tr_recorded : recorded;
  tr_replay : Engine.outcome;
}

(** A diverged trial, with everything needed to reproduce it from the
    message alone: the trial index, the exact scheduler seed and
    strategy it recorded under, the outcome-level divergence, and (when
    the trace diff localizes one) the first diverging event. *)
type trial_failure = {
  tf_trial : int;
  tf_seed : int;
  tf_strategy : Engine.strategy;
  tf_divergence : divergence;
  tf_first_event : Trace.divergence option;
}

exception Trial_diverged of trial_failure

let pp_trial_failure ppf (tf : trial_failure) =
  Fmt.pf ppf
    "trial %d (seed %d, strategy %s): replay diverged: %a; first diverging \
     event: %a"
    tf.tf_trial tf.tf_seed
    (Engine.strategy_name tf.tf_strategy)
    pp_divergence tf.tf_divergence
    Fmt.(option ~none:(any "none (data-only)") Trace.pp_divergence)
    tf.tf_first_event

let () =
  Printexc.register_printer (function
    | Trial_diverged tf -> Some (Fmt.str "Trial_diverged: %a" pp_trial_failure tf)
    | _ -> None)

(** Run [trials] independent trials, concurrently when [pool] is given.
    [config_of t] and [io_of t] (t = 1..trials) fix each trial's scheduler
    seed and inputs, so every trial's result is a function of its index
    alone: the returned list (in trial order) is identical however the
    trials are scheduled. Raises [Trial_diverged] — carrying the trial
    index, seed, strategy, and first diverging trace event — if any
    trial's replay diverges from its recording. *)
let run_trials ?(pool : Par.Pool.t option) ?(replay_seed_delta = 7919)
    ~trials ~(config_of : int -> Engine.config) ~(io_of : int -> Iomodel.t)
    ~(original : Minic.Ast.program) ~(instrumented : Minic.Ast.program) () :
    trial list =
  let one t =
    let config = config_of t in
    let io = io_of t in
    let nat = native ~config ~io original in
    let r = record ~config ~io instrumented in
    let rp =
      replay
        ~config:{ config with Engine.seed = config.Engine.seed + replay_seed_delta }
        ~io instrumented r.rc_log
    in
    (match same_execution r.rc_outcome rp with
    | Ok () -> ()
    | Error d ->
        (* the trace diff re-records, so pay for it only on failure *)
        let first =
          first_trace_divergence ~config ~replay_seed_delta ~io instrumented
            r.rc_log
        in
        raise
          (Trial_diverged
             {
               tf_trial = t;
               tf_seed = config.Engine.seed;
               tf_strategy = config.Engine.strategy;
               tf_divergence = d;
               tf_first_event = first;
             }));
    { tr_native = nat; tr_recorded = r; tr_replay = rp }
  in
  let indices = List.init trials (fun t -> t + 1) in
  match pool with
  | Some p when Par.Pool.size p > 1 -> Par.Pool.map_list p one indices
  | _ -> List.map one indices

(** Measure recording and replay overhead of [instrumented] against the
    native run of [original], with identical inputs and configuration. *)
let measure ?(config = Engine.default_config) ~io
    ~(original : Minic.Ast.program) ~(instrumented : Minic.Ast.program) () :
    overhead * recorded =
  let n = native ~config ~io original in
  let r = record ~config ~io instrumented in
  let rp = replay ~config ~io instrumented r.rc_log in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  ( {
      ov_native_ticks = n.o_ticks;
      ov_record_ticks = r.rc_outcome.o_ticks;
      ov_replay_ticks = rp.o_ticks;
      ov_record = ratio r.rc_outcome.o_ticks n.o_ticks;
      ov_replay = ratio rp.o_ticks n.o_ticks;
    },
    r )
