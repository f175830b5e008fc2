(** Execution drivers: native / record / replay runs, log-size
    accounting, determinism checking, and overhead measurement
    (record-run ticks on the instrumented program over native ticks on
    the original, with identical inputs). *)

open Interp

type recorded = {
  rc_outcome : Engine.outcome;
  rc_log : Replay.Log.t;
  rc_input : string;  (** [Replay.Log.encode_input_log rc_log], encoded once *)
  rc_order : string;  (** [Replay.Log.encode_order_log rc_log], likewise *)
  rc_input_log_raw : int;
  rc_order_log_raw : int;
  rc_input_log_z : int;   (** compressed bytes *)
  rc_order_log_z : int;
}

(** All drivers accept an optional trace [sink] (see {!Trace}); events
    are emitted into it as the run executes, with zero effect on the
    simulated execution. *)

val native :
  ?config:Engine.config ->
  ?sink:Trace.Sink.t ->
  io:Iomodel.t ->
  Minic.Ast.program ->
  Engine.outcome

(** Run under deterministic (Kendo-style logical-time) arbitration: on a
    Chimera-transformed (hence data-race-free) program the outcome —
    outputs, final memory, per-thread instruction counts — is identical
    for every scheduler seed, with no recording (the paper's future-work
    direction; see DESIGN.md). *)
val deterministic :
  ?config:Engine.config ->
  ?sink:Trace.Sink.t ->
  io:Iomodel.t ->
  Minic.Ast.program ->
  Engine.outcome

(** [phases], when given, receives the record run's per-phase wall-clock
    attribution (interpreter / recorder / scheduler / weak-lock
    admission); see {!Interp.Phases}. Attribution never affects the
    simulated execution. *)
val record :
  ?config:Engine.config ->
  ?hooks:Engine.hooks ->
  ?sink:Trace.Sink.t ->
  ?phases:Phases.t ->
  io:Iomodel.t ->
  Minic.Ast.program ->
  recorded

val replay :
  ?config:Engine.config ->
  ?hooks:Engine.hooks ->
  ?sink:Trace.Sink.t ->
  io:Iomodel.t ->
  Minic.Ast.program ->
  Replay.Log.t ->
  Engine.outcome

type seg_recorded = {
  sr_outcome : Engine.outcome;
  sr_manifest : Replay.Seglog.manifest;
  sr_stats : Replay.Seglog.writer_stats;
  sr_dir : string;
}

(** Record with a segmented, spilling log: the recorder seals the open
    segment every [events_per_segment] gated events and spills it —
    compressed and checksummed — to [dir] (see {!Replay.Seglog}), so the
    resident log never exceeds one segment
    ({!Replay.Seglog.writer_stats.ws_peak_raw}). Every
    [checkpoint_every]-th seal also pins a checkpoint: the engine state
    digest at the seal, stored in the manifest, which re-recordings of
    the same seed and inputs reproduce; [checkpoint_every = 0] disables
    checkpoints. Spilling charges no simulated ticks and seal points
    depend only on the recorded event counts, so the execution — ticks,
    outputs, golden counters — is identical to a monolithic recording. *)
val record_segmented :
  ?config:Engine.config ->
  ?hooks:Engine.hooks ->
  ?sink:Trace.Sink.t ->
  io:Iomodel.t ->
  dir:string ->
  ?events_per_segment:int ->
  ?checkpoint_every:int ->
  Minic.Ast.program ->
  seg_recorded

type streamed_replay = {
  st_outcome : Engine.outcome;
  st_segments_loaded : int;
  st_halted : bool;  (** window bound reached (windowed replays only) *)
  st_digests : (int * string) list;
      (** (segment index, engine state digest at that segment's drain),
          oldest first — the replay-side pins a windowed replay's halt
          digest is compared against *)
}

(** Stream a segmented recording out of [dir] and replay it. Without
    [upto_tick] the whole log is replayed (equivalent to a monolithic
    replay of the concatenated segments). With [upto_tick] the replay is
    windowed: it streams from tick 0 but halts cleanly once the last
    segment covering that tick has drained, never reading the later
    segment files. A windowed replay's halt digest equals the full
    replay's digest at the same segment drain under the same seed. It
    is not the recorder's checkpoint digest for that seal: the replay
    runs under its own seed, so its ticks, rng and step counts at the
    drain differ from the recording's.
    @raise Replay.Log.Corrupt on any manifest / segment corruption. *)
val replay_streamed :
  ?config:Engine.config ->
  ?hooks:Engine.hooks ->
  ?sink:Trace.Sink.t ->
  io:Iomodel.t ->
  ?upto_tick:int ->
  dir:string ->
  Minic.Ast.program ->
  streamed_replay

type divergence =
  | Outputs of
      (Runtime.Key.tid_path * int) list * (Runtime.Key.tid_path * int) list
  | Final_state of int * int
  | Steps of
      (Runtime.Key.tid_path * int) list * (Runtime.Key.tid_path * int) list
  | Faults of
      (Runtime.Key.tid_path * string) list
      * (Runtime.Key.tid_path * string) list
  | Timed_out

val pp_divergence : divergence Fmt.t

(** Strong observable equality: output trace, faults, final
    shared-memory hash, per-thread instruction counts. *)
val same_execution :
  Engine.outcome -> Engine.outcome -> (unit, divergence) result

(** Record, then replay under a different scheduler seed, and compare. *)
val record_replay_check :
  ?config:Engine.config ->
  io:Iomodel.t ->
  ?replay_seed_delta:int ->
  Minic.Ast.program ->
  (recorded * Engine.outcome, divergence) result

(** Replay-divergence diagnostic: re-record [instrumented] with tracing
    on, replay [log] traced under a shifted seed, and diff the stable
    per-thread event streams. [Some d] names the first diverging event
    with thread/step/lock context; [None] means the streams agree (no
    divergence, or a data-only one). *)
val first_trace_divergence :
  ?config:Engine.config ->
  ?replay_seed_delta:int ->
  io:Iomodel.t ->
  Minic.Ast.program ->
  Replay.Log.t ->
  Trace.divergence option

(** One native + record + replay trial (replay already checked against
    the recording). *)
type trial = {
  tr_native : Engine.outcome;
  tr_recorded : recorded;
  tr_replay : Engine.outcome;
}

type trial_failure = {
  tf_trial : int;
  tf_seed : int;
  tf_strategy : Engine.strategy;
  tf_divergence : divergence;
  tf_first_event : Trace.divergence option;
}
(** A diverged trial: index, scheduler seed, strategy, outcome-level
    divergence, and the first diverging trace event when one exists —
    enough to reproduce the failure from the message alone. *)

exception Trial_diverged of trial_failure

val pp_trial_failure : trial_failure Fmt.t

(** [run_trials ~trials ~config_of ~io_of ~original ~instrumented ()]
    runs [trials] independent native/record/replay trials — concurrently
    across [pool]'s domains when given — returning them in trial order
    (1..trials). Each trial is a pure function of its index, so the
    result list is schedule-independent. Raises [Trial_diverged] on
    replay divergence. *)
val run_trials :
  ?pool:Par.Pool.t ->
  ?replay_seed_delta:int ->
  trials:int ->
  config_of:(int -> Engine.config) ->
  io_of:(int -> Iomodel.t) ->
  original:Minic.Ast.program ->
  instrumented:Minic.Ast.program ->
  unit ->
  trial list

type overhead = {
  ov_native_ticks : int;
  ov_record_ticks : int;
  ov_replay_ticks : int;
  ov_record : float;
  ov_replay : float;
}

val measure :
  ?config:Engine.config ->
  io:Iomodel.t ->
  original:Minic.Ast.program ->
  instrumented:Minic.Ast.program ->
  unit ->
  overhead * recorded
