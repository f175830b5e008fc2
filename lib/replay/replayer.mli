(** The replayer: cursors over a {!Log.t} the engine consults to gate
    execution. Data accesses are never gated — the instrumented program
    is race-free under its (weak-)lock synchronization, so the recorded
    orders of inputs, sync operations, and conflicting weak-lock
    acquisitions determine the execution. *)

open Runtime

type t

val of_log : Log.t -> t

(** Streaming replay over a sequence of segment logs (see {!Seglog}):
    [pull] yields the next segment, oldest first, [None] at the end.
    Only the current segment's cursors are resident; threads whose next
    event is missing from the current segment block until it drains, and
    the "beyond the log: unconstrained" escape applies only on the last
    segment. [of_log] is the one-segment special case. *)
val of_stream : (unit -> Log.t option) -> t

(** Gated events in one log: syscall-order entries, input bursts, sync
    ops, weak acquisitions and forced events — what a replay of it
    consumes. *)
val gated_events : Log.t -> int

(** Is execution past the recording unconstrained — on the final
    segment and not halted? The engine's gates consult this instead of
    treating every missing entry as end-of-log. *)
val unconstrained : t -> bool

(** Windowed replay: stop once [last_segment] (0-based) drains. Once
    halted, no further segment loads, every gate blocks, and the engine
    exits its run loop cleanly. *)
val set_window : t -> last_segment:int -> unit

(** Has a {!set_window} bound been reached? *)
val halted : t -> bool

(** [f idx] fires the moment segment [idx] drains, before the next
    segment loads — an engine state digest captured here is comparable
    across full and windowed replays of the same recording. *)
val set_on_advance : t -> (int -> unit) -> unit

val segment_index : t -> int
(** Current (0-based) segment position of the stream. *)

val segments_loaded : t -> int
(** Segments pulled so far — a windowed replay of segments [0..m] loads
    exactly [m+1]. *)

val consumed_events : t -> int
(** Gated events consumed so far over the whole stream. It only grows,
    so a change between two reads means replay made progress. It also
    versions the gating queries: {!peek_syscall}, {!peek_sync},
    {!weak_turn} and {!unconstrained} can change their answer only when
    it moves, since every change of a cursor or of the current segment
    happens as an event is consumed. *)

(** Whose syscall comes next, globally? [None] past the end of the log
    (unconstrained). *)
val peek_syscall : t -> Key.tid_path option

val advance_syscall : t -> unit

val peek_sync : t -> Key.addr -> (Log.sync_op * Key.tid_path) option
val advance_sync : t -> Key.addr -> unit

(** May the thread perform its next recorded acquisition of the lock?
    True when no earlier unconsumed acquisition of the same lock
    conflicts with the thread's next recorded claim (disjoint-range
    holders legitimately overlap), or when the thread has no entry
    left. *)
val weak_turn : t -> Minic.Ast.weak_lock -> tp:Key.tid_path -> bool

type claim_mismatch = {
  cm_lock : Minic.Ast.weak_lock;
  cm_tp : Key.tid_path;
  cm_index : int;  (** position in the lock's recorded acquisition order *)
  cm_recorded : Log.sclaim;
  cm_served : Log.sclaim;
}
(** A served acquisition whose claim differs from the recorded one —
    instrumentation drift between the recording and replaying binaries. *)

(** Consume the thread's earliest remaining acquisition entry. [claim],
    when given, is the claim actually being served; it is validated
    against the recorded claim and any difference accumulates as a
    {!claim_mismatch} (replay proceeds regardless). *)
val consume_weak :
  t -> Minic.Ast.weak_lock -> tp:Key.tid_path -> ?claim:Log.sclaim -> unit ->
  unit

(** Mismatches accumulated so far, in consumption order. *)
val claim_mismatches : t -> claim_mismatch list

val pp_claim_mismatch : claim_mismatch Fmt.t

(** Pop the next recorded input burst for the thread. *)
val take_input : t -> Key.tid_path -> int list option

(** Forced release due for the owner at (or before) the given step and
    weak-acquisition counts; consumed only when [holds lock] — the owner
    may not have reacquired yet when the threshold is first crossed. *)
val pending_forced :
  t ->
  Key.tid_path ->
  steps:int ->
  acqs:int ->
  holds:(Minic.Ast.weak_lock -> bool) ->
  Minic.Ast.weak_lock option

(** Whether any forced-release event is still pending in the current
    segment, for any owner. Never consumes, and reads one counter — an
    emptiness probe for gating the engine's per-step {!pending_forced}
    lookup, its forced-release maintenance pass and its idle-span skip. *)
val has_forced : t -> bool

(** Step count of the owner's next forced event, if any. *)
val peek_forced : t -> Key.tid_path -> int option

(** Human-readable first entries of every remaining cursor (deadlock
    diagnosis). *)
val dump_remaining : t -> string list
