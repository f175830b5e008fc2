(** The recorder: appends events to a {!Log.t} during a recorded run and
    keeps the per-category counters reported in Table 2. *)

open Runtime

type spill = {
  sp_events : int;  (** seal threshold: gated events per segment *)
  sp_flush :
    log:Log.t -> first_tick:int -> last_tick:int -> events:int -> unit;
}

type t = {
  mutable log : Log.t;        (** the open (in-memory) segment *)
  mutable n_syscalls : int;   (** input-log entries *)
  mutable n_sync_ops : int;   (** original-synchronization HB entries *)
  mutable n_weak : int array; (** weak-lock entries by granularity rank *)
  mutable n_forced : int;
  mutable spill : spill option;
  mutable seg_events : int;       (** gated events in the open segment *)
  mutable seg_first_tick : int;
  mutable segments_sealed : int;
  mutable open_sched : Log.sched_segment option array;
      (** per core, the open schedule segment; emptied at every seal *)
}

val create : unit -> t

(** Turn on segmented spilling: once the open segment holds
    [events_per_segment] gated events, the next {!maybe_seal} passes it
    to [flush] (with its tick range and event count) and recording
    continues into a fresh log. Off by default — without it the recorder
    behaves exactly as the historical monolithic one. *)
val set_spill :
  t ->
  events_per_segment:int ->
  flush:(log:Log.t -> first_tick:int -> last_tick:int -> events:int -> unit) ->
  unit

(** Seal the open segment if it has reached the spill threshold; no-op
    without {!set_spill}. The engine calls this after every recorded
    event, passing its current tick. Seal points are a function of the
    gated event counts only, so re-recordings seal identically. *)
val maybe_seal : t -> now:int -> unit

(** Seal the open tail segment (even a short one; an empty one only when
    nothing was ever sealed). No-op without {!set_spill}. *)
val finish : t -> now:int -> unit

(** Record one syscall: its result burst (possibly empty, e.g. for
    [output]) and its slot in the global syscall order. *)
val rec_input : t -> tp:Key.tid_path -> int list -> unit

val rec_sync : t -> obj:Key.addr -> op:Log.sync_op -> tp:Key.tid_path -> unit

val rec_weak :
  t -> lock:Minic.Ast.weak_lock -> tp:Key.tid_path -> claim:Log.sclaim -> unit

val rec_forced :
  t ->
  owner:Key.tid_path ->
  steps:int ->
  acqs:int ->
  lock:Minic.Ast.weak_lock ->
  unit

(** Charge [ticks] of core [core] to thread [tp]: extends the core's
    open segment while the same thread stays on it, else opens a new
    one. Segments of different cores interleave freely, so the log holds
    one segment per run of a thread on a core. A seal closes every open
    segment. *)
val rec_sched : t -> core:int -> tp:Key.tid_path -> ticks:int -> unit

(** Weak-lock log entries per granularity: (func, loop, bb, instr). *)
val weak_counts : t -> int * int * int * int
