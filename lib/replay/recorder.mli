(** The recorder: appends events to a {!Log.t} during a recorded run. *)

open Runtime

type spill = {
  sp_events : int;  (** seal threshold: gated events per segment *)
  sp_flush :
    log:Log.t -> first_tick:int -> last_tick:int -> events:int -> unit;
}

type t = {
  mutable log : Log.t;        (** the open (in-memory) segment *)
  mutable spill : spill option;
  mutable seg_events : int;       (** gated events in the open segment *)
  mutable seg_first_tick : int;
  mutable segments_sealed : int;
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
