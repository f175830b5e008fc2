(** Runtime observability: deterministic event tracing and contention
    metrics (DESIGN.md §10).

    The engine emits events into a {!Sink} — per-thread bounded ring
    buffers keyed by schedule-independent {!Runtime.Key.tid_path}s.
    Timestamps are {e logical clocks}: the emitting thread's per-thread
    step count, never wall-clock ticks. Step counts advance only when a
    thread executes a statement (blocking does not step), so the stable
    subset of a thread's stream is identical between a recording and its
    replay — which is what makes traces diffable for divergence
    diagnosis, and what a wall clock would destroy.

    Emission charges no simulated ticks: with no sink installed the
    engine behaves identically, and with one installed every simulated
    timing and output is unchanged. *)

open Runtime

(** What happened. [Weak_block]'s payload is the waiter-queue depth at
    the moment of blocking (the blocked thread included). *)
type kind =
  | Weak_acquire of Minic.Ast.weak_lock
  | Weak_block of Minic.Ast.weak_lock * int
  | Weak_wake of Minic.Ast.weak_lock
  | Weak_release of Minic.Ast.weak_lock
  | Weak_forced of Minic.Ast.weak_lock  (** timeout-preemption stripped it *)
  | Region_enter of int  (** locks acquired for the region *)
  | Region_exit of int  (** locks released *)
  | Sync of Replay.Log.sync_op * Key.addr
  | Syscall
  | Replay_miss  (** a replayed syscall ran past the recorded input log *)

type event = {
  ev_tp : Key.tid_path;
  ev_step : int;  (** the thread's step count at emission (logical clock) *)
  ev_kind : kind;
}

val pp_kind : kind Fmt.t
val pp_event : event Fmt.t

(** [stable k] is true for events whose per-thread position and step are
    invariant between a recording and its replay: acquisitions, releases,
    forced releases, region boundaries, sync ops, syscalls. Block/wake
    and replay-miss events depend on the schedule and are excluded from
    stream comparison (they remain useful as contention diagnostics). *)
val stable : kind -> bool

(** Per-thread bounded ring buffers. Within a thread, events are kept in
    emission order; when a buffer fills, the oldest events are dropped
    (and counted). Not thread-safe — the simulator is single-domain. *)
module Sink : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] bounds each per-thread buffer (default 65536 events). *)

  val emit : t -> Key.tid_path -> step:int -> kind -> unit

  val events : t -> event list
  (** All retained events, threads in [tid_path] order, each thread's
      events in emission order — a deterministic order independent of
      hashing or scheduling. *)

  val thread_events : t -> Key.tid_path -> event list

  val threads : t -> Key.tid_path list
  (** Sorted. *)

  val dropped : t -> int
  (** Total events lost to ring overflow. *)

  val dropped_by_thread : t -> (Key.tid_path * int) list
  (** Per-thread overflow losses, threads that lost events only, sorted
      by [tid_path] — the breakdown {!summarize} surfaces so truncated
      per-thread streams are visible in reports. *)
end

(* ------------------------------------------------------------------ *)
(** {1 Aggregation} *)

type lock_metrics = {
  lm_lock : Minic.Ast.weak_lock;
  lm_acq : int;  (** acquisitions *)
  lm_blocks : int;  (** block events *)
  lm_queue_sum : int;  (** sum of queue depths over block events *)
  lm_forced : int;  (** timeout-preemptions *)
  lm_wakes : int;
}

val mean_queue_depth : lock_metrics -> float
(** Mean waiter-queue depth observed at block time (0 if never blocked). *)

type gran_metrics = { gm_acq : int; gm_blocks : int; gm_forced : int }

type summary = {
  su_locks : lock_metrics list;
      (** most-contended first: blocks, then acquisitions, then lock *)
  su_gran : gran_metrics array;  (** indexed by {!Minic.Ast.granularity_rank} *)
  su_sync : int;
  su_syscalls : int;
  su_replay_miss : int;
  su_regions : int;  (** region entries *)
  su_events : int;  (** events aggregated *)
  su_dropped : int;  (** ring-overflow losses (from the sink) *)
  su_dropped_by_thread : (Key.tid_path * int) list;
      (** which threads lost events (from {!Sink.dropped_by_thread});
          a non-empty list marks every aggregate above as a lower bound *)
}

val summarize :
  ?dropped:int ->
  ?dropped_by_thread:(Key.tid_path * int) list ->
  event list ->
  summary

val pp_report : ?top:int -> summary Fmt.t
(** Compact text report: totals, per-granularity mix, top-N locks by
    contention (default top 10). *)

(* ------------------------------------------------------------------ *)
(** {1 Chrome-trace export} *)

val thread_name_event : tid:int -> string -> Bjson.t
(** The Chrome-trace metadata event that names trace row [tid]. *)

val to_chrome : event list -> string
(** A [chrome://tracing] / Perfetto JSON array. Each simulated thread is
    a trace row ([tid] = its rank, named by a [thread_name] metadata
    event); [ts] is the logical step count in microseconds. Regions
    become duration ("B"/"E") events, everything else instants. *)

(* ------------------------------------------------------------------ *)
(** {1 Replay-divergence diagnosis} *)

type divergence = {
  dv_tp : Key.tid_path;  (** thread whose streams first part ways *)
  dv_index : int;  (** index into that thread's stable stream *)
  dv_recorded : event option;  (** [None] = recorded stream ended early *)
  dv_replayed : event option;  (** [None] = replayed stream ended early *)
}

val first_divergence :
  recorded:event list -> replayed:event list -> divergence option
(** Compare the stable per-thread streams of a recording and a replay
    and locate the earliest diverging event (smallest logical step, ties
    broken by thread id). [None] means the stable streams agree — either
    the runs match, or the divergence is data-only (different values
    computed, identical control flow and synchronization). *)

val pp_divergence : divergence Fmt.t
