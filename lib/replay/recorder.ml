(** The recorder: appends events to a {!Log.t} during a recorded run and
    keeps the per-category counters reported in Table 2 of the paper.

    {b Spilling.} By default the whole recording accumulates in one
    [Log.t]. {!set_spill} turns the log into a sequence of bounded
    in-memory segments: once the open segment holds [events_per_segment]
    gated events, the engine's next {!maybe_seal} hands it to the flush
    callback (which compresses, checksums, and spills it — see
    {!Seglog}) and recording continues into a fresh [Log.t]. Sealing is
    a pure function of the event counts, so two recordings of the same
    execution seal at identical points; it charges no simulated ticks,
    so spilled and monolithic recordings of one program are
    tick-identical. The Table 2 counters keep accumulating across
    seals.

    {b Schedule.} The per-core schedule is kept as one open segment per
    core: while the same thread stays on a core, each core-tick extends
    that core's open segment in place, so the log holds one segment per
    run of a thread on a core, not one per core-tick. A seal closes every
    open segment, so no segment spans two sealed logs. *)

open Runtime

type spill = {
  sp_events : int;  (** seal threshold: gated events per segment *)
  sp_flush :
    log:Log.t -> first_tick:int -> last_tick:int -> events:int -> unit;
}

type t = {
  mutable log : Log.t;  (** the open segment *)
  (* Table 2 counters *)
  mutable n_syscalls : int;        (** DRF input-log entries *)
  mutable n_sync_ops : int;        (** original synchronization HB entries *)
  mutable n_weak : int array;      (** weak-lock log entries, by granularity
                                       rank: func, loop, bb, instr *)
  mutable n_forced : int;
  (* spilling state *)
  mutable spill : spill option;
  mutable seg_events : int;   (** gated events in the open segment *)
  mutable seg_first_tick : int;
  mutable segments_sealed : int;
  mutable open_sched : Log.sched_segment option array;
      (** per core, the segment the next tick of the same thread extends *)
}

let create () =
  {
    log = Log.create ();
    n_syscalls = 0;
    n_sync_ops = 0;
    n_weak = Array.make 4 0;
    n_forced = 0;
    spill = None;
    seg_events = 0;
    seg_first_tick = 0;
    segments_sealed = 0;
    open_sched = [||];
  }

let set_spill (t : t) ~(events_per_segment : int)
    ~(flush :
       log:Log.t -> first_tick:int -> last_tick:int -> events:int -> unit) =
  t.spill <- Some { sp_events = max 1 events_per_segment; sp_flush = flush }

let rec_input (t : t) ~(tp : Key.tid_path) (values : int list) =
  t.n_syscalls <- t.n_syscalls + 1;
  t.seg_events <- t.seg_events + 1;
  let cur = Log.cell t.log.inputs tp in
  cur := values :: !cur;
  t.log.syscall_order <- tp :: t.log.syscall_order

let rec_sync (t : t) ~(obj : Key.addr) ~(op : Log.sync_op) ~(tp : Key.tid_path)
    =
  t.n_sync_ops <- t.n_sync_ops + 1;
  t.seg_events <- t.seg_events + 1;
  let cur = Log.cell t.log.sync_order obj in
  cur := (op, tp) :: !cur

let rec_weak (t : t) ~(lock : Minic.Ast.weak_lock) ~(tp : Key.tid_path)
    ~(claim : Log.sclaim) =
  let rank = Minic.Ast.granularity_rank lock.wl_gran in
  t.n_weak.(rank) <- t.n_weak.(rank) + 1;
  t.seg_events <- t.seg_events + 1;
  let cur = Log.cell t.log.weak_order lock in
  cur := (tp, claim) :: !cur

let rec_forced (t : t) ~(owner : Key.tid_path) ~(steps : int) ~(acqs : int)
    ~(lock : Minic.Ast.weak_lock) =
  t.n_forced <- t.n_forced + 1;
  t.seg_events <- t.seg_events + 1;
  t.log.forced <-
    { fe_owner = owner; fe_steps = steps; fe_acqs = acqs; fe_lock = lock }
    :: t.log.forced

let rec_sched (t : t) ~(core : int) ~(tp : Key.tid_path) ~(ticks : int) =
  if core >= Array.length t.open_sched then begin
    let a = Array.make (core + 1) None in
    Array.blit t.open_sched 0 a 0 (Array.length t.open_sched);
    t.open_sched <- a
  end;
  (* the engine passes a thread's one path value every tick, so [==]
     settles the common case without a polymorphic compare *)
  match t.open_sched.(core) with
  | Some sg when sg.sg_tid == tp || sg.sg_tid = tp ->
      sg.sg_ticks <- sg.sg_ticks + ticks
  | _ ->
      let sg = { Log.sg_core = core; sg_tid = tp; sg_ticks = ticks } in
      t.log.sched <- sg :: t.log.sched;
      t.open_sched.(core) <- Some sg

let seal (t : t) (sp : spill) ~(now : int) =
  sp.sp_flush ~log:t.log ~first_tick:t.seg_first_tick ~last_tick:now
    ~events:t.seg_events;
  t.log <- Log.create ();
  Array.fill t.open_sched 0 (Array.length t.open_sched) None;
  t.seg_events <- 0;
  t.seg_first_tick <- now;
  t.segments_sealed <- t.segments_sealed + 1

let maybe_seal (t : t) ~(now : int) =
  match t.spill with
  | Some sp when t.seg_events >= sp.sp_events -> seal t sp ~now
  | _ -> ()

let finish (t : t) ~(now : int) =
  match t.spill with
  | Some sp when t.seg_events > 0 || t.segments_sealed = 0 -> seal t sp ~now
  | _ -> ()

(** Number of weak-lock log entries per granularity:
    (func, loop, bb, instr). *)
let weak_counts (t : t) =
  (t.n_weak.(0), t.n_weak.(1), t.n_weak.(2), t.n_weak.(3))
