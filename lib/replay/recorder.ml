(** The recorder: appends events to a {!Log.t} during a recorded run.

    {b Spilling.} By default the whole recording accumulates in one
    [Log.t]. {!set_spill} turns the log into a sequence of bounded
    in-memory segments: once the open segment holds [events_per_segment]
    gated events, the engine's next {!maybe_seal} hands it to the flush
    callback (which compresses, checksums, and spills it — see
    {!Seglog}) and recording continues into a fresh [Log.t]. Sealing is
    a pure function of the event counts, so two recordings of the same
    execution seal at identical points; it charges no simulated ticks,
    so spilled and monolithic recordings of one program are
    tick-identical. *)

open Runtime

type spill = {
  sp_events : int;  (** seal threshold: gated events per segment *)
  sp_flush :
    log:Log.t -> first_tick:int -> last_tick:int -> events:int -> unit;
}

type t = {
  mutable log : Log.t;  (** the open segment *)
  mutable spill : spill option;
  mutable seg_events : int;   (** gated events in the open segment *)
  mutable seg_first_tick : int;
  mutable segments_sealed : int;
}

let create () =
  {
    log = Log.create ();
    spill = None;
    seg_events = 0;
    seg_first_tick = 0;
    segments_sealed = 0;
  }

let set_spill (t : t) ~(events_per_segment : int)
    ~(flush :
       log:Log.t -> first_tick:int -> last_tick:int -> events:int -> unit) =
  t.spill <- Some { sp_events = max 1 events_per_segment; sp_flush = flush }

let rec_input (t : t) ~(tp : Key.tid_path) (values : int list) =
  t.seg_events <- t.seg_events + 1;
  let cur = Log.cell t.log.inputs tp in
  cur := values :: !cur;
  t.log.syscall_order <- tp :: t.log.syscall_order

let rec_sync (t : t) ~(obj : Key.addr) ~(op : Log.sync_op) ~(tp : Key.tid_path)
    =
  t.seg_events <- t.seg_events + 1;
  let cur = Log.cell t.log.sync_order obj in
  cur := (op, tp) :: !cur

let rec_weak (t : t) ~(lock : Minic.Ast.weak_lock) ~(tp : Key.tid_path)
    ~(claim : Log.sclaim) =
  t.seg_events <- t.seg_events + 1;
  let cur = Log.cell t.log.weak_order lock in
  cur := (tp, claim) :: !cur

let rec_forced (t : t) ~(owner : Key.tid_path) ~(steps : int) ~(acqs : int)
    ~(lock : Minic.Ast.weak_lock) =
  t.seg_events <- t.seg_events + 1;
  t.log.forced <-
    { fe_owner = owner; fe_steps = steps; fe_acqs = acqs; fe_lock = lock }
    :: t.log.forced

let seal (t : t) (sp : spill) ~(now : int) =
  sp.sp_flush ~log:t.log ~first_tick:t.seg_first_tick ~last_tick:now
    ~events:t.seg_events;
  t.log <- Log.create ();
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
