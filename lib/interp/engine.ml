(** The multiprocessor simulator: a MiniC interpreter whose threads run as
    OCaml effect-based coroutines over a tick-based multicore scheduler.

    This is the project's substitute for the paper's modified Linux
    kernel + pthreads runtime on an 8-core Xeon (Section 6.1). The
    simulator exposes the same phenomena the paper's system does:

    - instruction-granularity preemption: every statement (and the gap
      between a racy read and its write) is a scheduling point, so data
      races produce schedule-dependent outcomes;
    - parallel makespan on N cores with per-core run queues, quanta, and
      work stealing — simulated time (ticks) plays the role of wall-clock
      time in the evaluation;
    - a recording mode that logs nondeterministic inputs, the per-object
      synchronization order, the weak-lock acquisition order, and
      forced releases, charging the cost model for every log append;
    - a replay mode that feeds back inputs and enforces the recorded
      orders (blocking threads whose operation is not next), without
      gating data accesses — deterministic replay therefore {e depends}
      on the program being data-race-free under its (weak-)lock
      synchronization, which is exactly Chimera's transformation
      guarantee;
    - the weak-lock runtime: ordered acquisition, release of outer
      regions around inner regions, range-claimed loop-locks, and
      timeout-preemption with forced release/reacquire (Section 2.3). *)

open Minic.Ast
module K = Runtime.Key
module WL = Runtime.Weaklock

(* ------------------------------------------------------------------ *)
(* Effects *)

(* Neither effect carries a payload: [step] leaves its tick cost in the
   thread's [step_cost] field, so performing one allocates nothing but
   the continuation the runtime itself builds. *)
type _ Effect.t +=
  | E_step : unit Effect.t
      (** scheduling point; the tick cost is in [step_cost] *)
  | E_block : unit Effect.t
      (** the thread marked itself blocked; resumes when woken *)

let block_here () = Effect.perform E_block

(* The initial [resume] of every thread, never continued: with it, a
   step stores its continuation in the thread without allocating an
   option (a thread resumes only when [suspended] says so). It is the
   continuation of a throwaway fiber suspended at module initialisation. *)
let no_cont : (unit, unit) Effect.Deep.continuation =
  let k = ref None in
  Effect.Deep.match_with block_here ()
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | E_block ->
              Some
                (fun (c : (unit, unit) Effect.Deep.continuation) ->
                  k := Some c)
          | _ -> None);
    };
  Option.get !k

(* ------------------------------------------------------------------ *)
(* Threads *)

type block_reason =
  | BMutex of K.addr
  | BBarrier of K.addr
  | BCond of K.addr
  | BJoin of int
  | BWeak of weak_lock * WL.claim
  | BReacq  (** holds no locks; must reacquire [th.reacquire] to resume *)
  | BTurn of (unit -> string)
      (** names the turn waited for; formatted only for diagnostics *)
  | BIO of int  (** wake tick *)

let pp_block_reason ppf = function
  | BMutex a -> Fmt.pf ppf "mutex %a" K.pp_addr a
  | BBarrier a -> Fmt.pf ppf "barrier %a" K.pp_addr a
  | BCond a -> Fmt.pf ppf "cond %a" K.pp_addr a
  | BJoin t -> Fmt.pf ppf "join %d" t
  | BWeak (w, _) -> Fmt.pf ppf "weak %a" pp_weak_lock w
  | BReacq -> Fmt.string ppf "forced-reacquire"
  | BTurn what -> Fmt.pf ppf "replay-turn for %s" (what ())
  | BIO t -> Fmt.pf ppf "io until %d" t

type status = Runnable | Blocked of block_reason | Done

type region = { rg_acqs : (weak_lock * WL.claim) list }

type thread = {
  tid : int;  (** schedule-independent: encodes the tid path *)
  path : K.tid_path;
  mutable status : status;
  mutable resume : (unit, unit) Effect.Deep.continuation;
      (** where a suspended thread resumes; [no_cont] until its first
          suspension *)
  mutable suspended : bool;  (** [resume] holds an unused continuation *)
  mutable body : (unit -> unit) option;  (** before first scheduling *)
  mutable steps : int;
  mutable step_cost : int;  (** tick cost of the pending [E_step] *)
  mutable weak_acqs : int;
      (** weak-lock acquisitions performed so far (including
          reacquisitions) — identical across record and replay, used to
          order forced events against this thread's own reacquisitions *)
  mutable stall : int;
  mutable a_blk : int;
  mutable a_off : int;
      (** the (block, offset) address the last compiled lvalue closure
          computed (see [compile_lval]) *)
  mutable fr_blk : int;
      (** the block of the running function's frame (see [exec_fun]); 0
          outside any call *)
  mutable ahead : int;
      (** resumptions the scheduler owes a thread that ran ahead through
          steps touching only its own frame (DESIGN.md §25); 0 when it
          is not ahead *)
  mutable ra_paid : int;  (** owed resumptions paid so far *)
  mutable ra_seg : int array;
      (** per segment [j] of run-ahead, the code between owed resumption
          [j] and the next scheduling point: [n_stmts], [n_mem_ops] and
          [ra_nev] at its end, at [3 * j]; slot 0 holds them at the
          start. Allocated at the thread's first run-ahead. *)
  mutable ra_ev : int array;  (** hook events deferred while ahead *)
  mutable ra_nev : int;  (** entries of [ra_ev] in use *)
  mutable core : int;
  mutable spawn_seq : int;
  mutable frame_seq : int;
  mutable alloc_seq : int;
  mutable io_seq : int;
  mutable regions : region list;  (** innermost first *)
  mutable reacquire : (weak_lock * WL.claim) list;
      (** locks stripped by timeout-preemption, to reacquire before
          resuming *)
  mutable force_now : weak_lock list;
      (** forced releases to apply at this thread's next step *)
  mutable turn_check : (unit -> bool) option;
  mutable turn_ver : int;
      (** the replay-log version ({!Replay.Replayer.consumed_events}) at
          which this thread's replay gate last failed; -1 for none *)
  mutable blocked_since : int;
  mutable fault : string option;
  mutable pct_prio : int;
      (** PCT priority (read only under [Spct]): set from (seed, tid) at
          creation, lowered below every other at a change point *)
  mutable det_clock : int;
      (** deterministic logical time (Deterministic mode): advances with
          executed work and with deterministic retry bumps while
          contending, never with wall/scheduler time *)
  mutable det_excluded : bool;
      (** deterministically parked (cond/join/barrier/IO wait after a
          committed gate): not considered in the global-minimum rule *)
  mutable det_immune : weak_lock list;
      (** locks reacquired after a deterministic preemption: immune to
          further preemption until released, so the recovering owner can
          finish its region (prevents preemption ping-pong) *)
  mutable det_reacquiring : bool;  (** recursion guard for det_gate *)
  mutable det_doomed : weak_lock list;
      (** locks this thread must strip itself of at its next gate/park —
          a contender demanded them; self-stripping keeps the preemption
          point inside the owner's deterministic instruction stream *)
}

let stable_tid (path : K.tid_path) : int =
  List.fold_left (fun acc k -> (acc * 1024) + k + 1) 0 path

(* ------------------------------------------------------------------ *)
(* Hooks for profilers / dynamic analyses *)

type sync_event =
  | SyAcquire of K.addr
  | SyRelease of K.addr
  | SyBarrierArrive of K.addr
  | SyBarrier of K.addr
  | SyCondSignal of K.addr
  | SyCondWake of K.addr
  | SySpawn of int   (** child tid *)
  | SyThreadStart    (** first event in a spawned thread *)
  | SyJoin of int    (** joined child tid *)
  | SyWeakAcq of weak_lock
  | SyWeakRel of weak_lock

type hooks = {
  mutable on_enter_fun : (int -> string -> unit) option;
  mutable on_exit_fun : (int -> string -> unit) option;
  mutable on_mem : (int -> K.addr -> write:bool -> sid:int -> unit) option;
  mutable on_sync : (int -> sync_event -> unit) option;
  mutable on_loop_iter : (int -> int -> unit) option;  (** tid, lid *)
  mutable on_loop_enter : (int -> int -> unit) option; (** tid, lid *)
  mutable on_loop_exit : (int -> int -> unit) option;  (** tid, lid *)
  mutable on_stmt : (int -> int -> unit) option;       (** tid, sid *)
}

let no_hooks () =
  {
    on_enter_fun = None;
    on_exit_fun = None;
    on_mem = None;
    on_sync = None;
    on_loop_iter = None;
    on_loop_enter = None;
    on_loop_exit = None;
    on_stmt = None;
  }

(* ------------------------------------------------------------------ *)
(* Statistics *)

type stats = {
  mutable n_stmts : int;
  mutable n_mem_ops : int;
  mutable n_sync_ops : int;
  mutable n_syscalls : int;
  n_weak_acq : int array;          (** by granularity rank *)
  weak_block_ticks : int array;    (** contention, by granularity rank *)
  mutable n_forced : int;
  mutable n_handoff_served : int;
  mutable n_handoff_expired : int;
  mutable log_ticks_sync : int;
  mutable log_ticks_weak : int;
  mutable log_ticks_input : int;
  mutable weak_op_ticks : int;     (** acquire/release + range eval cost *)
  mutable n_sched_iters : int;     (** scheduler loop iterations: one tick each *)
  mutable n_ticks_skipped : int;   (** ticks advanced in idle spans *)
  mutable n_ticks_jumped : int;
      (** ticks advanced while every thread was blocked (the jump to the
          next wake-up, deterministic mode's [+16]); with the two fields
          above, they add up to the run's ticks *)
  mutable n_turn_checks : int;
      (** replay-gate evaluations: at each gate, and for parked waiters
          in [maintenance] *)
  mutable n_core_ticks : int;
      (** [tick_core] calls: per-core scheduling ticks actually run *)
  mutable n_steps_inline : int;
      (** steps taken in place ({!step}): each stands for the end of one
          tick and the next tick up to the thread's resumption, and is
          counted in [n_sched_iters] and [n_core_ticks] as those are *)
  mutable n_steps_ahead : int;
      (** steps a thread ran past while ahead whose resumption the
          scheduler later paid without resuming its fiber *)
}

let new_stats () =
  {
    n_stmts = 0;
    n_mem_ops = 0;
    n_sync_ops = 0;
    n_syscalls = 0;
    n_weak_acq = Array.make 4 0;
    weak_block_ticks = Array.make 4 0;
    n_forced = 0;
    n_handoff_served = 0;
    n_handoff_expired = 0;
    log_ticks_sync = 0;
    log_ticks_weak = 0;
    log_ticks_input = 0;
    weak_op_ticks = 0;
    n_sched_iters = 0;
    n_ticks_skipped = 0;
    n_ticks_jumped = 0;
    n_turn_checks = 0;
    n_core_ticks = 0;
    n_steps_inline = 0;
    n_steps_ahead = 0;
  }

(* ------------------------------------------------------------------ *)
(* Engine *)

type mode =
  | Native
  | Record
  | Replay of Replay.Log.t
  | Deterministic
      (** Kendo-style deterministic execution — the paper's future-work
          direction: since the Chimera-transformed program is
          data-race-free, arbitrating every synchronization operation by
          deterministic logical time makes the whole execution a function
          of the program and its inputs, independent of the scheduler, with
          no logging at all. *)

(** Schedule-exploration strategy of the tick scheduler. [Sdefault] is
    the seeded round-robin scheduler and consumes the rng stream exactly
    as it always has, so its tick counts stay pinned by the golden
    counters. The adversarial strategies only shape {e recordings} —
    replay is gated by the recorded per-object orders, so a log recorded
    under any strategy replays under any other. *)
type strategy =
  | Sdefault
      (** seeded quantum round-robin with work stealing (the pinned path) *)
  | Spct
      (** PCT-style: per-thread random priorities; the highest-priority
          runnable thread on each core runs, and at quantum-expiry change
          points the running thread's priority drops below every other *)
  | Sstorm
      (** weak-timeout storm: the forced-release timeout is slashed and
          swept an order of magnitude more often, driving weak locks
          toward forced expiry (the Section 2.3 escape hatch) *)

let strategy_name = function
  | Sdefault -> "default"
  | Spct -> "pct"
  | Sstorm -> "storm"

let strategy_of_string = function
  | "default" -> Some Sdefault
  | "pct" -> Some Spct
  | "storm" -> Some Sstorm
  | _ -> None

let all_strategies = [ Sdefault; Spct; Sstorm ]

type config = {
  cores : int;
  seed : int;
  quantum : int;
  weak_timeout : int;
  max_ticks : int;
  cost : Cost.t;
  strategy : strategy;
}

let default_config =
  {
    cores = 4;
    seed = 1;
    quantum = 50;
    weak_timeout = 100_000;
    max_ticks = 400_000_000;
    cost = Cost.default;
    strategy = Sdefault;
  }

exception Program_exit of int
exception Stuck of string

(* A function as its calls need it, resolved on its first call: the
   frame layout, static per function and shared read-only by all its
   frames, and the body staged into closures (see [callee]) *)
type callee = {
  c_name : string;
  c_size : int;  (** cells per frame *)
  c_params : int list;  (** the parameters' offsets, in order *)
  c_body : thread -> unit;
}

(* A core's run queue. [len] is [List.length ts], a stale duplicate
   entry (DESIGN.md §15) included; every change goes through
   [set_queue]. *)
type runq = { mutable ts : thread list; mutable len : int }

type t = {
  prog : program;
  tenv : Minic.Typecheck.env;
  layout : Layout.t;
  cfg : config;
  mode : mode;
  io : Iomodel.t;
  hooks : hooks;
  mem : Mem.t;
  mutexes : Runtime.Sync.Mutex.t;
  barriers : Runtime.Sync.Barrier.t;
  conds : Runtime.Sync.Cond.t;
  weak : WL.t;
  threads : (int, thread) Hashtbl.t;
  mutable thread_order : int list;  (** creation order, reversed *)
  queues : runq array;   (** per-core run queues *)
  mutable n_multi : int;
      (** queues holding two or more entries: an empty core can steal
          only while this is positive *)
  mutable n_busy : int;  (** non-empty queues *)
  quanta : int array;
  globals : (string, int) Hashtbl.t;  (** global name -> block id *)
  fixed : (string, unit) Hashtbl.t;
      (** scalar globals no statement writes and no expression takes the
          address of ([fixed_globals]): each holds its initializer for
          the whole run *)
  global_fault : string option;
      (** why a global could not be laid out (an unchecked program's
          global of an unknown struct): the main thread faults with it
          before it calls [main] *)
  recorder : Replay.Recorder.t option;
  replayer : Replay.Replayer.t option;
  sink : Trace.Sink.t option;
  stats : stats;
  mutable ticks : int;
  mutable outputs : (K.tid_path * int) list;  (** reversed *)
  out_text : Buffer.t;
      (** the [" o:<path>=<v>"] text of [out_seen], oldest first: the
          output part of {!state_digest}, extended only by it *)
  mutable out_seen : (K.tid_path * int) list;
      (** [outputs] as of the last {!state_digest}; a suffix of
          [outputs], which only ever grows at the front *)
  mutable digest_text : bytes;
      (** the text {!state_digest} hashes, kept between digests so that
          a digest allocates no copy of the output text *)
  mutable live : int;
  mutable exit_code : int option;
  mutable rng : int;
  mutable tick_draw : int;
      (** the current tick's start-core draw, before [mod cores] *)
  mutable main_done : bool;
  mutable pct_floor : int;
      (** strictly decreasing change-point floor: each demotion lands
          below every priority handed out so far *)
  callees : (string, callee) Hashtbl.t;
      (** per-function layouts and staged bodies: each body is
          closure-compiled on its first call, with variable offsets,
          field offsets, element sizes, and static types resolved once
          instead of per access *)
  mutable n_bio : int;  (** threads currently [Blocked (BIO _)] *)
  mutable n_bturn : int;  (** threads currently [Blocked (BTurn _)] *)
  mutable n_breacq : int;  (** threads currently [Blocked BReacq] *)
  mutable n_bweak : int;  (** threads currently [Blocked (BWeak _)] *)
  mutable n_reacq : int;  (** threads with a nonempty [reacquire] list *)
  mutable io_min : int;
      (** the earliest wake tick of a [Blocked (BIO _)] thread; [max_int]
          for none *)
  mutable turns_quiet_at : int;
      (** the replay-log version at which the last [maintenance] pass left
          every [BTurn] waiter without a pending reacquisition with a
          failed check at that version; -1 for none *)
  mutable phases : Phases.t option;
      (** per-phase wall-clock attribution; [None] (the default) reads
          no clocks at all *)
  mutable ahead_on : bool;
      (** threads may run ahead: no [on_mem] or [on_sync] hook, no trace
          sink, not deterministic, and a statement costs one tick. Set
          when the run starts. *)
}

(* Trace emission: timestamped with the thread's per-thread step count
   (the logical clock of DESIGN.md §10), and charging no simulated ticks
   — with no sink, and for every simulated timing with one, the engine
   behaves identically. *)
let emit_ev eng (th : thread) kind =
  match eng.sink with
  | Some s -> Trace.Sink.emit s th.path ~step:th.steps kind
  | None -> ()

(* One xorshift step of the scheduler rng, masked to 62 bits. The
   step is linear over GF(2) and never reaches 0 from a seeded state
   (DESIGN.md §22), so a run of steps is a matrix power. *)
let[@inline] rng_step x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  x land max_int

let rng_next (eng : t) =
  eng.rng <- rng_step eng.rng;
  eng.rng

(* A GF(2) matrix over the 63-bit state is kept as its 63 columns, the
   images of the basis bits; applied to [v], it is the xor of the
   columns of [v]'s set bits. *)
let gf2_apply (cols : int array) v =
  let r = ref 0 and v = ref v and j = ref 0 in
  while !v <> 0 do
    if !v land 1 <> 0 then r := !r lxor Array.unsafe_get cols !j;
    v := !v lsr 1;
    incr j
  done;
  !r

(* The same product four input bits at a time: entry [16 * t + n] is the
   image of nibble [n] at bits [4t .. 4t + 3]. 16 reads instead of up
   to 63 branches, about 4x faster. *)
let gf2_table (cols : int array) =
  Array.init 256 (fun e ->
      let r = ref 0 in
      for b = 0 to 3 do
        let j = ((e lsr 4) lsl 2) + b in
        if (e lsr b) land 1 <> 0 && j < 63 then r := !r lxor cols.(j)
      done;
      !r)

let gf2_apply_table (tbl : int array) v =
  let r = ref 0 in
  for t = 0 to 15 do
    let n = (v lsr (t lsl 2)) land 15 in
    r := !r lxor Array.unsafe_get tbl ((t lsl 4) lor n)
  done;
  !r

(* [rng_pow.(i)] is the step matrix raised to [2^i], as 63 columns (a
   seeded state [seed * 2 + 1] can have bit 62 set); the columns of a
   square are the matrix applied to its own columns. The powers below
   [2^8], the ones idle spans reach (a span is under 1.5 quanta), are
   also kept as tables, which cost 16 times the memory. Both are built
   when the module loads, so domains that run engines in parallel only
   read them. *)
let rng_pow =
  let pows = Array.make 62 (Array.init 63 (fun j -> rng_step (1 lsl j))) in
  for i = 1 to 61 do
    pows.(i) <- Array.map (gf2_apply pows.(i - 1)) pows.(i - 1)
  done;
  pows

let rng_pow_table = Array.init 8 (fun i -> gf2_table rng_pow.(i))

(* below this many steps, stepping is cheaper than the matrix powers *)
let rng_jump_min = 32

(** The state [k >= 0] steps after [x]: [k] applications of {!rng_step}
    in O(log k) matrix products. *)
let rng_jump x k =
  if k < rng_jump_min then begin
    let x = ref x in
    for _ = 1 to k do
      x := rng_step !x
    done;
    !x
  end
  else begin
    let x = ref x and k = ref k and i = ref 0 in
    while !k <> 0 do
      if !k land 1 <> 0 then
        x :=
          if !i < 8 then gf2_apply_table rng_pow_table.(!i) !x
          else gf2_apply rng_pow.(!i) !x;
      k := !k lsr 1;
      incr i
    done;
    !x
  end

(* ------------------------------------------------------------------ *)
(* Schedule strategies.

   Everything here is a no-op under [Sdefault]: the default path must
   neither consume extra rng draws nor reorder queues, because the
   golden tick counts pin it byte-for-byte. *)

(** Storm mode slashes the forced-release deadline; every other strategy
    uses the configured timeout. Used by the sweep and by the idle
    fast-forward deadline, so both agree on when a stall expires. *)
let effective_weak_timeout eng =
  match eng.cfg.strategy with
  | Sstorm -> max 64 (eng.cfg.weak_timeout / 64)
  | Sdefault | Spct -> eng.cfg.weak_timeout

(** Tick mask between weak-timeout sweeps: storm sweeps 8x as often so a
    slashed deadline is actually observed soon after it passes. *)
let weak_sweep_mask eng =
  match eng.cfg.strategy with Sstorm -> 31 | Sdefault | Spct -> 255

(* ------------------------------------------------------------------ *)
(* Scheduler population counters.

   Every status change goes through [set_status] so the blocked-population
   counters stay an exact mirror of the thread table. They only GATE the
   order-sensitive maintenance passes — a pass whose [Hashtbl.iter] order
   feeds wake order (and through [enqueue] the golden tick counts) is
   skipped when its population is empty, and never reordered. The
   timeout victim and the earliest weak-lock deadline are plain table
   scans ([sweep_victim], [weak_deadline]). The earliest IO wake is kept
   exactly in [io_min]: lowered here at each [BIO] park, and recomputed
   by [maintenance]'s walk, the only place a [BIO] thread wakes. *)

let sched_count eng (th : thread) d =
  match th.status with
  | Blocked BReacq -> eng.n_breacq <- eng.n_breacq + d
  | Blocked (BIO _) -> eng.n_bio <- eng.n_bio + d
  | Blocked (BTurn _) -> eng.n_bturn <- eng.n_bturn + d
  | Blocked (BWeak _) -> eng.n_bweak <- eng.n_bweak + d
  | Runnable | Done | Blocked (BMutex _ | BBarrier _ | BCond _ | BJoin _) ->
      ()

let set_status eng (th : thread) (st : status) =
  sched_count eng th (-1);
  th.status <- st;
  sched_count eng th 1;
  match st with
  | Blocked (BIO t) when t < eng.io_min -> eng.io_min <- t
  | _ -> ()

let set_reacquire eng (th : thread) v =
  (match (th.reacquire, v) with
  | [], _ :: _ -> eng.n_reacq <- eng.n_reacq + 1
  | _ :: _, [] -> eng.n_reacq <- eng.n_reacq - 1
  | _ -> ());
  th.reacquire <- v

(* ------------------------------------------------------------------ *)
(* Per-phase attribution (zero-cost when [eng.phases] is [None]) *)

let[@inline] ph_now eng =
  match eng.phases with Some p -> Phases.now p | None -> 0.

let[@inline] ph_add eng bucket t0 =
  match eng.phases with
  | Some p -> Phases.add p bucket (Phases.now p -. t0)
  | None -> ()

(** Initial PCT priority of a thread, a function of (seed, tid) only —
    thread creation consumes no rng draw, so the recorded thread
    structure is independent of later scheduling. *)
let initial_pct_prio (cfg : config) (tid : int) =
  let h = (tid + 1) * 0x9E3779B1 lxor (cfg.seed * 0x85EBCA77) in
  1 + (h land 0x3FFFFFFF)

(** Change point: drop the thread below every priority seen so far. *)
let pct_demote eng (th : thread) =
  eng.pct_floor <- eng.pct_floor - 1;
  th.pct_prio <- eng.pct_floor

(* ------------------------------------------------------------------ *)
(* Evaluation *)

(* an access to cell [off] of block [blk]; the pointer is built only for
   an installed hook *)
let on_mem eng (th : thread) blk off ~write ~sid =
  eng.stats.n_mem_ops <- eng.stats.n_mem_ops + 1;
  match eng.hooks.on_mem with
  | Some f ->
      f th.tid (Mem.addr_key eng.mem { Value.p_block = blk; p_off = off })
        ~write ~sid
  | None -> ()

(* the address an lvalue closure left in [th], as a pointer value *)
let addr_ptr (th : thread) = { Value.p_block = th.a_blk; p_off = th.a_off }

(* the result of a comparison or logical operator: both branches are
   constants, so it allocates nothing *)
let v_of_bool b = if b then Value.VInt 1 else Value.zero

(* A binary operation on the operand shapes the closures of
   [compile_exp] and [compile_cond] leave to it: they compute [Add],
   [Sub], [Mul] and the comparisons on two ints themselves. *)
let binop op (va : Value.t) (vb : Value.t) : Value.t =
  let open Value in
  match (op, va, vb) with
  (* cell-granular pointer arithmetic *)
  | Add, VPtr p, VInt n | Add, VInt n, VPtr p ->
      VPtr { p with p_off = p.p_off + n }
  | Sub, VPtr p, VInt n -> VPtr { p with p_off = p.p_off - n }
  | Sub, VPtr a, VPtr b when a.p_block = b.p_block -> VInt (a.p_off - b.p_off)
  | Eq, a, b -> v_of_bool (equal_value a b)
  | Ne, a, b -> v_of_bool (not (equal_value a b))
  | Lt, VPtr a, VPtr b when a.p_block = b.p_block ->
      v_of_bool (a.p_off < b.p_off)
  | Le, VPtr a, VPtr b when a.p_block = b.p_block ->
      v_of_bool (a.p_off <= b.p_off)
  | Gt, VPtr a, VPtr b when a.p_block = b.p_block ->
      v_of_bool (a.p_off > b.p_off)
  | Ge, VPtr a, VPtr b when a.p_block = b.p_block ->
      v_of_bool (a.p_off >= b.p_off)
  | Div, VInt x, VInt y ->
      if y = 0 then fault "division by zero" else VInt (x / y)
  | Mod, VInt x, VInt y ->
      if y = 0 then fault "modulo by zero" else VInt (x mod y)
  | BAnd, VInt x, VInt y -> VInt (x land y)
  | BOr, VInt x, VInt y -> VInt (x lor y)
  | BXor, VInt x, VInt y -> VInt (x lxor y)
  | Shl, VInt x, VInt y -> VInt (x lsl (y land 62))
  | Shr, VInt x, VInt y -> VInt (x asr (y land 62))
  | _ -> Value.fault "ill-typed binary operation"

(* ------------------------------------------------------------------ *)
(* Record / replay plumbing *)

let charge_log_sync eng =
  match eng.recorder with
  | Some _ ->
      eng.stats.log_ticks_sync <- eng.stats.log_ticks_sync + eng.cfg.cost.c_log_sync;
      eng.cfg.cost.c_log_sync
  | None -> 0

let charge_log_weak eng =
  match eng.recorder with
  | Some _ ->
      eng.stats.log_ticks_weak <- eng.stats.log_ticks_weak + eng.cfg.cost.c_log_weak;
      eng.cfg.cost.c_log_weak
  | None -> 0

let charge_log_input eng words =
  match eng.recorder with
  | Some _ ->
      (* c_log_input ticks per four words, at least one tick *)
      let c = max 1 (eng.cfg.cost.c_log_input * words / 4) in
      eng.stats.log_ticks_input <- eng.stats.log_ticks_input + c;
      c
  | None -> 0

(* Evaluate [th]'s replay gate [check] against replayer [r]. A gate
   reads only the replayer's state, which changes only when it consumes
   an event, so a failed check records the consumed-event count as the
   version at which it failed: until that count moves, the check would
   fail again. *)
let eval_turn eng r (th : thread) (check : unit -> bool) =
  eng.stats.n_turn_checks <- eng.stats.n_turn_checks + 1;
  check ()
  ||
  (th.turn_ver <- Replay.Replayer.consumed_events r;
   false)

(* Block this thread until [check] holds (replay-turn gating). [what]
   names the turn for diagnostics. *)
let wait_turn eng r ~what (th : thread) (check : unit -> bool) =
  while not (eval_turn eng r th check) do
    set_status eng th (Blocked (BTurn what));
    th.turn_check <- Some check;
    block_here ();
    th.turn_check <- None
  done

(* ------------------------------------------------------------------ *)
(* Deterministic-execution arbitration (Kendo-style; see the mode's doc) *)

let det_mode eng = match eng.mode with Deterministic -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Gates of the periodic passes, and steps taken in place.

   [maintenance] runs on every 16th tick and the weak-timeout sweep on
   the ticks [weak_sweep_mask] selects. Each gate below proves its pass
   a no-op before a given tick. The pass itself, the idle-span bound and
   the in-place step all read the same gate, so a tick one of them
   treats as quiet is quiet for the others (DESIGN.md §22-23). *)

(* Every [BTurn] waiter without a pending reacquisition failed its check
   at the current log version: the waiters' part of a maintenance pass
   is a no-op until an event is consumed. A waiter parked after the pass
   that stamped [turns_quiet_at] failed at a version between the stamp
   and now, so an unmoved version covers it too. *)
let turns_quiet eng =
  match eng.replayer with
  | Some r -> eng.turns_quiet_at = Replay.Replayer.consumed_events r
  | None -> false

(** The first tick at which a maintenance pass may act: [min_int] while a
    parked turn waiter may pass its check, a thread waits to reacquire
    or the replay log holds forced events; otherwise the earliest IO
    wake, [max_int] for none. A pass at an earlier tick changes nothing:
    it wakes no thread and recomputes [io_min] and [turns_quiet_at] to
    the values they hold. *)
let maintenance_from eng =
  if
    (eng.n_bturn > 0 && not (turns_quiet eng))
    || eng.n_breacq > 0 || eng.n_reacq > 0
    ||
    match eng.replayer with
    | Some r -> Replay.Replayer.has_forced r
    | None -> false
  then min_int
  else eng.io_min

(* the timeout sweep acts only when recording or running natively:
   replay re-applies forced releases from the log, and deterministic
   mode preempts by retry-count dooming, since a wall-tick timeout would
   make the preemption point a function of the host schedule *)
let sweeps eng = eng.replayer = None && not (det_mode eng)

(** The earliest weak-lock timeout deadline over the [BWeak] and
    [BReacq] waiters, [blocked_since + timeout + 1], the first tick at
    which a sweep may expire the waiter; [max_int] for none. It walks
    the table only while such a waiter exists. *)
let weak_deadline eng =
  let weak = ref max_int in
  if eng.n_bweak > 0 || eng.n_breacq > 0 then
    Hashtbl.iter
      (fun _ (th : thread) ->
        match th.status with
        | Blocked (BWeak _ | BReacq) ->
            let d = th.blocked_since + effective_weak_timeout eng + 1 in
            if d < !weak then weak := d
        | _ -> ())
      eng.threads;
  !weak

(** The first tick at which the timeout sweep may find a victim,
    [max_int] for never. *)
let sweep_from eng = if sweeps eng then weak_deadline eng else max_int

(* Take a cost-1 step of [th] in place when the per-tick path would
   provably resume [th] at the next tick. The caller checked that one
   queue holds one entry; that entry is [th], which was resumed from
   its head and is running, so it is runnable and no thread ended the
   run this tick (DESIGN.md §23). Here: no forced release is due, the
   step expires no quantum, and the next tick neither ends the run nor
   runs a maintenance pass or sweep that could act. The step then does
   what the rest of this tick and the next tick up to [th]'s resumption
   would: the tail of [tick_core], the next tick's start-core draw and
   core tick, and the step's own count. Ticks, rng, logs and every
   counter but [n_steps_inline] are those of the per-tick path. *)
let step_in_place eng (th : thread) =
  let c = th.core and t = eng.ticks + 1 in
  th.force_now = []
  && eng.quanta.(c) > 1
  && (match eng.replayer with
     | Some r ->
         not (Replay.Replayer.has_forced r || Replay.Replayer.halted r)
     | None -> true)
  && (not (det_mode eng))
  && t < eng.cfg.max_ticks
  && (t land 15 <> 0 || t < maintenance_from eng)
  && (t land weak_sweep_mask eng <> 0 || t < sweep_from eng)
  &&
  begin
    eng.quanta.(c) <- eng.quanta.(c) - 1;
    eng.ticks <- t;
    eng.stats.n_sched_iters <- eng.stats.n_sched_iters + 1;
    eng.tick_draw <- rng_next eng;
    eng.stats.n_core_ticks <- eng.stats.n_core_ticks + 1;
    th.steps <- th.steps + 1;
    eng.stats.n_steps_inline <- eng.stats.n_steps_inline + 1;
    true
  end

(* ------------------------------------------------------------------ *)
(* Running ahead (DESIGN.md §25).

   A thread that cannot step in place may do a cost-1 step's handler
   bookkeeping itself and keep running, when what follows touches only
   cells of a frame no pointer can reach and globals no statement
   writes ([step_priv]). Each further cost-1 scheduling point it passes
   is banked: [ahead], the resumptions the scheduler owes it, grows by
   one. Before anything another thread, the scheduler, the recorder or
   a hook could observe, the thread parks, [Runnable]. The scheduler
   then pays each owed resumption at the tick the per-tick path would
   resume the thread: the segment's statement and memory-op counts and
   deferred hook events, and the handler's step bookkeeping
   ([resume_thread]); the last one resumes the fiber. So every counter,
   event and state outside the frame changes at the per-tick path's
   tick. *)

let ahead_cap = 64

(* the end of run-ahead segment [j]: the counts a payment restores *)
let mark_segment eng (th : thread) j =
  let s = th.ra_seg and i = 3 * j in
  s.(i) <- eng.stats.n_stmts;
  s.(i + 1) <- eng.stats.n_mem_ops;
  s.(i + 2) <- th.ra_nev

(* Park a thread that is ahead: the counts go back to their values at
   the start, and come back segment by segment as the scheduler pays *)
let park eng (th : thread) =
  mark_segment eng th th.ahead;
  eng.stats.n_stmts <- th.ra_seg.(0);
  eng.stats.n_mem_ops <- th.ra_seg.(1);
  block_here ()

(* pass a cost-1 scheduling point while ahead; at the cap, park *)
let bank eng (th : thread) =
  mark_segment eng th th.ahead;
  th.ahead <- th.ahead + 1;
  if th.ahead = ahead_cap then park eng th

(* a scheduling point reached ahead at a site whose rest others could
   observe: bank it if it costs one tick, park, and suspend there if it
   costs more *)
let step_ahead eng (th : thread) cost =
  if cost = 1 then bank eng th;
  if th.ahead > 0 then park eng th;
  if cost <> 1 then begin
    th.step_cost <- cost;
    Effect.perform E_step
  end

(* a scheduling point of [th] costing [cost] ticks: taken in place when
   [step_in_place] allows, else the thread suspends to the scheduler *)
let[@inline] step eng (th : thread) cost =
  if th.ahead > 0 then step_ahead eng th cost
  else if
    not (cost = 1 && eng.n_busy = 1 && eng.n_multi = 0 && step_in_place eng th)
  then begin
    th.step_cost <- cost;
    Effect.perform E_step
  end

(* [th] holds the deterministic turn iff its (det_clock, tid) is the
   strict global minimum among non-excluded live threads. At most one
   thread holds the turn, so gated operations commit in a total order
   that is a function of the deterministic logical clocks only. *)
let det_min eng (th : thread) =
  Hashtbl.fold
    (fun _ (th' : thread) acc ->
      acc
      && (th' == th || th'.status = Done || th'.det_excluded
         || (th.det_clock, th.tid) < (th'.det_clock, th'.tid)))
    eng.threads true

(* forward references, tied after their definitions below *)
let det_ensure_reacquired_ref : (t -> thread -> unit) ref =
  ref (fun _ _ -> ())

let det_ensure_reacquired_fwd eng th = !det_ensure_reacquired_ref eng th

let det_process_dooms_ref : (t -> thread -> unit) ref = ref (fun _ _ -> ())
let det_process_dooms_fwd eng th = !det_process_dooms_ref eng th

let det_gate ?(reacquire = true) eng (th : thread) =
  if det_mode eng then begin
    while not (det_min eng th) do
      set_status eng th (Blocked (BTurn (fun () -> "det")));
      th.turn_check <- Some (fun () -> det_min eng th);
      block_here ();
      th.turn_check <- None
    done;
    (* this thread now holds the strict-minimum turn; only here may it
       change lock state. Stripping doomed locks at gate *entry* instead
       would release them at an arbitrary physical moment inside the
       contenders' retry window, making the next owner a race on the
       host schedule. *)
    det_process_dooms_fwd eng th;
    (* a preemption can strip this thread's lock while it is parked at
       the gate; no thread leaves a gate without its locks, so plain
       code never runs unprotected. [reacquire:false] (a mutex spin)
       defers this: taking the locks back mid-spin would hand them
       straight back to a thread that cannot use them — the spinner's
       clock trails the bumped contender's, so it would win every turn
       and ping-pong the lock forever *)
    if reacquire && th.reacquire <> [] then
      det_ensure_reacquired_fwd eng th
  end

(* a failed acquisition attempt under the turn bumps the logical clock by
   a fixed amount and yields — the retry count, and hence the final
   clock, is a deterministic function of the contending clocks *)
let det_retry_bump eng (th : thread) =
  th.det_clock <- th.det_clock + eng.cfg.cost.c_sync;
  step eng th 1

(* deterministically park / unpark a thread around an intrinsic wait
   (cond/join/barrier/IO): parked threads leave the global-minimum rule *)
let det_park (th : thread) = th.det_excluded <- true

let det_unpark (th : thread) = th.det_excluded <- false


(* Wait for my turn for a sync op on [obj] during replay; no-op otherwise. *)
let gate_sync eng th (obj : K.addr) (op : Replay.Log.sync_op) =
  match eng.replayer with
  | None -> ()
  | Some r ->
      wait_turn eng r th
        ~what:(fun () ->
          Fmt.str "sync %a %a" K.pp_addr obj Replay.Log.pp_sync_op op)
        (fun () ->
          match Replay.Replayer.peek_sync r obj with
          | Some (op', p) -> op' = op && p = th.path
          | None ->
              (* beyond the log: unconstrained — but only on the final
                 segment of a streamed recording; mid-stream the op is
                 recorded in a later segment and must wait for it *)
              Replay.Replayer.unconstrained r)

let record_sync eng th (obj : K.addr) (op : Replay.Log.sync_op) =
  eng.stats.n_sync_ops <- eng.stats.n_sync_ops + 1;
  emit_ev eng th (Trace.Sync (op, obj));
  (match eng.recorder with
  | Some rc ->
      let t0 = ph_now eng in
      Replay.Recorder.rec_sync rc ~obj ~op ~tp:th.path;
      Replay.Recorder.maybe_seal rc ~now:eng.ticks;
      ph_add eng Phases.Recorder t0
  | None -> ());
  match eng.replayer with
  | Some r -> Replay.Replayer.advance_sync r obj
  | None -> ()

let gate_weak eng th (lock : weak_lock) =
  match eng.replayer with
  | None -> ()
  | Some r ->
      wait_turn eng r th
        ~what:(fun () -> Fmt.str "weak %a" pp_weak_lock lock)
        (fun () -> Replay.Replayer.weak_turn r lock ~tp:th.path)

let record_weak eng th (lock : weak_lock) ~(claim : Replay.Log.sclaim) =
  th.weak_acqs <- th.weak_acqs + 1;
  let rank = granularity_rank lock.wl_gran in
  eng.stats.n_weak_acq.(rank) <- eng.stats.n_weak_acq.(rank) + 1;
  emit_ev eng th (Trace.Weak_acquire lock);
  (match eng.recorder with
  | Some rc ->
      let t0 = ph_now eng in
      Replay.Recorder.rec_weak rc ~lock ~tp:th.path ~claim;
      Replay.Recorder.maybe_seal rc ~now:eng.ticks;
      ph_add eng Phases.Recorder t0
  | None -> ());
  match eng.replayer with
  | Some r ->
      (* the served claim is validated against the recorded one: a
         difference means the replaying binary instruments differently
         than the recording one did (drift), reported in the outcome *)
      Replay.Replayer.consume_weak r lock ~tp:th.path ~claim ()
  | None -> ()

(** The schedule-independent (origin-space) view of a claim, for logs. *)
let stable_claim eng (claim : WL.claim) : Replay.Log.sclaim =
  List.filter_map
    (fun (r : WL.range) ->
      match Mem.find_opt eng.mem r.WL.rg_block with
      | Some b ->
          Some
            {
              Replay.Log.sr_origin = b.Mem.b_origin;
              sr_lo = r.WL.rg_lo;
              sr_hi = r.WL.rg_hi;
              sr_write = r.WL.rg_write;
            }
      | None -> None)
    claim

let gate_syscall eng th =
  det_ensure_reacquired_fwd eng th;
  det_gate eng th;
  match eng.replayer with
  | None -> ()
  | Some r ->
      wait_turn eng r th ~what:(fun () -> "syscall") (fun () ->
          match Replay.Replayer.peek_syscall r with
          | Some p -> p = th.path
          | None -> Replay.Replayer.unconstrained r)

let record_syscall eng th (values : int list) =
  eng.stats.n_syscalls <- eng.stats.n_syscalls + 1;
  emit_ev eng th Trace.Syscall;
  (match eng.recorder with
  | Some rc ->
      let t0 = ph_now eng in
      Replay.Recorder.rec_input rc ~tp:th.path values;
      Replay.Recorder.maybe_seal rc ~now:eng.ticks;
      ph_add eng Phases.Recorder t0
  | None -> ());
  match eng.replayer with
  | Some r -> Replay.Replayer.advance_syscall r
  | None -> ()

let fire_sync eng th ev =
  match eng.hooks.on_sync with Some f -> f th.tid ev | None -> ()

(* ------------------------------------------------------------------ *)
(* Wake management *)

let set_queue eng (q : runq) ts len =
  eng.n_multi <-
    eng.n_multi + Bool.to_int (len >= 2) - Bool.to_int (q.len >= 2);
  eng.n_busy <- eng.n_busy + Bool.to_int (len > 0) - Bool.to_int (q.len > 0);
  q.ts <- ts;
  q.len <- len

let enqueue eng (th : thread) =
  (* shortest queue; ties broken by lowest core id *)
  let best = ref 0 in
  for c = 1 to eng.cfg.cores - 1 do
    if eng.queues.(c).len < eng.queues.(!best).len then best := c
  done;
  th.core <- !best;
  let q = eng.queues.(!best) in
  set_queue eng q (q.ts @ [ th ]) (q.len + 1)

let make_runnable eng (th : thread) =
  set_status eng th Runnable;
  enqueue eng th

let wake eng (th : thread) =
  match th.status with
  | Blocked r ->
      (* accumulate weak-lock contention time *)
      (match r with
      | BWeak (l, _) ->
          let rank = granularity_rank l.wl_gran in
          eng.stats.weak_block_ticks.(rank) <-
            eng.stats.weak_block_ticks.(rank) + (eng.ticks - th.blocked_since);
          emit_ev eng th (Trace.Weak_wake l)
      | _ -> ());
      if th.reacquire <> [] && not (det_mode eng) then
        (* a preempted owner resumes only after reacquiring its lock; in
           deterministic mode the owner reacquires in its own execution
           stream (det_ensure_reacquired) so it wakes normally *)
        set_status eng th (Blocked BReacq)
      else make_runnable eng th
  | _ -> ()

let wake_tid eng tid =
  match Hashtbl.find_opt eng.threads tid with
  | Some th -> wake eng th
  | None -> ()

let self_block eng (th : thread) (reason : block_reason) =
  th.blocked_since <- eng.ticks;
  set_status eng th (Blocked reason);
  block_here ()


(* ------------------------------------------------------------------ *)
(* Synchronization builtins *)

let ptr_of (ce : thread -> Value.t) th =
  match ce th with
  | Value.VPtr p -> p
  | v -> Value.fault "expected pointer argument, got %a" Value.pp v

let rec mutex_lock ?(spin = false) eng th (key : K.addr) =
  gate_sync eng th key SMutexAcq;
  if not spin then det_ensure_reacquired_fwd eng th;
  det_gate ~reacquire:(not spin) eng th;
  match Runtime.Sync.Mutex.acquire eng.mutexes key ~tid:th.tid with
  | `Acquired ->
      (* if a preemption stripped our region locks mid-spin, take them
         back before the code behind the mutex touches shared state *)
      det_ensure_reacquired_fwd eng th;
      record_sync eng th key SMutexAcq;
      fire_sync eng th (SyAcquire key)
  | `Blocked when det_mode eng ->
      (* deterministic bump-and-retry (never a wake-list wait); the spin
         defers reacquisition of stripped locks — a spinner cannot use
         them, and holding them here deadlocks against the mutex owner *)
      det_retry_bump eng th;
      mutex_lock ~spin:true eng th key
  | `Blocked ->
      self_block eng th (BMutex key);
      mutex_lock eng th key

let mutex_unlock eng th (key : K.addr) =
  gate_sync eng th key SMutexRel;
  (* the release must land under the deterministic turn, like every
     other lock-state change (see [weak_enter]) *)
  det_ensure_reacquired_fwd eng th;
  det_gate eng th;
  (match Runtime.Sync.Mutex.release eng.mutexes key ~tid:th.tid with
  | `Released waiters -> List.iter (wake_tid eng) waiters
  | `Not_owner -> () (* unlocking a free/foreign mutex: tolerated, as glibc *));
  record_sync eng th key SMutexRel;
  fire_sync eng th (SyRelease key)

let barrier_wait eng th (key : K.addr) =
  gate_sync eng th key SBarrierWait;
  det_ensure_reacquired_fwd eng th;
  det_gate eng th;
  record_sync eng th key SBarrierWait;
  fire_sync eng th (SyBarrierArrive key);
  match Runtime.Sync.Barrier.wait eng.barriers key ~tid:th.tid with
  | `Released tids ->
      fire_sync eng th (SyBarrier key);
      List.iter
        (fun tid ->
          if tid <> th.tid then begin
            (match Hashtbl.find_opt eng.threads tid with
            | Some t' ->
                fire_sync eng t' (SyBarrier key);
                det_unpark t'
            | None -> ());
            wake_tid eng tid
          end)
        tids
  | `Blocked ->
      det_process_dooms_fwd eng th;
      det_park th;
      self_block eng th (BBarrier key);
      det_unpark th;
      det_ensure_reacquired_fwd eng th

let cond_wait eng th (ckey : K.addr) (mkey : K.addr) =
  gate_sync eng th ckey SCondWait;
  det_ensure_reacquired_fwd eng th;
  det_gate eng th;
  record_sync eng th ckey SCondWait;
  (* release the mutex *)
  (match Runtime.Sync.Mutex.release eng.mutexes mkey ~tid:th.tid with
  | `Released waiters -> List.iter (wake_tid eng) waiters
  | `Not_owner -> ());
  fire_sync eng th (SyRelease mkey);
  Runtime.Sync.Cond.wait eng.conds ckey ~tid:th.tid;
  det_process_dooms_fwd eng th;
  det_park th;
  self_block eng th (BCond ckey);
  det_unpark th;
  det_ensure_reacquired_fwd eng th;
  fire_sync eng th (SyCondWake ckey);
  (* reacquire the mutex (recorded as a mutex acquisition) *)
  mutex_lock eng th mkey

let cond_signal eng th (key : K.addr) ~broadcast =
  let op : Replay.Log.sync_op =
    if broadcast then SCondBroadcast else SCondSignal
  in
  gate_sync eng th key op;
  det_ensure_reacquired_fwd eng th;
  det_gate eng th;
  record_sync eng th key op;
  fire_sync eng th (SyCondSignal key);
  if broadcast then
    List.iter (wake_tid eng) (Runtime.Sync.Cond.broadcast eng.conds key)
  else
    match Runtime.Sync.Cond.signal eng.conds key with
    | Some tid -> wake_tid eng tid
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Weak-lock regions (Section 2.3) *)

(* A compiled claim range: its low and high bound expressions and whether
   the region writes it. *)
type crange = (thread -> Value.t) * (thread -> Value.t) * bool

let claim_of_ranges th (ranges : crange list) : WL.claim =
  (* single left-to-right pass; if any range fails to evaluate to a
     same-block pair, fall back to the total claim (sound). The
     evaluation side effects (mem-op hooks) of the remaining ranges still
     happen, exactly as in a full pass. *)
  let failed = ref false in
  let rs =
    List.map
      (fun ((clo, chi, write) : crange) ->
        match (clo th, chi th) with
        | Value.VPtr lo, Value.VPtr hi when lo.p_block = hi.p_block ->
            {
              WL.rg_block = lo.p_block;
              rg_lo = min lo.p_off hi.p_off;
              rg_hi = max lo.p_off hi.p_off;
              rg_write = write;
            }
        | _ ->
            failed := true;
            { WL.rg_block = 0; rg_lo = 0; rg_hi = 0; rg_write = false })
      ranges
  in
  if !failed then [] else rs

(* forward reference: [apply_forced_release] is defined below but the
   deterministic acquire path needs to preempt conflicting owners *)
let forced_release_fwd : (t -> thread -> weak_lock -> unit) ref =
  ref (fun _ _ _ -> ())

(* Replay: before this thread changes weak-lock state, re-apply its own
   pending forced events that are already due (recorded at or before the
   current step count, lock currently held). The step-boundary check
   cannot cover these — a blocked acquisition retries without passing a
   new boundary, so a forced release recorded between a reacquisition and
   the next acquisition (same step count) would otherwise slide after the
   acquisition and reorder conflicting accesses. Each application parks
   the thread until maintenance has reacquired in recorded order. *)
let drain_own_forced eng (th : thread) =
  match eng.replayer with
  | None -> ()
  | Some r ->
      let rec go () =
        match
          Replay.Replayer.pending_forced r th.path ~steps:th.steps
            ~acqs:th.weak_acqs
            ~holds:(fun l -> WL.holds eng.weak l ~tid:th.tid)
        with
        | Some lock ->
            !forced_release_fwd eng th lock;
            (* [apply_forced_release] parked us as [BReacq]; yield until
               the maintenance pass has taken the lock back *)
            if th.status <> Runnable then block_here ();
            go ()
        | None -> ()
      in
      go ()

let rec weak_acquire_one ?(det_retries = 0) eng th (lock : weak_lock)
    (claim : WL.claim) =
  drain_own_forced eng th;
  gate_weak eng th lock;
  det_gate eng th;
  match WL.acquire eng.weak lock ~tid:th.tid ~claim with
  | `Acquired ->
      record_weak eng th lock ~claim:(stable_claim eng claim);
      fire_sync eng th (SyWeakAcq lock)
  | `Blocked owners when det_mode eng ->
      (* Deterministic bump-and-retry; after a fixed number of failed
         turns the conflicting owner is preempted — the deterministic
         analogue of the timeout of Section 2.3. A deterministically
         parked (excluded) owner is stripped immediately; a running or
         gate-parked one is "doomed" and strips itself at its next gate,
         keeping the preemption point inside the owner's own
         deterministic instruction stream. Immune (recovering) owners are
         left alone at first — but only up to a second, larger threshold:
         an immune owner that still holds the lock after that many turns
         is almost certainly blocked on program synchronization (a mutex)
         that this contender transitively holds, and will never release
         voluntarily — e.g. T1 holds m, wants L; T2 immune-holds L, spins
         on m. Breaking the immunity there restores liveness while still
         letting normal recoveries finish undisturbed. *)
      if det_retries >= 50 then
        List.iter
          (fun otid ->
            if otid <> th.tid then
              match Hashtbl.find_opt eng.threads otid with
              | Some owner ->
                  let immune = List.mem lock owner.det_immune in
                  if (not immune) || det_retries >= 300 then begin
                    if immune then
                      owner.det_immune <-
                        List.filter (fun l -> l <> lock) owner.det_immune;
                    if owner.det_excluded then
                      !forced_release_fwd eng owner lock
                    else if not (List.mem lock owner.det_doomed) then
                      owner.det_doomed <- lock :: owner.det_doomed
                  end
              | None -> ())
          owners;
      det_retry_bump eng th;
      weak_acquire_one ~det_retries:(det_retries + 1) eng th lock claim
  | `Blocked _owners ->
      emit_ev eng th
        (Trace.Weak_block (lock, WL.waiter_count eng.weak lock));
      self_block eng th (BWeak (lock, claim));
      weak_acquire_one eng th lock claim

(* Deterministic reacquisition in the owner's own execution stream: a
   preempted owner takes its lock back through the same turn-gated,
   retry-bumped protocol as any acquisition, so the whole recovery is a
   function of the logical clocks (never of wall ticks). Call on every
   det-mode resume path and before gated operations. *)
let det_ensure_reacquired eng th =
  (* the guard makes this reentrant-safe: the acquisition below passes a
     det gate whose exit would otherwise call back in here (the entry is
     still listed) and take the same lock a second time — a double hold
     under two claims that can then block against itself forever *)
  if det_mode eng && not th.det_reacquiring then begin
    th.det_reacquiring <- true;
    Fun.protect
      ~finally:(fun () -> th.det_reacquiring <- false)
      (fun () ->
        while th.reacquire <> [] do
          match th.reacquire with
          | [] -> ()
          | (lock, claim) :: rest ->
              if not (WL.holds eng.weak lock ~tid:th.tid) then
                weak_acquire_one eng th lock claim;
              th.det_immune <- lock :: th.det_immune;
              set_reacquire eng th rest
        done)
  end

let () = det_ensure_reacquired_ref := det_ensure_reacquired

(* [drop_immune:false] when the caller already swept the whole batch out
   of [det_immune] in one pass — the per-lock filter here would rescan
   the list once per released lock *)
let weak_release_one ?(drop_immune = true) eng th (lock : weak_lock) =
  if drop_immune && th.det_immune <> [] then
    th.det_immune <- List.filter (fun l -> l <> lock) th.det_immune;
  emit_ev eng th (Trace.Weak_release lock);
  List.iter (wake_tid eng) (WL.release eng.weak lock ~tid:th.tid);
  fire_sync eng th (SyWeakRel lock)

(* Release a batch of region locks: charge all step costs first, then
   perform the releases with no step in between. In deterministic mode
   the whole batch lands under one strict-minimum turn — a release that
   landed at an arbitrary physical point inside the contenders' retry
   window would hand the lock to whichever spinner's attempt physically
   follows it, a race on the host schedule. *)
(* membership index over a batch of locks: the reacquire-list filters
   below test each pending entry against the whole batch, so give the
   batch O(1) lookups instead of rescanning the list per entry *)
let lock_set_of (ls : weak_lock list) : (weak_lock, unit) Hashtbl.t =
  let s = Hashtbl.create (2 * List.length ls) in
  List.iter (fun l -> Hashtbl.replace s l ()) ls;
  s

let release_batch eng th (ls : weak_lock list) =
  let cost = eng.cfg.cost in
  List.iter
    (fun _ ->
      eng.stats.weak_op_ticks <- eng.stats.weak_op_ticks + cost.c_weak_op;
      step eng th cost.c_weak_op)
    ls;
  if ls <> [] then begin
    det_gate ~reacquire:false eng th;
    let in_batch = lazy (lock_set_of ls) in
    (* a doom processed at this very gate may have stripped one of the
       locks we are about to release; cancel its reacquisition — we were
       freeing it anyway, and a stale entry would be reacquired at a
       later gate, outside the region, and then never released *)
    if th.reacquire <> [] then
      set_reacquire eng th
        (List.filter
           (fun (l, _) -> not (Hashtbl.mem (Lazy.force in_batch) l))
           th.reacquire);
    (* sweep the whole batch out of the immunity list in one pass rather
       than one rescan per released lock *)
    if th.det_immune <> [] then
      th.det_immune <-
        List.filter
          (fun l -> not (Hashtbl.mem (Lazy.force in_batch) l))
          th.det_immune;
    List.iter (fun l -> weak_release_one ~drop_immune:false eng th l) ls
  end

(* enter an instrumented region: suspend the enclosing region's locks,
   acquire ours in canonical order.

   The deterministic gate covers the *releases* (the suspension of the
   outer region), not just the acquisitions: in deterministic mode every
   lock-state change must land while its thread holds the strict
   global-minimum turn, or the winner of a freed lock becomes whichever
   spinner's retry physically follows the release — a race on the host
   schedule, not a function of the logical clocks. *)
let weak_enter eng th (acqs : (weak_lock * crange list) array)
    (order : int list) =
  let cost = eng.cfg.cost in
  (match th.regions with
  | { rg_acqs } :: _ ->
      if rg_acqs <> [] then det_ensure_reacquired eng th;
      (* suspend outer region *)
      release_batch eng th (List.map fst rg_acqs)
  | [] -> ());
  (* claims are evaluated in source order (the hook-visible side effects
     must not move), then taken in the canonical lock order [order], which
     the compiler fixed once from the statement's static lock list *)
  let claims = Array.map (fun (_, ranges) -> claim_of_ranges th ranges) acqs in
  let resolved = List.map (fun i -> (fst acqs.(i), claims.(i))) order in
  List.iter
    (fun ((l : weak_lock), claim) ->
      let c =
        cost.c_weak_op + (List.length claim * cost.c_range) + charge_log_weak eng
      in
      eng.stats.weak_op_ticks <-
        eng.stats.weak_op_ticks + cost.c_weak_op
        + (List.length claim * cost.c_range);
      step eng th c;
      weak_acquire_one eng th l claim)
    resolved;
  emit_ev eng th (Trace.Region_enter (List.length resolved));
  th.regions <- { rg_acqs = resolved } :: th.regions

(* reacquire the locks of the now-innermost region, suspended when the
   region just left was entered *)
let resume_outer_region eng th =
  match th.regions with
  | { rg_acqs } :: _ ->
      let cost = eng.cfg.cost in
      List.iter
        (fun (l, claim) ->
          let c = cost.c_weak_op + charge_log_weak eng in
          eng.stats.weak_op_ticks <- eng.stats.weak_op_ticks + cost.c_weak_op;
          step eng th c;
          weak_acquire_one eng th l claim)
        rg_acqs
  | [] -> ()

(* exit a region: release our locks, reacquire the suspended outer ones.
   Gated for the same reason as [weak_enter]: the releases must happen
   under the deterministic turn. *)
let weak_exit eng th (locks : weak_lock list) =
  (* a lock stripped from the exiting region and not yet reacquired is
     no longer needed: drop the pending reacquisition rather than taking
     the lock back only to free it — a stale entry that survived the
     exit would later be reacquired outside any region and never
     released (strips only ever target held, i.e. innermost-region,
     locks, so membership in the exiting region is the precise test) *)
  (if th.reacquire <> [] then
     let exiting =
       match th.regions with
       | { rg_acqs } :: _ -> lock_set_of (List.map fst rg_acqs)
       | [] -> lock_set_of locks
     in
     set_reacquire eng th
       (List.filter
          (fun (l, _) -> not (Hashtbl.mem exiting l))
          th.reacquire));
  det_ensure_reacquired eng th;
  emit_ev eng th
    (Trace.Region_exit
       (match th.regions with
       | { rg_acqs } :: _ -> List.length rg_acqs
       | [] -> List.length locks));
  (match th.regions with
  | { rg_acqs } :: rest ->
      release_batch eng th (List.map fst rg_acqs);
      th.regions <- rest;
      resume_outer_region eng th
  | [] ->
      (* unbalanced exit: tolerate (can happen via break/return paths if
         the instrumenter missed a path; release defensively) *)
      if locks <> [] then begin
        det_gate ~reacquire:false eng th;
        (if th.det_immune <> [] then
           let in_batch = lock_set_of locks in
           th.det_immune <-
             List.filter
               (fun l -> not (Hashtbl.mem in_batch l))
               th.det_immune);
        List.iter (fun l -> weak_release_one ~drop_immune:false eng th l) locks
      end)

(* Forced release (timeout-preemption or replayed forced event), applied
   engine-side: strip [lock] from [owner], remember it for reacquisition. *)
let apply_forced_release eng (owner : thread) (lock : weak_lock) =
  if WL.holds eng.weak lock ~tid:owner.tid then begin
    eng.stats.n_forced <- eng.stats.n_forced + 1;
    emit_ev eng owner (Trace.Weak_forced lock);
    (match eng.recorder with
    | Some rc ->
        let t0 = ph_now eng in
        Replay.Recorder.rec_forced rc ~owner:owner.path ~steps:owner.steps
          ~acqs:owner.weak_acqs ~lock;
        Replay.Recorder.maybe_seal rc ~now:eng.ticks;
        ph_add eng Phases.Recorder t0
    | None -> ());
    (* the stripped owner's work so far happens-before the next
       acquisition: emit the release edge for dynamic analyses *)
    fire_sync eng owner (SyWeakRel lock);
    let woken =
      (* handoff orders recovery while recording; replay follows the log
         and deterministic mode follows the global-minimum turn instead *)
      WL.force_release
        ~handoff:(eng.replayer = None && not (det_mode eng))
        eng.weak lock ~owner:owner.tid
    in
    (* find the claim in the owner's regions so reacquisition matches *)
    let claim =
      List.fold_left
        (fun acc r ->
          match acc with
          | Some _ -> acc
          | None ->
              List.find_opt (fun (l, _) -> l = lock) r.rg_acqs
              |> Option.map snd)
        None owner.regions
      |> Option.value ~default:[]
    in
    if not (List.exists (fun (l, _) -> l = lock) owner.reacquire) then
      set_reacquire eng owner (owner.reacquire @ [ (lock, claim) ]);
    (* a running owner parks until it has the lock back; one blocked on
       program synchronization keeps waiting there and reacquires when
       woken (see [wake]). In deterministic mode the owner stripped
       itself at one of its own gates and reacquires at that gate's exit
       — parking it here would orphan it (no maintenance path wakes a
       det-mode BReacq). *)
    if owner.status = Runnable && not (det_mode eng) then begin
      owner.blocked_since <- eng.ticks;
      set_status eng owner (Blocked BReacq)
    end;
    List.iter (wake_tid eng) woken
  end

let () = forced_release_fwd := apply_forced_release

(* The step handler's bookkeeping of a step costing [cost] ticks: the
   step count, the stall, deterministic time, and the forced releases
   due at this step boundary. A thread that is ahead gets it from the
   scheduler, at the tick its handler would have run. *)
let step_book eng (th : thread) cost =
  th.steps <- th.steps + 1;
  if det_mode eng then th.det_clock <- th.det_clock + cost;
  th.stall <- (if cost > 1 then cost - 1 else 0);
  (* apply pending forced releases at this step boundary *)
  (match th.force_now with
  | [] -> ()
  | ls ->
      List.iter (fun l -> apply_forced_release eng th l) ls;
      th.force_now <- []);
  (* replayed forced events keyed by step count *)
  match eng.replayer with
  | Some r when Replay.Replayer.has_forced r -> (
      match
        Replay.Replayer.pending_forced r th.path ~steps:th.steps
          ~acqs:th.weak_acqs
          ~holds:(fun l -> WL.holds eng.weak l ~tid:th.tid)
      with
      | Some lock -> apply_forced_release eng th lock
      | None -> ())
  | Some _ | None -> ()

(* Start running ahead at a cost-1 step: the handler's bookkeeping
   first, as a suspension would run it; a forced release that parks the
   thread suspends it there instead *)
let enter_ahead eng (th : thread) =
  step_book eng th 1;
  match th.status with
  | Runnable ->
      if Array.length th.ra_seg = 0 then
        th.ra_seg <- Array.make (3 * (ahead_cap + 1)) 0;
      th.ahead <- 1;
      th.ra_paid <- 0;
      th.ra_nev <- 0;
      mark_segment eng th 0
  | Blocked _ | Done -> block_here ()

(* the slow path of [step_priv]: run ahead when another thread is
   queued and the step costs one tick; a thread alone on the cores
   steps in place at the next ticks anyway *)
let step_priv_out eng (th : thread) cost =
  if cost = 1 && eng.ahead_on && not (eng.n_busy = 1 && eng.n_multi = 0) then
    enter_ahead eng th
  else begin
    th.step_cost <- cost;
    Effect.perform E_step
  end

(* A scheduling point of cost [cost] whose rest, up to the next one,
   reads and writes only cells of a frame no pointer can reach
   ([private_frame]) and reads only fixed globals ([fixed_globals]).
   Ahead, it is banked; otherwise it is taken in place when [step]
   would. *)
let[@inline] step_priv eng (th : thread) cost =
  if th.ahead > 0 then bank eng th
  else if
    not (cost = 1 && eng.n_busy = 1 && eng.n_multi = 0 && step_in_place eng th)
  then step_priv_out eng th cost

(* Hook events of a statement or loop. Ahead, they are deferred, coded
   as [id * 4 + kind], and fired when the scheduler pays the segment. *)
let ev_stmt = 0
let ev_loop_iter = 1
let ev_loop_enter = 2
let ev_loop_exit = 3

let defer (th : thread) kind id =
  if th.ra_nev = Array.length th.ra_ev then begin
    let bigger = Array.make (max 64 (2 * th.ra_nev)) 0 in
    Array.blit th.ra_ev 0 bigger 0 th.ra_nev;
    th.ra_ev <- bigger
  end;
  th.ra_ev.(th.ra_nev) <- (id lsl 2) lor kind;
  th.ra_nev <- th.ra_nev + 1

let[@inline] hook_ev (th : thread) (f : int -> int -> unit) kind id =
  if th.ahead = 0 then f th.tid id else defer th kind id

let fire_deferred eng (th : thread) ev =
  let h = eng.hooks in
  match
    match ev land 3 with
    | 0 -> h.on_stmt
    | 1 -> h.on_loop_iter
    | 2 -> h.on_loop_enter
    | _ -> h.on_loop_exit
  with
  | Some f -> f th.tid (ev asr 2)
  | None -> ()

(* Pay the resumptions owed to [th] at this tick: the next segment's
   counts and hook events, then the handler's bookkeeping of the step
   that ends it, taken in place when [step] would take it in place
   (then the next owed resumption falls in this core tick too). The
   last owed resumption resumes the fiber where it parked. *)
let rec pay_ahead eng (th : thread) =
  let j = th.ra_paid + 1 in
  th.ra_paid <- j;
  let s = th.ra_seg and i = 3 * j in
  eng.stats.n_stmts <- eng.stats.n_stmts + s.(i) - s.(i - 3);
  eng.stats.n_mem_ops <- eng.stats.n_mem_ops + s.(i + 1) - s.(i - 2);
  for e = s.(i - 1) to s.(i + 2) - 1 do
    fire_deferred eng th th.ra_ev.(e)
  done;
  if th.ahead = 1 then begin
    th.ahead <- 0;
    th.suspended <- false;
    Effect.Deep.continue th.resume ()
  end
  else begin
    th.ahead <- th.ahead - 1;
    eng.stats.n_steps_ahead <- eng.stats.n_steps_ahead + 1;
    if eng.n_busy = 1 && eng.n_multi = 0 && step_in_place eng th then
      pay_ahead eng th
    else step_book eng th 1
  end

(* self-strip doomed locks at a deterministic point in this thread's own
   instruction stream (det_gate entry / park); the gate-exit
   reacquisition then restores them with immunity *)
let det_process_dooms eng (th : thread) =
  if th.det_doomed <> [] then begin
    let dooms = th.det_doomed in
    th.det_doomed <- [];
    List.iter
      (fun lock ->
        if
          WL.holds eng.weak lock ~tid:th.tid
          && not (List.mem lock th.det_immune)
        then apply_forced_release eng th lock)
      dooms
  end

let () = det_process_dooms_ref := det_process_dooms


(* ------------------------------------------------------------------ *)
(* System calls *)

exception Return_value of Value.t
exception Brk
exception Cnt

let next_io_req (th : thread) ~max =
  let seq = th.io_seq in
  th.io_seq <- seq + 1;
  { Iomodel.rq_tid_path = th.path; rq_seq = seq; rq_max = max }

(* [input()] *)
let sys_input eng th : Value.t =
  gate_syscall eng th;
  let v =
    match eng.replayer with
    | Some r -> (
        match Replay.Replayer.take_input r th.path with
        | Some [ v ] -> v
        | Some _ | None ->
            emit_ev eng th Trace.Replay_miss;
            eng.io.io_input (next_io_req th ~max:0))
    | None -> eng.io.io_input (next_io_req th ~max:0)
  in
  record_syscall eng th [ v ];
  step eng th (eng.cfg.cost.c_syscall + charge_log_input eng 1);
  VInt v

(* [output(v)] *)
let sys_output eng th (v : int) : unit =
  gate_syscall eng th;
  (* every syscall records one burst (empty for output) — replay must
     consume it to keep the per-thread input stream aligned *)
  (match eng.replayer with
  | Some r -> ignore (Replay.Replayer.take_input r th.path)
  | None -> ());
  record_syscall eng th [];
  eng.outputs <- (th.path, v) :: eng.outputs;
  step eng th (eng.cfg.cost.c_syscall + charge_log_input eng 0)

(* [net_read(buf, max)] / [file_read(buf, max)] *)
let sys_read eng th ~sid ~(net : bool) cbuf cmax : Value.t =
  let buf = ptr_of cbuf th in
  let maxn = Value.to_int (cmax th) in
  let latency = if net then eng.cfg.cost.l_net else eng.cfg.cost.l_file in
  (* Latency is wall-time emulation: replay feeds recorded input
     directly, and deterministic execution must not let real time
     influence gate ordering (a thread parked in I/O leaves the
     global-minimum rule, so its return must not race the clock). *)
  (if eng.replayer = None && not (det_mode eng) then begin
     (* [blocked_since] deliberately untouched: IO parks never fed the
        weak-timeout clock *)
     set_status eng th (Blocked (BIO (eng.ticks + latency)));
     block_here ()
   end);
  gate_syscall eng th;
  let bytes =
    match eng.replayer with
    | Some r -> (
        match Replay.Replayer.take_input r th.path with
        | Some vs -> vs
        | None ->
            emit_ev eng th Trace.Replay_miss;
            [])
    | None -> eng.io.io_read (next_io_req th ~max:maxn)
  in
  let bytes = Runtime.Listx.take maxn bytes in
  record_syscall eng th bytes;
  step eng th (eng.cfg.cost.c_syscall + charge_log_input eng (List.length bytes));
  List.iteri
    (fun i b ->
      let off = buf.Value.p_off + i in
      on_mem eng th buf.p_block off ~write:true ~sid;
      Mem.store_at eng.mem buf.p_block off (Value.of_byte b))
    bytes;
  VInt (List.length bytes)

(* ------------------------------------------------------------------ *)
(* Function & statement execution *)

(* store [args] in order at the parameter offsets [offs] of block [blk];
   arguments beyond the parameters, or parameters beyond the arguments,
   are left alone *)
let rec bind_params eng blk offs (args : Value.t list) =
  match (offs, args) with
  | off :: offs, v :: args ->
      Mem.store_at eng.mem blk off v;
      bind_params eng blk offs args
  | _ -> ()

(* Static queries of the compiler (an expression's type, a field offset,
   an element size) fail only on a program that skipped
   [Typecheck.check]: a checked one has a type at every lvalue and
   expression and a size at every lvalue's type (DESIGN §26). The
   failure becomes the message of the [Value.Fault] that [faulting]
   raises when the program reaches the node. *)
let static f =
  match f () with
  | v -> Ok v
  | exception
      (Minic.Typecheck.Type_error (m, _) | Invalid_argument m | Value.Fault m)
    ->
      Error m

(* the closure of a node whose static query failed: evaluate the node's
   operand, then fault *)
let faulting m c th =
  ignore (c th);
  raise (Value.Fault m)

(* the statements of a block, in order; unlike [List.iter] with a
   closure over [th], it allocates nothing *)
let rec run_all cs (th : thread) =
  match cs with
  | [] -> ()
  | c :: rest ->
      c th;
      run_all rest th

(* the variable an lvalue names cells of, unless it goes through a
   pointer *)
let rec root = function
  | Var v -> Some v
  | Index (lv, _) | Field (lv, _) -> root lv
  | Deref _ | Arrow _ -> None

(* the store target of a statement *)
let stmt_target (s : stmt) =
  match s.skind with
  | Assign (lv, _) | Call (Some lv, _, _) | Builtin (Some lv, _, _) -> Some lv
  | _ -> None

(* [f arr e] at each expression [e] a statement evaluates, its store
   target as [Lval] first, where [arr] tells whether [e] may hold the
   address of an array local (DESIGN.md §25): an argument of
   [file_read] or [net_read], which the builtin writes only after a
   thread that is ahead has parked and keeps no copy of, and a weak
   range bound, which only names a claim. *)
let iter_stmt_exps f (s : stmt) =
  Option.iter (fun lv -> f false (Lval lv)) (stmt_target s);
  match s.skind with
  | Assign (_, e) | If (e, _, _) | While (e, _, _) | Return (Some e) ->
      f false e
  | Call (_, tgt, args) ->
      (match tgt with Direct _ -> () | ViaPtr e -> f false e);
      List.iter (f false) args
  | Builtin (_, b, args) -> List.iter (f (b = FileRead || b = NetRead)) args
  | Return None | Break | Continue | WeakExit _ -> ()
  | WeakEnter acqs ->
      List.iter
        (fun a ->
          List.iter
            (fun r ->
              f true r.wr_lo;
              f true r.wr_hi)
            a.wa_ranges)
        acqs

(* an array a private frame may hold: of ints or of pointers *)
let flat_array = function Tarray ((Tint | Tptr _), _) -> true | _ -> false

(* [f] at every subexpression of [e], the operands of its lvalues
   included *)
let rec iter_exp f e =
  f e;
  match e with
  | Const _ -> ()
  | Lval lv | AddrOf lv -> iter_lval f lv
  | Unop (_, a) -> iter_exp f a
  | Binop (_, a, b) ->
      iter_exp f a;
      iter_exp f b

and iter_lval f = function
  | Var _ -> ()
  | Deref e | Arrow (e, _) -> iter_exp f e
  | Index (lv, e) ->
      iter_lval f lv;
      iter_exp f e
  | Field (lv, _) -> iter_lval f lv

(* Whether no pointer can reach a frame of [fd], so that only its own
   thread reads or writes its cells ([offsets] holds the frame's names):
   no parameter or local is a struct or an array of structs or arrays,
   no scalar local's address is taken, and an array local's address
   appears only where [iter_stmt_exps] allows it. *)
let private_frame offsets (fd : fundec) =
  let decls = fd.f_params @ fd.f_locals in
  let arrays =
    List.filter_map
      (fun (v : var_decl) ->
        match v.v_ty with Tarray _ -> Some v.v_name | _ -> None)
      decls
  in
  let array v = arrays <> [] && List.mem v arrays in
  let escapes arr = function
    | Lval (Var v) -> (not arr) && array v
    | AddrOf lv -> (
        match root lv with
        | Some v when Hashtbl.mem offsets v -> not (arr && array v)
        | Some _ | None -> false)
    | Const _ | Lval _ | Unop _ | Binop _ -> false
  in
  let ok =
    ref
      (List.for_all
         (fun (v : var_decl) ->
           match v.v_ty with
           | Tstruct _ -> false
           | Tarray _ as t -> flat_array t
           | Tvoid | Tint | Tptr _ | Tfun _ -> true)
         decls)
  in
  let check arr e = iter_exp (fun e -> if escapes arr e then ok := false) e in
  iter_stmts (fun s -> if !ok then iter_stmt_exps check s) fd.f_body;
  !ok

(* The scalar globals of [p] that hold their initializers for the whole
   run: no statement stores to one (a local of the same name shadows it)
   and no expression takes its address. Each global is its own memory
   block and an access outside a block faults, so no other access
   reaches its cell. *)
let fixed_globals (p : program) =
  let fixed = Hashtbl.create 16 in
  List.iter
    (fun (g : global) ->
      match g.g_ty with
      | Tint | Tptr _ -> Hashtbl.replace fixed g.g_name ()
      | Tvoid | Tarray _ | Tstruct _ | Tfun _ -> ())
    p.p_globals;
  List.iter
    (fun (fd : fundec) ->
      let locals = List.map (fun v -> v.v_name) (fd.f_params @ fd.f_locals) in
      let drop lv =
        match root lv with
        | Some v when Hashtbl.mem fixed v && not (List.mem v locals) ->
            Hashtbl.remove fixed v
        | Some _ | None -> ()
      in
      let addr = function AddrOf lv -> drop lv | _ -> () in
      iter_stmts
        (fun s ->
          Option.iter drop (stmt_target s);
          iter_stmt_exps (fun _ e -> iter_exp addr e) s)
        fd.f_body)
    p.p_funs;
  fixed

(* [fixed_globals] of the last program this domain ran. Profile runs,
   and a recording and its replays, build many engines over one
   program; walking it for each cost a knot or apache profile run a few
   percent of its time. The table is never written once built. *)
let last_fixed : (program * (string, unit) Hashtbl.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let fixed_of (p : program) =
  match Domain.DLS.get last_fixed with
  | Some (q, fixed) when q == p -> fixed
  | Some _ | None ->
      let fixed = fixed_globals p in
      Domain.DLS.set last_fixed (Some (p, fixed));
      fixed

(* An expression that reads only locals and elements of array locals of
   a private frame, and fixed globals. A decayed array local reads no
   cell; a private frame has one only in the arguments of builtins and
   in weak range bounds, which are no private step sites. *)
let rec frame_only eng offsets = function
  | Const _ -> true
  | Lval (Var v) -> Hashtbl.mem offsets v || Hashtbl.mem eng.fixed v
  | Lval (Index (Var a, e)) -> (
      match Hashtbl.find_opt offsets a with
      | Some (_, t) -> flat_array t && frame_only eng offsets e
      | None -> false)
  | Unop (_, e) -> frame_only eng offsets e
  | Binop (_, a, b) -> frame_only eng offsets a && frame_only eng offsets b
  | Lval _ | AddrOf _ -> false

(* The end of a call that returns to its caller: give the caller's
   frame back, unwind the instrumented regions opened in this frame (a
   [return] inside a weak-lock region skips the WeakExit statements):
   release the innermost region's locks, drop this frame's regions, and
   restore the caller's suspended region if any was uncovered. Then
   free the frame. A thread that is ahead parks first. *)
let leave eng th (c : callee) ~blk ~caller ~region_depth =
  if th.ahead > 0 then park eng th;
  th.fr_blk <- caller;
  if List.length th.regions > region_depth then begin
    (match th.regions with
    | { rg_acqs } :: _ ->
        List.iter (fun (l, _) -> weak_release_one eng th l) rg_acqs
    | [] -> ());
    let rec drop rs =
      if List.length rs > region_depth then drop (List.tl rs) else rs
    in
    th.regions <- drop th.regions;
    resume_outer_region eng th
  end;
  Mem.free eng.mem blk;
  match eng.hooks.on_exit_fun with Some f -> f th.tid c.c_name | None -> ()

(* A call of [c] with [args]. Every closure reads the running frame's
   block from [th.fr_blk]: a call sets it and gives the caller's back on
   every way out of the body. A return, and a [break] or [continue] that
   unwinds into the caller's loop, which then reads its own locals,
   leave through [leave]. A fault, an [exit], and a [break] or
   [continue] out of the thread's first function (a fault) end the
   thread or the run, and [finish_thread] releases what it holds. *)
let rec exec_fun eng th (c : callee) (args : Value.t list) : Value.t =
  (match eng.hooks.on_enter_fun with Some f -> f th.tid c.c_name | None -> ());
  let origin = K.OFrame (th.path, th.frame_seq) in
  th.frame_seq <- th.frame_seq + 1;
  let blk = (Mem.alloc eng.mem origin c.c_size).b_id in
  bind_params eng blk c.c_params args;
  let caller = th.fr_blk in
  th.fr_blk <- blk;
  let region_depth = List.length th.regions in
  match c.c_body th with
  | () ->
      leave eng th c ~blk ~caller ~region_depth;
      Value.zero
  | exception Return_value v ->
      leave eng th c ~blk ~caller ~region_depth;
      v
  | exception ((Brk | Cnt) as e) when caller <> 0 ->
      leave eng th c ~blk ~caller ~region_depth;
      raise_notrace e
  | exception e ->
      if th.ahead > 0 then park eng th;
      th.fr_blk <- caller;
      (match eng.hooks.on_exit_fun with
      | Some f -> f th.tid c.c_name
      | None -> ());
      raise e

(* A thread's whole execution: [fname] applied to [args]. A [break] or
   [continue] outside any loop unwinds to here and faults the thread. *)
and thread_body eng th (fname : string) (args : Value.t list) : unit =
  try ignore (exec_fun eng th (callee eng fname) args)
  with Brk | Cnt -> Value.fault "break or continue outside a loop"

(* ------------------------------------------------------------------ *)
(* Closure compilation: the evaluator.

   Each function body is staged once, on its first call, into a tree of
   closures of type [thread -> _] (DESIGN.md §24). Variable offsets,
   field offsets, element sizes, static lvalue types, builtin arities
   and each weak region's canonical lock order are resolved at compile
   time; at run time the closures only perform the program's [step]
   effects, hook events, loads, stores, and faults. Their order is the
   engine's semantics, pinned by the golden tick counts, record ==
   replay, and the trace stable-stream checks.

   Compilation is total: it never raises. Whatever it cannot resolve
   statically (an unbound variable, a field of a non-struct, a builtin of
   the wrong arity) compiles to a closure that raises [Value.Fault] when
   execution reaches it, after evaluating the node's operands. *)

(* [fname]'s layout and body. An undefined function, or a frame that
   declares an unknown struct, faults the call that reaches it, before
   the callee is entered. *)
and callee eng (fname : string) : callee =
  match Hashtbl.find_opt eng.callees fname with
  | Some c -> c
  | None ->
      let fd =
        match Hashtbl.find_opt eng.tenv.funs fname with
        | Some fd -> fd
        | None -> Value.fault "call to undefined function %s" fname
      in
      let offsets = Hashtbl.create 8 in
      let off = ref 0 in
      List.iter
        (fun (v : var_decl) ->
          Hashtbl.replace offsets v.v_name (!off, v.v_ty);
          let size =
            (* an unchecked program's declaration of an unknown struct *)
            try Layout.sizeof eng.layout v.v_ty
            with Invalid_argument m -> raise (Value.Fault m)
          in
          off := !off + max 1 size)
        (fd.f_params @ fd.f_locals);
      (* looked up in the finished table, so a local that shadows a
         parameter receives its argument, as it always has *)
      let params =
        List.map
          (fun (p : var_decl) -> fst (Hashtbl.find offsets p.v_name))
          fd.f_params
      in
      let env = Minic.Typecheck.fun_env eng.tenv fd in
      let pf = private_frame offsets fd in
      let c =
        {
          c_name = fname;
          c_size = !off;
          c_params = params;
          c_body = compile_block eng ~offsets ~env ~pf fd.f_body;
        }
      in
      Hashtbl.replace eng.callees fname c;
      c

(* [pf]: the function's frame is private ([private_frame]) *)
and compile_block eng ~offsets ~env ~pf (b : block) : thread -> unit =
  match List.map (compile_stmt eng ~offsets ~env ~pf) b with
  | [] -> fun _ -> ()
  | [ c ] -> c
  | cs -> fun th -> run_all cs th

and compile_stmt eng ~offsets ~env ~pf (s : stmt) : thread -> unit =
  let sid = s.sid in
  let cost = eng.cfg.cost in
  let on_stmt th =
    match eng.hooks.on_stmt with Some f -> hook_ev th f ev_stmt sid | None -> ()
  in
  (* a step site whose rest reads only the private frame and fixed
     globals *)
  let priv e = pf && frame_only eng offsets e in
  match s.skind with
  | Assign (lv, e) ->
      let ce = compile_exp eng ~offsets ~env ~sid e in
      let cstore = compile_store eng ~offsets ~env ~sid lv in
      let pe = priv e and ps = priv (Lval lv) in
      fun th ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        if pe then step_priv eng th cost.c_stmt else step eng th cost.c_stmt;
        let v = ce th in
        (* separate scheduling point between the read(s) and the write:
           this is what makes load-store races observable *)
        if ps then step_priv eng th 1 else step eng th 1;
        cstore th v
  | Call (ret, tgt, args) -> (
      let cfname =
        match tgt with
        | Direct f -> fun _ -> f
        | ViaPtr e -> (
            let ce = compile_exp eng ~offsets ~env ~sid e in
            fun th ->
              match ce th with
              | Value.VFun f -> f
              | Value.VPtr _ | Value.VInt _ ->
                  Value.fault "indirect call through non-function value")
      in
      (* a direct call resolves its callee once, after its arguments; a
         failed resolution raises its fault again at every later call *)
      let resolve =
        match tgt with
        | Direct f ->
            let c = lazy (callee eng f) in
            fun _ -> Lazy.force c
        | ViaPtr _ -> callee eng
      in
      let cargs = List.map (compile_exp eng ~offsets ~env ~sid) args in
      let cret = Option.map (compile_store eng ~offsets ~env ~sid) ret in
      fun th ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        step eng th cost.c_stmt;
        let fname = cfname th in
        let argv = List.map (fun c -> c th) cargs in
        let v = exec_fun eng th (resolve fname) argv in
        match cret with Some cstore -> cstore th v | None -> ())
  | Builtin (ret, b, args) ->
      let cb = compile_builtin eng ~offsets ~env ~sid ret b args in
      fun th ->
        if th.ahead > 0 then park eng th;
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        cb th
  | If (c, b1, b2) ->
      let cc = compile_cond eng ~offsets ~env ~sid c in
      let cb1 = compile_block eng ~offsets ~env ~pf b1 in
      let cb2 = compile_block eng ~offsets ~env ~pf b2 in
      let pc = priv c in
      fun th ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        if pc then step_priv eng th cost.c_stmt else step eng th cost.c_stmt;
        if cc th then cb1 th else cb2 th
  | While (c, body, li) ->
      let cc = compile_cond eng ~offsets ~env ~sid c in
      let cbody = compile_block eng ~offsets ~env ~pf body in
      let cstep = Option.map (compile_stmt eng ~offsets ~env ~pf) li.l_step in
      let pc = priv c and lid = li.lid in
      fun th ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        (match eng.hooks.on_loop_enter with
        | Some f -> hook_ev th f ev_loop_enter lid
        | None -> ());
        (try
           while
             if pc then step_priv eng th cost.c_stmt
             else step eng th cost.c_stmt;
             cc th
           do
             (match eng.hooks.on_loop_iter with
             | Some f -> hook_ev th f ev_loop_iter lid
             | None -> ());
             try cbody th
             with Cnt ->
               (* continue in a for-loop still executes the increment *)
               Option.iter (fun c -> c th) cstep
           done
         with Brk -> ());
        (match eng.hooks.on_loop_exit with
        | Some f -> hook_ev th f ev_loop_exit lid
        | None -> ())
  | Return e ->
      let ce = Option.map (compile_exp eng ~offsets ~env ~sid) e in
      let pr = match e with Some e -> priv e | None -> pf in
      fun th ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        if pr then step_priv eng th cost.c_stmt else step eng th cost.c_stmt;
        let v = match ce with Some c -> c th | None -> Value.zero in
        raise_notrace (Return_value v)
  | Break | Continue ->
      let exn = if s.skind = Break then Brk else Cnt in
      fun th ->
        on_stmt th;
        if pf then step_priv eng th 1 else step eng th 1;
        raise_notrace exn
  | WeakEnter acqs ->
      let cexp = compile_exp eng ~offsets ~env ~sid in
      let cacqs =
        Array.of_list
          (List.map
             (fun a ->
               ( a.wa_lock,
                 List.map
                   (fun r -> (cexp r.wr_lo, cexp r.wr_hi, r.wr_write))
                   a.wa_ranges ))
             acqs)
      in
      (* the canonical acquisition order, as indices into [cacqs]; the
         stable sort keeps equal locks in source order *)
      let order =
        List.stable_sort
          (fun i j -> compare_weak_lock (fst cacqs.(i)) (fst cacqs.(j)))
          (List.init (Array.length cacqs) Fun.id)
      in
      fun th ->
        if th.ahead > 0 then park eng th;
        on_stmt th;
        weak_enter eng th cacqs order
  | WeakExit locks ->
      fun th ->
        if th.ahead > 0 then park eng th;
        on_stmt th;
        weak_exit eng th locks

(* A builtin call statement, after its [on_stmt] hook and statement count.
   Arguments evaluate in the order each builtin states; a return value is
   stored after the builtin has run. *)
and compile_builtin eng ~offsets ~env ~sid ret (b : builtin) (args : exp list)
    : thread -> unit =
  let cost = eng.cfg.cost in
  let cret = Option.map (compile_store eng ~offsets ~env ~sid) ret in
  let store_ret th v =
    match cret with Some cstore -> cstore th v | None -> ()
  in
  let sync_key c th = Mem.addr_key eng.mem (ptr_of c th) in
  match (b, List.map (compile_exp eng ~offsets ~env ~sid) args) with
  | Spawn, ctarget :: crest ->
      fun th ->
        step eng th cost.l_spawn;
        let fname =
          match ctarget th with
          | Value.VFun f -> f
          | _ -> Value.fault "spawn of non-function"
        in
        let argv = List.map (fun c -> c th) crest in
        let child_path = th.path @ [ th.spawn_seq ] in
        th.spawn_seq <- th.spawn_seq + 1;
        let child = new_thread eng child_path in
        child.det_clock <- th.det_clock;
        child.body <-
          Some
            (fun () ->
              fire_sync eng child SyThreadStart;
              thread_body eng child fname argv);
        fire_sync eng th (SySpawn child.tid);
        enqueue eng child;
        store_ret th (VInt child.tid)
  | Join, [ c ] ->
      fun th ->
        step eng th cost.c_sync;
        let target = Value.to_int (c th) in
        let rec wait () =
          match Hashtbl.find_opt eng.threads target with
          | Some t' when t'.status <> Done ->
              det_process_dooms_fwd eng th;
              det_park th;
              self_block eng th (BJoin target);
              det_unpark th;
              det_ensure_reacquired_fwd eng th;
              wait ()
          | _ -> ()
        in
        wait ();
        fire_sync eng th (SyJoin target)
  | MutexLock, [ c ] ->
      fun th ->
        step eng th (cost.c_sync + charge_log_sync eng);
        mutex_lock eng th (sync_key c th)
  | MutexUnlock, [ c ] ->
      fun th ->
        step eng th (cost.c_sync + charge_log_sync eng);
        mutex_unlock eng th (sync_key c th)
  | BarrierInit, [ c; cn ] ->
      fun th ->
        step eng th (cost.c_sync + charge_log_sync eng);
        let key = sync_key c th in
        gate_sync eng th key SBarrierInit;
        record_sync eng th key SBarrierInit;
        Runtime.Sync.Barrier.init eng.barriers key
          ~count:(Value.to_int (cn th))
  | BarrierWait, [ c ] ->
      fun th ->
        step eng th (cost.c_sync + charge_log_sync eng);
        barrier_wait eng th (sync_key c th)
  | CondWait, [ cc; cm ] ->
      fun th ->
        step eng th (cost.c_sync + charge_log_sync eng);
        (* the mutex key first: the pinned evaluation order *)
        let mkey = sync_key cm th in
        cond_wait eng th (sync_key cc th) mkey
  | CondSignal, [ c ] ->
      fun th ->
        step eng th (cost.c_sync + charge_log_sync eng);
        cond_signal eng th (sync_key c th) ~broadcast:false
  | CondBroadcast, [ c ] ->
      fun th ->
        step eng th (cost.c_sync + charge_log_sync eng);
        cond_signal eng th (sync_key c th) ~broadcast:true
  | Input, [] -> fun th -> store_ret th (sys_input eng th)
  | Output, [ c ] ->
      fun th ->
        let v = Value.to_int (c th) in
        sys_output eng th v
  | NetRead, [ cbuf; cmax ] ->
      fun th -> store_ret th (sys_read eng th ~sid ~net:true cbuf cmax)
  | FileRead, [ cbuf; cmax ] ->
      fun th ->
        store_ret th (sys_read eng th ~sid ~net:false cbuf cmax)
  | Malloc, [ c ] ->
      fun th ->
        step eng th cost.c_stmt;
        let size = Value.to_int (c th) in
        let origin = K.OHeap (th.path, th.alloc_seq) in
        th.alloc_seq <- th.alloc_seq + 1;
        let blk = Mem.alloc eng.mem origin (max 1 size) in
        store_ret th (VPtr { Value.p_block = blk.Mem.b_id; p_off = 0 })
  | Free, [ c ] ->
      fun th ->
        step eng th cost.c_stmt;
        (match c th with
        | Value.VPtr p -> Mem.free eng.mem p.Value.p_block
        | _ -> ())
  | Yield, [] -> fun th -> step eng th 1
  | Exit, [ c ] ->
      fun th ->
        step eng th cost.c_stmt;
        raise (Program_exit (Value.to_int (c th)))
  | _ -> fun _ -> Value.fault "builtin %s: bad arity" (builtin_name b)

and compile_exp eng ~offsets ~env ~sid (e : exp) : thread -> Value.t =
  match e with
  | Const n ->
      let v = Value.VInt n in
      fun _ -> v
  | Lval (Var v) -> (
      match Hashtbl.find_opt offsets v with
      | Some (off, Tarray _) ->
          fun th -> VPtr { Value.p_block = th.fr_blk; p_off = off }
      | Some (off, _) ->
          fun th ->
            on_mem eng th th.fr_blk off ~write:false ~sid;
            Mem.load_at eng.mem th.fr_blk off
      | None ->
          if Hashtbl.mem eng.tenv.funs v then (
            let r = Value.VFun v in
            fun _ -> r)
          else (
            match Hashtbl.find_opt eng.globals v with
            | Some bid -> (
                match Hashtbl.find_opt eng.tenv.globals v with
                | Some (Tarray _) ->
                    let r = Value.VPtr { Value.p_block = bid; p_off = 0 } in
                    fun _ -> r
                | _ ->
                    fun th ->
                      on_mem eng th bid 0 ~write:false ~sid;
                      Mem.load_at eng.mem bid 0)
            | None -> fun _ -> Value.fault "unbound variable %s" v))
  | Lval lv -> (
      (* arrays decay to their address in expression position *)
      let caddr, ty = compile_lval eng ~offsets ~env ~sid lv in
      match ty with
      | Tarray _ ->
          fun th ->
            caddr th;
            VPtr (addr_ptr th)
      | _ ->
          fun th ->
            caddr th;
            let blk = th.a_blk and off = th.a_off in
            on_mem eng th blk off ~write:false ~sid;
            Mem.load_at eng.mem blk off)
  | AddrOf (Var v)
    when (not (Hashtbl.mem offsets v)) && Hashtbl.mem eng.tenv.funs v ->
      let r = Value.VFun v in
      fun _ -> r
  | AddrOf lv ->
      let caddr, _ = compile_lval eng ~offsets ~env ~sid lv in
      fun th ->
        caddr th;
        VPtr (addr_ptr th)
  | Unop (LNot, e) ->
      let cc = compile_cond eng ~offsets ~env ~sid e in
      fun th -> v_of_bool (not (cc th))
  | Unop (Neg, e) ->
      let ce = compile_exp eng ~offsets ~env ~sid e in
      fun th -> VInt (-Value.to_int (ce th))
  | Unop (BNot, e) ->
      let ce = compile_exp eng ~offsets ~env ~sid e in
      fun th -> VInt (lnot (Value.to_int (ce th)))
  | Binop ((LAnd | LOr | Lt | Le | Gt | Ge | Eq | Ne), _, _) ->
      let cc = compile_cond eng ~offsets ~env ~sid e in
      fun th -> v_of_bool (cc th)
  | Binop (op, a, b) -> (
      let ca = compile_exp eng ~offsets ~env ~sid a in
      let cb = compile_exp eng ~offsets ~env ~sid b in
      (* the operator is matched once here; [Add], [Sub] and [Mul], the
         operators the benches evaluate most, get a closure that computes
         the int case and leaves every other operand shape to [binop].
         The operands evaluate right to left, the order their hook
         events are pinned in. *)
      match op with
      | Add -> (
          fun th ->
            let vb = cb th in
            match (ca th, vb) with
            | Value.VInt x, Value.VInt y -> Value.VInt (x + y)
            | va, vb -> binop Add va vb)
      | Sub -> (
          fun th ->
            let vb = cb th in
            match (ca th, vb) with
            | Value.VInt x, Value.VInt y -> Value.VInt (x - y)
            | va, vb -> binop Sub va vb)
      | Mul -> (
          fun th ->
            let vb = cb th in
            match (ca th, vb) with
            | Value.VInt x, Value.VInt y -> Value.VInt (x * y)
            | va, vb -> binop Mul va vb)
      | op ->
          fun th ->
            let vb = cb th in
            binop op (ca th) vb)

(* A condition, compiled to a closure returning the truth value itself:
   comparisons and logical operators build no [Value.t]. It evaluates
   exactly what [compile_exp] of the same expression would, in the same
   order, and faults where it would. *)
and compile_cond eng ~offsets ~env ~sid (e : exp) : thread -> bool =
  match e with
  | Binop (LAnd, a, b) ->
      let ca = compile_cond eng ~offsets ~env ~sid a in
      let cb = compile_cond eng ~offsets ~env ~sid b in
      fun th -> ca th && cb th
  | Binop (LOr, a, b) ->
      let ca = compile_cond eng ~offsets ~env ~sid a in
      let cb = compile_cond eng ~offsets ~env ~sid b in
      fun th -> ca th || cb th
  | Unop (LNot, a) ->
      let ca = compile_cond eng ~offsets ~env ~sid a in
      fun th -> not (ca th)
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) -> (
      let ca = compile_exp eng ~offsets ~env ~sid a in
      let cb = compile_exp eng ~offsets ~env ~sid b in
      (* right to left, as in [compile_exp]; a non-int operand pair goes
         through [binop]'s pointer comparisons and faults *)
      let int_cmp (test : int -> int -> bool) th =
        let vb = cb th in
        let va = ca th in
        match (va, vb) with
        | Value.VInt x, Value.VInt y -> test x y
        | _ -> Value.truthy (binop op va vb)
      in
      match op with
      | Lt -> int_cmp ( < )
      | Le -> int_cmp ( <= )
      | Gt -> int_cmp ( > )
      | Ge -> int_cmp ( >= )
      | Eq -> int_cmp ( = )
      | _ -> int_cmp ( <> ))
  | e ->
      let ce = compile_exp eng ~offsets ~env ~sid e in
      fun th -> Value.truthy (ce th)

(* A store of a computed value to [lv], after its write hook. *)
and compile_store eng ~offsets ~env ~sid (lv : lval) :
    thread -> Value.t -> unit =
  let caddr, _ = compile_lval eng ~offsets ~env ~sid lv in
  fun th value ->
    caddr th;
    let blk = th.a_blk and off = th.a_off in
    on_mem eng th blk off ~write:true ~sid;
    Mem.store_at eng.mem blk off value

(* An lvalue compiles to a closure that leaves its address in the
   thread's [a_blk]/[a_off] fields instead of returning a [Value.ptr]:
   an access then allocates nothing. Its callers read the two fields
   right after the call, before evaluating anything else that could set
   them again. *)
and compile_lval eng ~offsets ~env ~sid (lv : lval) :
    (thread -> unit) * ty =
  match lv with
  | Var v -> (
      match Hashtbl.find_opt offsets v with
      | Some (off, ty) ->
          ( (fun th ->
              th.a_blk <- th.fr_blk;
              th.a_off <- off),
            ty )
      | None -> (
          match Hashtbl.find_opt eng.globals v with
          | Some bid ->
              let ty =
                match Hashtbl.find_opt eng.tenv.globals v with
                | Some t -> t
                | None -> Tint
              in
              ( (fun th ->
                  th.a_blk <- bid;
                  th.a_off <- 0),
                ty )
          | None ->
              ((fun _ -> Value.fault "unbound variable %s" v), Tint)))
  | Deref e -> (
      let ce = compile_exp eng ~offsets ~env ~sid e in
      match static (fun () -> Minic.Typecheck.type_of_exp env e) with
      | Ok ety ->
          ( (fun th ->
              match ce th with
              | Value.VPtr p ->
                  th.a_blk <- p.p_block;
                  th.a_off <- p.p_off
              | v -> Value.fault "dereference of non-pointer %a" Value.pp v),
            match ety with
            | Tptr t | Tarray (t, _) -> t
            | _ -> Tint (* int treated as address of int cells; loose *) )
      | Error m -> (faulting m ce, Tint))
  | Index (base, idx) -> (
      let cbase, bty = compile_lval eng ~offsets ~env ~sid base in
      let cidx = compile_exp eng ~offsets ~env ~sid idx in
      let ety =
        match bty with Tptr t -> t | Tarray (t, _) -> t | t -> t
      in
      let celem =
        (* indexing through a pointer variable loads the pointer first *)
        match bty with
        | Tptr _ -> (
            fun th ->
              cbase th;
              let blk = th.a_blk and off = th.a_off in
              on_mem eng th blk off ~write:false ~sid;
              match Mem.load_at eng.mem blk off with
              | Value.VPtr q ->
                  th.a_blk <- q.p_block;
                  th.a_off <- q.p_off
              | v -> Value.fault "indexing non-pointer %a" Value.pp v)
        | _ -> cbase
      in
      match static (fun () -> Layout.sizeof eng.layout ety) with
      | Ok es ->
          ( (fun th ->
              celem th;
              let blk = th.a_blk and off = th.a_off in
              let i = Value.to_int (cidx th) in
              th.a_blk <- blk;
              th.a_off <- off + (i * es)),
            ety )
      | Error m ->
          ( faulting m (fun th ->
                ignore (celem th);
                cidx th),
            Tint ))
  | Field (base, f) -> (
      let cbase, bty = compile_lval eng ~offsets ~env ~sid base in
      match
        static (fun () ->
            match bty with
            | Tstruct s -> Layout.field_offset eng.layout s f
            | t -> Value.fault "field access on %a" Minic.Ast.pp_ty t)
      with
      | Ok (off, fty) ->
          ( (fun th ->
              cbase th;
              th.a_off <- th.a_off + off),
            fty )
      | Error m -> (faulting m cbase, Tint))
  | Arrow (e, f) -> (
      let ce = compile_exp eng ~offsets ~env ~sid e in
      match
        static (fun () ->
            match Minic.Typecheck.type_of_exp env e with
            | Tptr (Tstruct s) -> Layout.field_offset eng.layout s f
            | t -> Value.fault "-> on %a" Minic.Ast.pp_ty t)
      with
      | Ok (off, fty) ->
          ( (fun th ->
              match ce th with
              | Value.VPtr p ->
                  th.a_blk <- p.p_block;
                  th.a_off <- p.p_off + off
              | v -> Value.fault "-> on non-pointer %a" Value.pp v),
            fty )
      | Error m -> (faulting m ce, Tint))

(* ------------------------------------------------------------------ *)
(* Thread lifecycle *)

and new_thread eng (path : K.tid_path) : thread =
  let tid = stable_tid path in
  let th =
    {
      tid;
      path;
      status = Runnable;
      resume = no_cont;
      suspended = false;
      body = None;
      steps = 0;
      step_cost = 0;
      weak_acqs = 0;
      stall = 0;
      a_blk = 0;
      a_off = 0;
      fr_blk = 0;
      ahead = 0;
      ra_paid = 0;
      ra_seg = [||];
      ra_ev = [||];
      ra_nev = 0;
      core = 0;
      spawn_seq = 0;
      frame_seq = 0;
      alloc_seq = 0;
      io_seq = 0;
      regions = [];
      reacquire = [];
      force_now = [];
      turn_check = None;
      turn_ver = -1;
      blocked_since = 0;
      fault = None;
      pct_prio = initial_pct_prio eng.cfg tid;
      det_clock = 0;
      det_excluded = false;
      det_immune = [];
      det_reacquiring = false;
      det_doomed = [];
    }
  in
  Hashtbl.replace eng.threads th.tid th;
  eng.thread_order <- th.tid :: eng.thread_order;
  eng.live <- eng.live + 1;
  th

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let finish_thread eng (th : thread) =
  (* release anything still held *)
  List.iter
    (fun r -> List.iter (fun (l, _) -> weak_release_one eng th l) r.rg_acqs)
    th.regions;
  th.regions <- [];
  set_status eng th Done;
  eng.live <- eng.live - 1;
  if th.path = [] then eng.main_done <- true;
  (* wake joiners *)
  Hashtbl.iter
    (fun _ (t' : thread) ->
      match t'.status with
      | Blocked (BJoin target) when target = th.tid -> wake eng t'
      | _ -> ())
    eng.threads

(* Run (or resume) one micro-op of [th]. Returns after the thread performs
   its next effect, blocks, or terminates. *)
(* The handler is installed once per fiber ([match_with] on first start);
   resuming via [continue] runs under that same installed handler, so it
   is only built on the [body] path — not once per resume. Its two effect
   closures are built here too, once per fiber: [effc] hands back the same
   [Some] block on every step instead of allocating a fresh closure. *)
let start_thread eng (th : thread) (body : unit -> unit) =
  let on_step =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        th.resume <- k;
        th.suspended <- true;
        step_book eng th th.step_cost)
  in
  let on_block =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        th.resume <- k;
        th.suspended <- true)
  in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> finish_thread eng th);
      exnc =
        (fun e ->
          (match e with
          | Program_exit code -> eng.exit_code <- Some code
          | Value.Fault msg | Stuck msg -> th.fault <- Some msg
          (* anything else is not the program's outcome: a corrupt log
             pulled mid-replay (a streamed segment failing its checksum)
             is the caller's typed error, and any other exception is an
             engine or hook bug. Both propagate out of [run]. *)
          | e -> raise e);
          finish_thread eng th);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | E_step -> on_step
          | E_block -> on_block
          | _ -> None);
    }
  in
  Effect.Deep.match_with body () handler

let resume_thread eng (th : thread) =
  if th.ahead > 0 then pay_ahead eng th
  else if th.suspended then begin
    th.suspended <- false;
    Effect.Deep.continue th.resume ()
  end
  else
    match th.body with
    | Some body ->
        th.body <- None;
        start_thread eng th body
    | None -> ()

(* Does parked [th]'s turn check hold now? A replay gate that failed at
   the current log version is not re-evaluated: it would fail again.
   Deterministic mode's [det_min] reads other threads' clocks, not a
   replayer, and is evaluated every pass. *)
let turn_ready eng (th : thread) check =
  match eng.replayer with
  | Some r ->
      th.turn_ver <> Replay.Replayer.consumed_events r
      && eval_turn eng r th check
  | None -> check ()

(* Periodic maintenance: IO wakeups, replay-turn checks, replayed forced
   releases for blocked owners, forced reacquisitions.

   Each pass iterates the thread table in [Hashtbl.iter] order, and that
   order is load-bearing: wake order feeds [enqueue]'s shortest-queue
   choice and hence the golden tick counts. The population counters
   therefore only GATE the passes — a pass is skipped exactly when it can
   be proved a no-op (no IO wake due before [io_min], no parked turn
   waiter, no pending reacquisition, no forced event left in the log) —
   and never reorder them. *)
let maintenance_pass eng =
  if eng.n_bturn > 0 || eng.n_breacq > 0 || eng.ticks >= eng.io_min then begin
    (* recomputed over the [BIO] threads the walk leaves parked; a wake
       parks no thread in [BIO] *)
    eng.io_min <- max_int;
    Hashtbl.iter
      (fun _ (th : thread) ->
        match th.status with
        | Blocked (BIO t) ->
            if eng.ticks >= t then wake eng th
            else if t < eng.io_min then eng.io_min <- t
        | Blocked (BTurn _) -> (
            (* a recording-mode thread with a pending reacquisition stays
               parked (maintenance reacquires on its behalf); in
               deterministic mode the gate-exit path reacquires, so it must
               be woken normally *)
            match th.turn_check with
            | Some check
              when (th.reacquire = [] || det_mode eng)
                   && turn_ready eng th check ->
                wake eng th
            | _ -> ())
        | Blocked BReacq when th.reacquire = [] -> make_runnable eng th
        | _ -> ())
      eng.threads;
    (* the pass consumed nothing, so every waiter it left parked failed
       at this version or has a pending reacquisition *)
    match eng.replayer with
    | Some r -> eng.turns_quiet_at <- Replay.Replayer.consumed_events r
    | None -> ()
  end;
  (* replayed forced events can target an owner that is blocked on
     program synchronization (and therefore passes no step boundary) *)
  (match eng.replayer with
  | Some r when Replay.Replayer.has_forced r ->
      Hashtbl.iter
        (fun _ (th : thread) ->
          match th.status with
          | Blocked _ -> (
              (* the owner may be parked on program sync or on a replay
                 gate; either way it passes no step boundary of its own *)
              match
                Replay.Replayer.pending_forced r th.path ~steps:th.steps
                  ~acqs:th.weak_acqs
                  ~holds:(fun l -> WL.holds eng.weak l ~tid:th.tid)
              with
              | Some lock -> apply_forced_release eng th lock
              | None -> ())
          | _ -> ())
        eng.threads
  | Some _ | None -> ());
  (* forced-reacquire: threads whose lock was stripped must get it back
     before doing anything else; try on their behalf. Under replay the
     reacquisition is an acquisition like any other and must wait for its
     recorded turn. *)
  if eng.n_reacq > 0 && not (det_mode eng) then
  Hashtbl.iter
    (fun _ (th : thread) ->
      (* During recording, reacquire only for threads parked in BReacq: a
         preempted owner still blocked on program synchronization must
         not take the lock back while it cannot make progress — that
         would recreate the very deadlock the timeout broke. During
         replay the recorded acquisition order is feasible by
         construction, so the reacquisition (itself a recorded event) is
         performed as soon as its turn comes, wherever the owner is
         parked. *)
      let eligible =
        (* deterministic mode reacquires in the owner's own execution
           stream (det_ensure_reacquired), never here *)
        (not (det_mode eng))
        &&
        match th.status with
        | Blocked BReacq -> true
        | Blocked _ -> eng.replayer <> None
        | _ -> false
      in
      if th.reacquire <> [] && eligible then begin
        let my_turn lock =
          match eng.replayer with
          | None -> true
          | Some r -> Replay.Replayer.weak_turn r lock ~tp:th.path
        in
        let rec go () =
          (* between two reacquisitions the recording may carry another
             forced release (same step count, next acquisition count);
             re-apply it first or this thread's acquisitions slide ahead
             of it and conflicting accesses reorder. The thread is
             parked, so the application cannot park it again — it only
             extends [reacquire]. *)
          (match eng.replayer with
          | Some r ->
              let rec drain () =
                match
                  Replay.Replayer.pending_forced r th.path ~steps:th.steps
                    ~acqs:th.weak_acqs
                    ~holds:(fun l -> WL.holds eng.weak l ~tid:th.tid)
                with
                | Some l ->
                    apply_forced_release eng th l;
                    drain ()
                | None -> ()
              in
              drain ()
          | None -> ());
          match th.reacquire with
          | [] -> ()
          | (lock, claim) :: rest ->
              if my_turn lock then
                match WL.acquire eng.weak lock ~tid:th.tid ~claim with
                | `Acquired ->
                    record_weak eng th lock ~claim:(stable_claim eng claim);
                    fire_sync eng th (SyWeakAcq lock);
                    if det_mode eng then
                      th.det_immune <- lock :: th.det_immune;
                    set_reacquire eng th rest;
                    go ()
                | `Blocked _ -> ()
        in
        go ();
        if th.reacquire = [] then make_runnable eng th
      end)
    eng.threads

(* a pass before [maintenance_from] is a no-op, and is not run *)
let maintenance eng =
  if eng.ticks >= maintenance_from eng then maintenance_pass eng

(* The longest-stalled expired [BWeak]/[BReacq] waiter, lowest tid on
   ties; [None] when no stall has outlived the timeout. *)
let sweep_victim eng : thread option =
  Hashtbl.fold
    (fun _ (th : thread) acc ->
      match th.status with
      | Blocked (BWeak _ | BReacq)
        when eng.ticks - th.blocked_since > effective_weak_timeout eng -> (
          match acc with
          | Some (best : thread)
            when (best.blocked_since, best.tid) <= (th.blocked_since, th.tid)
            ->
              acc
          | _ -> Some th)
      | _ -> acc)
    eng.threads None

(* Weak-lock timeout: preempt the conflicting owner of the longest-stalled
   waiter (Section 2.3). During replay, timeouts never initiate
   preemption — forced releases are re-applied from the log instead. *)
let check_weak_timeouts eng =
  if not (sweeps eng) then ()
  else begin
    (* one victim per pass: the longest-stalled expired waiter (lowest
       tid on ties). Preempting on behalf of every expired waiter at
       once is what the text of Section 2.3 forbids, and for good
       reason: two threads contending for overlapping lock sets whose
       deadlines fall in the same sweep would strip each other
       symmetrically and swap their sets forever — a timeout-sustained
       livelock. Serving only the longest-stalled waiter breaks the
       symmetry; the loser's clock keeps running and it gets the next
       pass. *)
    match sweep_victim eng with
    | None -> ()
    | Some th -> (
        match th.status with
        | Blocked BReacq ->
            (* a reacquiring thread stalled this long means the handoff
               reservation is stale (its beneficiary is parked elsewhere)
               or the lock is held by another stuck owner: expire
               reservations and preempt holders *)
            List.iter
              (fun ((lock : weak_lock), _) ->
                WL.clear_pending eng.weak lock;
                List.iter
                  (fun otid ->
                    if otid <> th.tid then
                      match Hashtbl.find_opt eng.threads otid with
                      | Some owner -> apply_forced_release eng owner lock
                      | None -> ())
                  (WL.holders eng.weak lock))
              th.reacquire;
            (* …and hand the freed locks to the victim right here, as one
               unit. Leaving the reacquisition to the next maintenance
               pass lets whichever stalled reacquirer iterates first (or
               heads the waiter queue the strip just promoted to a
               handoff reservation) grab single locks out of the set —
               with several threads needing overlapping multi-lock sets,
               that rotation reassembles a full set for no one and the
               timeouts sustain a livelock. *)
            set_reacquire eng th
              (List.filter
                 (fun ((lock : weak_lock), claim) ->
                   WL.clear_pending eng.weak lock;
                   if WL.holds eng.weak lock ~tid:th.tid then false
                   else
                     match WL.acquire eng.weak lock ~tid:th.tid ~claim with
                     | `Acquired ->
                         record_weak eng th lock
                           ~claim:(stable_claim eng claim);
                         fire_sync eng th (SyWeakAcq lock);
                         false
                     | `Blocked _ -> true)
                 th.reacquire);
            if th.reacquire = [] then make_runnable eng th
            else th.blocked_since <- eng.ticks
        | Blocked (BWeak (lock, _claim)) ->
            let owners = WL.holders eng.weak lock in
            (* no holders at all: the waiter is fenced out purely by a
               stale handoff reservation (e.g. its beneficiary was
               cancelled or parked) — expire it and let the waiter retry *)
            if owners = [] then begin
              WL.clear_pending eng.weak lock;
              wake eng th
            end;
            List.iter
              (fun otid ->
                if otid <> th.tid then
                  match Hashtbl.find_opt eng.threads otid with
                  | Some owner -> (
                      match owner.status with
                      | Blocked _ ->
                          (* owner is itself parked — on program
                             synchronization, or on the weak layer (BWeak /
                             BReacq, a hold-wait cycle through several weak
                             locks): it passes no step boundary while
                             blocked, so deferring the release would leave
                             the cycle standing forever. Apply it now. *)
                          apply_forced_release eng owner lock
                      | Runnable ->
                          (* preempt at the owner's next step boundary *)
                          if not (List.mem lock owner.force_now) then
                            owner.force_now <- owner.force_now @ [ lock ]
                      | Done -> ())
                  | None -> ())
              owners;
            th.blocked_since <- eng.ticks (* restart the clock *)
        | _ -> ())
  end

let all_queues_empty eng = Array.for_all (fun q -> q.len = 0) eng.queues

let can_run (th : thread) = match th.status with Runnable -> true | _ -> false

(* the list from its first runnable thread on *)
let rec skip_blocked = function
  | (th : thread) :: rest when not (can_run th) -> skip_blocked rest
  | ts -> ts

(* the first runnable thread of highest PCT priority in [b :: ts], [b]
   runnable *)
let rec pct_best (b : thread) = function
  | [] -> b
  | (t : thread) :: rest ->
      pct_best (if can_run t && t.pct_prio > b.pct_prio then t else b) rest

(* drop finished/blocked threads from the head: a blocked thread is
   re-enqueued on wake *)
let rec clean_head eng (q : runq) =
  match q.ts with
  | th :: rest when not (can_run th) ->
      set_queue eng q rest (q.len - 1);
      clean_head eng q
  | _ -> ()

(* work stealing for empty core [c]: take the tail of the longest other
   queue of two or more, lowest core on ties. The filter drops every
   entry of the stolen thread, a stale duplicate included. *)
let steal eng c (q : runq) =
  let best = ref (-1) and best_len = ref 1 in
  for c' = 0 to eng.cfg.cores - 1 do
    if c' <> c && eng.queues.(c').len > !best_len then begin
      best := c';
      best_len := eng.queues.(c').len
    end
  done;
  if !best >= 0 then begin
    let v = eng.queues.(!best) in
    (* the tail, to keep the victim's head running *)
    let stolen = List.nth v.ts (v.len - 1) in
    let rest = List.filter (fun t -> t != stolen) v.ts in
    set_queue eng v rest (List.length rest);
    stolen.core <- c;
    set_queue eng q [ stolen ] 1
  end

(* one scheduling tick for core [c]; true when it resumed a thread *)
let tick_core eng c =
  eng.stats.n_core_ticks <- eng.stats.n_core_ticks + 1;
  let q = eng.queues.(c) in
  (* PCT: bring the highest-priority runnable thread to the head before
     the head is cleaned and run. Ties break to queue order, so the pass
     is deterministic; [Sdefault]/[Sstorm] skip it entirely. The filter
     drops a stale duplicate of the pick. *)
  (if eng.cfg.strategy = Spct then
     match q.ts with
     | [] | [ _ ] -> ()
     | ts -> (
         match skip_blocked ts with
         | [] -> ()
         | first :: rest ->
             let b = pct_best first rest in
             if List.hd ts != b then begin
               let ts = b :: List.filter (fun t -> t != b) ts in
               set_queue eng q ts (List.length ts)
             end));
  clean_head eng q;
  match q.ts with
  | [] ->
      if eng.n_multi > 0 then steal eng c q;
      false
  | th :: _ ->
      let resumes = th.stall = 0 in
      if not resumes then th.stall <- th.stall - 1
      else resume_thread eng th;
      (* quantum accounting *)
      eng.quanta.(c) <- eng.quanta.(c) - 1;
      if eng.quanta.(c) <= 0 then begin
        (* storm shortens the quantum so preemption points (and thus
           timeout-exposed interleavings) come much more often; the
           refill consumes exactly one rng draw in every strategy *)
        let quantum =
          match eng.cfg.strategy with
          | Sstorm -> max 4 (eng.cfg.quantum / 8)
          | Sdefault | Spct -> eng.cfg.quantum
        in
        eng.quanta.(c) <- (quantum / 2) + (rng_next eng mod quantum);
        (* PCT change point: the expiring thread drops below everyone,
           so the next selection pass prefers any other runnable thread *)
        (if eng.cfg.strategy = Spct then
           match q.ts with
           | head :: _ -> pct_demote eng head
           | [] -> ());
        match q.ts with
        | head :: rest when rest <> [] ->
            set_queue eng q (rest @ [ head ]) q.len
        | _ -> ()
      end;
      resumes

(* ------------------------------------------------------------------ *)
(* Idle spans.

   On a server most ticks only count down the running thread's syscall
   or weak-lock charge ([stall]) while the other cores sit empty. The
   run loop advances such a span in one step instead of one iteration
   per tick, and stays exact: ticks, the rng stream, logs and outputs
   are those of the per-tick path, which remains the only executor of
   ticks that do anything. *)

(* the smallest multiple of [mask + 1] at or after [t] *)
let at_or_after ~mask t = (t + mask) land lnot mask

(* PCT keeps a runnable head when no later runnable entry outranks it *)
let pct_keeps_head (head : thread) rest =
  let p = head.pct_prio in
  List.for_all
    (fun (t : thread) -> (not (can_run t)) || t.pct_prio <= p)
    rest

(** Number of ticks after [eng.ticks] in which the per-tick path would
    only draw the start core, count down each queue head's [stall] and
    each busy core's quantum: no head resumes, no quantum expires, no
    empty core steals, PCT keeps every head, and no maintenance pass or
    timeout sweep that could act falls inside. A thread woken before its
    stale queue entry was cleaned heads two queues and counts down once
    per queue, so its stall is shared among the queues it heads. 0 when
    the next tick is not idle. *)
let idle_span eng =
  let cores = eng.cfg.cores and t0 = eng.ticks in
  let k = ref (eng.cfg.max_ticks - 1 - t0) in
  let empty = ref false and multi = ref false and busy = ref false in
  for c = 0 to cores - 1 do
    match eng.queues.(c).ts with
    | [] -> empty := true
    | th :: rest ->
        busy := true;
        if rest != [] then multi := true;
        if
          (not (can_run th))
          || (eng.cfg.strategy = Spct && not (pct_keeps_head th rest))
        then k := 0
        else begin
          let m = ref 0 in
          for c' = 0 to cores - 1 do
            match eng.queues.(c').ts with
            | h :: _ when h == th -> incr m
            | _ -> ()
          done;
          k := min !k (min (th.stall / !m) (eng.quanta.(c) - 1))
        end
  done;
  (* an empty core steals from any queue of two; all-empty is the
     blocked fast-forward's case *)
  if !k <= 0 || (!multi && !empty) || not !busy then 0
  else begin
    (* the span ends before the first tick at which a pass that runs
       may act *)
    let ends_before ~mask from =
      if from < max_int then
        k := min !k (at_or_after ~mask (max from (t0 + 1)) - 1 - t0)
    in
    ends_before ~mask:15 (maintenance_from eng);
    ends_before ~mask:(weak_sweep_mask eng) (sweep_from eng);
    !k
  end

(* Advance [k] idle ticks in one step, exactly as [k] runs of the
   per-tick path would: one start-core draw per tick, and every queue
   head's stall and busy core's quantum counted down by [k]. *)
let skip_idle eng k =
  eng.rng <- rng_jump eng.rng k;
  eng.ticks <- eng.ticks + k;
  Array.iteri
    (fun c q ->
      match q.ts with
      | (th : thread) :: _ ->
          th.stall <- th.stall - k;
          eng.quanta.(c) <- eng.quanta.(c) - k
      | [] -> ())
    eng.queues;
  eng.stats.n_ticks_skipped <- eng.stats.n_ticks_skipped + k

(* ------------------------------------------------------------------ *)
(* Checkpoints: a digest pin of the engine state *)

let status_code = function Runnable -> 0 | Done -> 1 | Blocked _ -> 2

(** Deterministic hex digest of everything deterministic about the
    execution so far: memory, ticks, rng, outputs, per-thread progress.
    Comparable only between runs at the same logical point under the
    same seed. The segmented recorder pins the seal-time digest in the
    manifest, and re-recordings must reproduce it. A replay runs under
    its own seed, so its digest at a segment drain differs from the
    recorder's; it is compared only with other replays of the same log
    (a windowed replay against the full one). *)
let state_digest (eng : t) : string =
  (* format only the outputs since the last digest, so that a digest
     per seal costs what the segment added, not the whole run *)
  let rec fresh acc l =
    if l == eng.out_seen then acc
    else
      match l with
      | o :: older -> fresh (o :: acc) older
      | [] -> invalid_arg "state_digest: outputs lost their digested suffix"
  in
  List.iter
    (fun (p, v) ->
      Buffer.add_string eng.out_text " o:";
      K.add_tid_path eng.out_text p;
      Buffer.add_char eng.out_text '=';
      K.add_int eng.out_text v)
    (fresh [] eng.outputs);
  eng.out_seen <- eng.outputs;
  let head =
    Fmt.str "mem=%d ticks=%d rng=%d live=%d" (Mem.state_hash eng.mem)
      eng.ticks eng.rng eng.live
  in
  let tail = Buffer.create 256 in
  List.iter
    (fun tid ->
      let th = Hashtbl.find eng.threads tid in
      Buffer.add_string tail
        (Fmt.str " t:%a=%d,%d,%d" K.pp_tid_path th.path th.steps th.weak_acqs
           (status_code th.status)))
    (List.rev eng.thread_order);
  let nh = String.length head and no = Buffer.length eng.out_text in
  let n = nh + no + Buffer.length tail in
  if Bytes.length eng.digest_text < n then
    eng.digest_text <- Bytes.create (max n (2 * Bytes.length eng.digest_text));
  Bytes.blit_string head 0 eng.digest_text 0 nh;
  Buffer.blit eng.out_text 0 eng.digest_text nh no;
  Buffer.blit tail 0 eng.digest_text (nh + no) (Buffer.length tail);
  Digest.to_hex (Digest.subbytes eng.digest_text 0 n)

(* ------------------------------------------------------------------ *)
(* Entry point *)

type outcome = {
  o_outputs : (K.tid_path * int) list;
  o_final_hash : int;
  o_ticks : int;
  o_steps : (K.tid_path * int) list;
  o_faults : (K.tid_path * string) list;
  o_exit : int option;
  o_stats : stats;
  o_recorder : Replay.Recorder.t option;
  o_timed_out : bool;
  o_stuck : string list;
      (** per-thread status dump when the run timed out / deadlocked *)
  o_claim_mismatches : Replay.Replayer.claim_mismatch list;
      (** replay only: served weak-lock claims that differ from the
          recorded ones (instrumentation drift); always [] otherwise *)
}

let make_engine ?(config = default_config) ?(hooks = no_hooks ()) ?sink
    ?replayer ?phases ~mode ~io (prog : program) : t =
  let recorder =
    match mode with Record -> Some (Replay.Recorder.create ()) | _ -> None
  in
  (* an explicit [replayer] (a segment stream, possibly windowed)
     overrides the one a [Replay log] mode would build *)
  let replayer =
    match (replayer, mode) with
    | (Some _ as r), _ -> r
    | None, Replay log -> Some (Replay.Replayer.of_log log)
    | None, _ -> None
  in
  let layout = Layout.create prog.p_structs and mem = Mem.create () in
  (* allocate and initialize globals *)
  let globals = Hashtbl.create 64 and global_fault = ref None in
  List.iter
    (fun (g : global) ->
      match Layout.sizeof layout g.g_ty with
      | exception Invalid_argument m ->
          if Option.is_none !global_fault then global_fault := Some m
      | size ->
          let size = max 1 size in
          let blk = Mem.alloc mem (K.OGlobal g.g_name) size in
          (match g.g_init with
          | Some vals ->
              List.iteri
                (fun i v ->
                  if i < size then Mem.store_at mem blk.Mem.b_id i (VInt v))
                vals
          | None -> ());
          Hashtbl.replace globals g.g_name blk.Mem.b_id)
    prog.p_globals;
  let eng =
    {
      prog;
      tenv = Minic.Typecheck.env_of_program prog;
      layout;
      cfg = config;
      mode;
      io;
      hooks;
      mem;
      mutexes = Runtime.Sync.Mutex.create ();
      barriers = Runtime.Sync.Barrier.create ();
      conds = Runtime.Sync.Cond.create ();
      weak = WL.create ();
      threads = Hashtbl.create 16;
      thread_order = [];
      queues = Array.init config.cores (fun _ -> { ts = []; len = 0 });
      n_multi = 0;
      n_busy = 0;
      quanta = Array.make config.cores config.quantum;
      globals;
      fixed = fixed_of prog;
      global_fault = !global_fault;
      recorder;
      replayer;
      sink;
      stats = new_stats ();
      ticks = 0;
      outputs = [];
      out_text = Buffer.create 16;
      out_seen = [];
      digest_text = Bytes.empty;
      live = 0;
      exit_code = None;
      rng = (config.seed * 2) + 1;
      tick_draw = 0;
      main_done = false;
      pct_floor = 0;
      callees = Hashtbl.create 64;
      n_bio = 0;
      n_bturn = 0;
      n_breacq = 0;
      n_bweak = 0;
      n_reacq = 0;
      io_min = max_int;
      turns_quiet_at = -1;
      phases;
      ahead_on = false;
    }
  in
  eng

(* a windowed replayer that reached its bound: the run stops cleanly *)
let replay_halted eng =
  match eng.replayer with
  | Some r -> Replay.Replayer.halted r
  | None -> false

let run_engine (eng : t) : outcome =
  (match eng.phases with Some p -> Phases.start p | None -> ());
  eng.ahead_on <-
    Option.is_none eng.hooks.on_mem
    && Option.is_none eng.hooks.on_sync
    && Option.is_none eng.sink
    && (not (det_mode eng))
    && eng.cfg.cost.c_stmt = 1;
  (* main thread *)
  let main = new_thread eng [] in
  main.body <-
    Some
      (fun () ->
        Option.iter (fun m -> raise (Value.Fault m)) eng.global_fault;
        thread_body eng main "main" []);
  enqueue eng main;
  let timed_out = ref false in
  (* consecutive idle fast-forwards where the wake-up resolved nothing;
     unwinding a hold-wait cycle through several weak locks takes one
     forced release per timeout deadline, so a single fruitless round is
     not yet a deadlock *)
  let stuck_rounds = ref 0 in
  (* gated log events consumed so far: a replay round that wakes no
     thread but consumes events (a recorded chain of forced releases and
     reacquisitions at one step count, worked off by [maintenance] while
     every thread stays parked) is progress, not a stall. Consumption is
     finite, so resetting on it cannot loop forever. *)
  let consumed () =
    match eng.replayer with
    | Some r -> Replay.Replayer.consumed_events r
    | None -> 0
  in
  (* whether the last tick resumed a thread: the idle-span skip is tried
     only after a tick that did not, so compute-bound runs never pay
     for it *)
  let resumed = ref true in
  (* ends the scheduling loop; private, so that an [Exit] escaping a
     thread propagates like any other exception *)
  let exception Halt in
  (try
     while
       eng.live > 0
       && (match eng.exit_code with None -> true | Some _ -> false)
       && not eng.main_done
       && not (replay_halted eng)
     do
       (if not !resumed then
          let k = idle_span eng in
          if k > 0 then skip_idle eng k);
       eng.ticks <- eng.ticks + 1;
       eng.stats.n_sched_iters <- eng.stats.n_sched_iters + 1;
       if eng.ticks >= eng.cfg.max_ticks then begin
         timed_out := true;
         raise Halt
       end;
       if eng.ticks land 15 = 0 then begin
         let t0 = ph_now eng in
         maintenance eng;
         ph_add eng Phases.Scheduler t0
       end;
       (* the sweep is gated to the masked tick: it serves one victim per
          window, and firing off-boundary would move every later
          preemption *)
       if eng.ticks land weak_sweep_mask eng = 0 then begin
         let t0 = ph_now eng in
         check_weak_timeouts eng;
         ph_add eng Phases.Weaklock t0
       end;
       (* rotate the starting core each tick to vary cross-core order *)
       let cores = eng.cfg.cores in
       eng.tick_draw <- rng_next eng;
       let c = ref (eng.tick_draw mod cores) and left = ref cores in
       let tick = ref eng.ticks in
       resumed := false;
       while !left > 0 do
         let c0 = !c in
         decr left;
         incr c;
         if !c = cores then c := 0;
         (* an empty core's tick is a no-op while no queue holds two
            entries to steal from *)
         if
           (eng.queues.(c0).len > 0 || eng.n_multi > 0) && tick_core eng c0
         then begin
           resumed := true;
           (* the thread stepped in place into a later tick: what is
              left is that tick's cores after [c0], up to its start
              core *)
           if eng.ticks <> !tick then begin
             tick := eng.ticks;
             left := ((eng.tick_draw mod cores) - !c + cores) mod cores
           end
         end
       done;
       (* fast-forward idle periods (everything blocked on IO/turn). A
          thread resumed this tick is still queued: [tick_core] drops only
          non-runnable heads before it resumes one, and a steal moves a
          thread between queues without dropping it. *)
       if (not !resumed) && all_queues_empty eng && eng.live > 0 then begin
         let t0 = ph_now eng in
         let consumed0 = consumed () in
         maintenance eng;
         if all_queues_empty eng then begin
           (* all blocked: jump to the next wake-up — an IO completion or
              a weak-lock timeout deadline (the escape hatch that resolves
              weak-lock-vs-program-sync deadlocks, Section 2.3) *)
           let next_wake = min eng.io_min (weak_deadline eng) in
           ph_add eng Phases.Scheduler t0;
           if next_wake < max_int then begin
             if next_wake > eng.ticks then begin
               eng.stats.n_ticks_jumped <-
                 eng.stats.n_ticks_jumped + (next_wake - eng.ticks);
               eng.ticks <- next_wake
             end;
             let t0 = ph_now eng in
             check_weak_timeouts eng;
             ph_add eng Phases.Weaklock t0;
             maintenance eng;
             if all_queues_empty eng then begin
               (* nothing woke this round. Each round expires only the
                  earliest deadline and restarts that thread's clock, so
                  breaking an N-lock cycle needs up to N rounds of forced
                  releases; only a sustained run of fruitless rounds means
                  genuinely stuck. *)
               if consumed () > consumed0 then stuck_rounds := 0
               else begin
                 incr stuck_rounds;
                 if !stuck_rounds > 8 * (eng.live + 1) then begin
                   timed_out := true;
                   raise Halt
                 end
               end
             end
             else stuck_rounds := 0
           end
           else if
             (* counters stand in for the retired per-thread fold: any
                pending reacquisition list or turn-gated thread *)
             det_mode eng
             && (eng.n_reacq > 0 || eng.n_bturn > 0)
           then begin
             (* deterministic arbitration progresses through repeated
                maintenance passes (cede bumps, gated reacquisitions);
                advance time and keep going — max_ticks bounds a true
                livelock *)
             eng.ticks <- eng.ticks + 16;
             eng.stats.n_ticks_jumped <- eng.stats.n_ticks_jumped + 16;
             maintenance eng
           end
           else begin
             (* deadlock or replay stall — unless a windowed replay just
                reached its bound, which parks every gated thread by
                design and is a clean halt, not a timeout *)
             let t0 = ph_now eng in
             check_weak_timeouts eng;
             ph_add eng Phases.Weaklock t0;
             maintenance eng;
             if all_queues_empty eng then begin
               if not (replay_halted eng) then timed_out := true;
               raise Halt
             end
           end
         end
       end
     done
   with Halt -> ());
  let paths_steps =
    List.rev_map
      (fun tid ->
        let th = Hashtbl.find eng.threads tid in
        (th.path, th.steps))
      eng.thread_order
    |> List.sort compare
  in
  let faults =
    List.filter_map
      (fun tid ->
        let th = Hashtbl.find eng.threads tid in
        Option.map (fun m -> (th.path, m)) th.fault)
      eng.thread_order
    |> List.sort compare
  in
  let stuck =
    if not !timed_out then []
    else
      (match eng.replayer with
       | Some r -> Replay.Replayer.dump_remaining r
       | None -> [])
      @
      List.rev_map
        (fun tid ->
          let th = Hashtbl.find eng.threads tid in
          let status =
            match th.status with
            | Runnable -> "runnable"
            | Done -> "done"
            | Blocked r -> Fmt.str "blocked on %a" pp_block_reason r
          in
          let queued =
            Array.exists
              (fun q -> List.exists (fun (t : thread) -> t.tid = th.tid) q.ts)
              eng.queues
          in
          Fmt.str "%a: %s, steps=%d, stall=%d, regions=%d, queued=%b, \
                   has-cont=%b, reacquire=[%s]"
            K.pp_tid_path th.path status th.steps th.stall
            (List.length th.regions) queued
            (th.suspended || th.body <> None)
            (String.concat ","
               (List.map
                  (fun (l, _) -> Fmt.str "%a" pp_weak_lock l)
                  th.reacquire)))
        eng.thread_order
  in
  eng.stats.n_handoff_served <- eng.weak.WL.total_handoff_served;
  eng.stats.n_handoff_expired <- eng.weak.WL.total_handoff_expired;
  (match eng.phases with Some p -> Phases.finish p | None -> ());
  {
    o_outputs = List.rev eng.outputs;
    o_final_hash = Mem.state_hash eng.mem;
    o_ticks = eng.ticks;
    o_steps = paths_steps;
    o_faults = faults;
    o_exit = eng.exit_code;
    o_stats = eng.stats;
    o_recorder = eng.recorder;
    o_timed_out = !timed_out;
    o_stuck = stuck;
    o_claim_mismatches =
      (match eng.replayer with
      | Some r -> Replay.Replayer.claim_mismatches r
      | None -> []);
  }

(** Run [prog] to completion under [mode]. [sink], when given, receives
    the execution's trace events (see {!Trace}); it never affects the
    simulated execution. *)
let run ?config ?hooks ?sink ?replayer ?phases ~mode ~io (prog : program) :
    outcome =
  let eng = make_engine ?config ?hooks ?sink ?replayer ?phases ~mode ~io prog in
  run_engine eng
