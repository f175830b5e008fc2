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
      synchronization order, the weak-lock acquisition order, and the
      per-core schedule, charging the cost model for every log append;
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

type _ Effect.t +=
  | E_step : int -> unit Effect.t
      (** scheduling point; the argument is the tick cost *)
  | E_block : unit Effect.t
      (** the thread marked itself blocked; resumes when woken *)

let step cost = Effect.perform (E_step cost)
let block_here () = Effect.perform E_block

(* ------------------------------------------------------------------ *)
(* Threads *)

type block_reason =
  | BMutex of K.addr
  | BBarrier of K.addr
  | BCond of K.addr
  | BJoin of int
  | BWeak of weak_lock * WL.claim
  | BReacq  (** holds no locks; must reacquire [th.reacquire] to resume *)
  | BTurn of string  (** what turn we are waiting for (diagnostics) *)
  | BIO of int  (** wake tick *)

let pp_block_reason ppf = function
  | BMutex a -> Fmt.pf ppf "mutex %a" K.pp_addr a
  | BBarrier a -> Fmt.pf ppf "barrier %a" K.pp_addr a
  | BCond a -> Fmt.pf ppf "cond %a" K.pp_addr a
  | BJoin t -> Fmt.pf ppf "join %d" t
  | BWeak (w, _) -> Fmt.pf ppf "weak %a" pp_weak_lock w
  | BReacq -> Fmt.string ppf "forced-reacquire"
  | BTurn what -> Fmt.pf ppf "replay-turn for %s" what
  | BIO t -> Fmt.pf ppf "io until %d" t

type status = Runnable | Blocked of block_reason | Done

type region = { rg_acqs : (weak_lock * WL.claim) list }

type thread = {
  tid : int;  (** schedule-independent: encodes the tid path *)
  path : K.tid_path;
  mutable status : status;
  mutable resume : (unit, unit) Effect.Deep.continuation option;
  mutable body : (unit -> unit) option;  (** before first scheduling *)
  mutable steps : int;
  mutable weak_acqs : int;
      (** weak-lock acquisitions performed so far (including
          reacquisitions) — identical across record and replay, used to
          order forced events against this thread's own reacquisitions *)
  mutable stall : int;
  mutable core : int;
  mutable spawn_seq : int;
  mutable frame_seq : int;
  mutable alloc_seq : int;
  mutable io_seq : int;
  mutable call_stack : string list;
  mutable regions : region list;  (** innermost first *)
  mutable reacquire : (weak_lock * WL.claim) list;
      (** locks stripped by timeout-preemption, to reacquire before
          resuming *)
  mutable force_now : weak_lock list;
      (** forced releases to apply at this thread's next step *)
  mutable turn_check : (unit -> bool) option;
  mutable blocked_since : int;
  mutable fault : string option;
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

(* A function activation: the memory block holding its parameters and
   locals. Everything else about the function (variable offsets, static
   types) is resolved when its body is compiled. *)
type frame = { fr_block : int } [@@unboxed]

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
  queues : thread list ref array;   (** per-core run queues *)
  quanta : int array;
  globals : (string, int) Hashtbl.t;  (** global name -> block id *)
  recorder : Replay.Recorder.t option;
  replayer : Replay.Replayer.t option;
  sink : Trace.Sink.t option;
  stats : stats;
  mutable ticks : int;
  mutable outputs : (K.tid_path * int) list;  (** reversed *)
  mutable live : int;
  mutable exit_code : int option;
  mutable rng : int;
  mutable main_done : bool;
  prio : (int, int) Hashtbl.t;
      (** per-thread PCT priorities (tid -> priority); touched only under
          [Spct], so the default path never pays for it *)
  mutable pct_floor : int;
      (** strictly decreasing change-point floor: each demotion lands
          below every priority handed out so far *)
  flayouts : (string, (string, int * ty) Hashtbl.t * int) Hashtbl.t;
      (** per-function frame layout (offsets table, frame size): static
          per function, shared read-only by all its frames *)
  cbodies : (string, thread -> frame -> unit) Hashtbl.t;
      (** per-function staged bodies: each body is closure-compiled on
          its first call, with variable offsets, field offsets, element
          sizes, and static types resolved once instead of per access *)
  mutable n_bio : int;  (** threads currently [Blocked (BIO _)] *)
  mutable n_bturn : int;  (** threads currently [Blocked (BTurn _)] *)
  mutable n_breacq : int;  (** threads currently [Blocked BReacq] *)
  mutable n_reacq : int;  (** threads with a nonempty [reacquire] list *)
  mutable phases : Phases.t option;
      (** per-phase wall-clock attribution; [None] (the default) reads
          no clocks at all *)
}

(* Trace emission: timestamped with the thread's per-thread step count
   (the logical clock of DESIGN.md §10), and charging no simulated ticks
   — with no sink, and for every simulated timing with one, the engine
   behaves identically. *)
let emit_ev eng (th : thread) kind =
  match eng.sink with
  | Some s -> Trace.Sink.emit s th.path ~step:th.steps kind
  | None -> ()

let rng_next (eng : t) =
  let x = eng.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  eng.rng <- (if x = 0 then 0x2545F491 else x);
  eng.rng

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
   timeout victim and the idle next-wake are plain table scans
   ([sweep_victim], [next_wake]). *)

let sched_count eng (th : thread) d =
  match th.status with
  | Blocked BReacq -> eng.n_breacq <- eng.n_breacq + d
  | Blocked (BIO _) -> eng.n_bio <- eng.n_bio + d
  | Blocked (BTurn _) -> eng.n_bturn <- eng.n_bturn + d
  | Runnable | Done
  | Blocked (BWeak _ | BMutex _ | BBarrier _ | BCond _ | BJoin _) ->
      ()

let set_status eng (th : thread) (st : status) =
  sched_count eng th (-1);
  th.status <- st;
  sched_count eng th 1

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

(** PCT priority of a thread, assigned deterministically from (seed,
    tid) on first sight — thread creation consumes no rng draw, so the
    recorded thread structure is independent of later scheduling. *)
let pct_prio eng (tid : int) =
  match Hashtbl.find_opt eng.prio tid with
  | Some p -> p
  | None ->
      let h = (tid + 1) * 0x9E3779B1 lxor (eng.cfg.seed * 0x85EBCA77) in
      let p = 1 + (h land 0x3FFFFFFF) in
      Hashtbl.replace eng.prio tid p;
      p

(** Change point: drop the thread below every priority seen so far. *)
let pct_demote eng (tid : int) =
  eng.pct_floor <- eng.pct_floor - 1;
  Hashtbl.replace eng.prio tid eng.pct_floor

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let on_mem eng (th : thread) (p : Value.ptr) ~write ~sid =
  eng.stats.n_mem_ops <- eng.stats.n_mem_ops + 1;
  match eng.hooks.on_mem with
  | Some f -> f th.tid (Mem.addr_key eng.mem p) ~write ~sid
  | None -> ()

(* Pairs the operand values of a compiled binary operation through a
   function application, so the operands evaluate right to left, as the
   arguments of the generic [binop op (ca th fr) (cb th fr)] do. *)
let binop_args (va : Value.t) (vb : Value.t) = (va, vb)

let binop op (va : Value.t) (vb : Value.t) : Value.t =
  let open Value in
  let bool b = VInt (if b then 1 else 0) in
  match (op, va, vb) with
  (* cell-granular pointer arithmetic *)
  | Add, VPtr p, VInt n | Add, VInt n, VPtr p ->
      VPtr { p with p_off = p.p_off + n }
  | Sub, VPtr p, VInt n -> VPtr { p with p_off = p.p_off - n }
  | Sub, VPtr a, VPtr b when a.p_block = b.p_block -> VInt (a.p_off - b.p_off)
  | Eq, a, b -> bool (equal_value a b)
  | Ne, a, b -> bool (not (equal_value a b))
  | Lt, VPtr a, VPtr b when a.p_block = b.p_block -> bool (a.p_off < b.p_off)
  | Le, VPtr a, VPtr b when a.p_block = b.p_block -> bool (a.p_off <= b.p_off)
  | Gt, VPtr a, VPtr b when a.p_block = b.p_block -> bool (a.p_off > b.p_off)
  | Ge, VPtr a, VPtr b when a.p_block = b.p_block -> bool (a.p_off >= b.p_off)
  | _, VInt x, VInt y -> (
      match op with
      | Add -> VInt (x + y)
      | Sub -> VInt (x - y)
      | Mul -> VInt (x * y)
      | Div -> if y = 0 then fault "division by zero" else VInt (x / y)
      | Mod -> if y = 0 then fault "modulo by zero" else VInt (x mod y)
      | BAnd -> VInt (x land y)
      | BOr -> VInt (x lor y)
      | BXor -> VInt (x lxor y)
      | Shl -> VInt (x lsl (y land 62))
      | Shr -> VInt (x asr (y land 62))
      | Lt -> bool (x < y)
      | Le -> bool (x <= y)
      | Gt -> bool (x > y)
      | Ge -> bool (x >= y)
      | Eq -> bool (x = y)
      | Ne -> bool (x <> y)
      | LAnd | LOr -> assert false)
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

(* Block this thread until [check] holds (replay-turn gating). *)
let wait_turn eng ~what (th : thread) (check : unit -> bool) =
  while not (check ()) do
    set_status eng th (Blocked (BTurn what));
    th.turn_check <- Some check;
    block_here ();
    th.turn_check <- None
  done

(* ------------------------------------------------------------------ *)
(* Deterministic-execution arbitration (Kendo-style; see the mode's doc) *)

let det_mode eng = eng.mode = Deterministic

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
      set_status eng th (Blocked (BTurn "det"));
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
  step 1

(* deterministically park / unpark a thread around an intrinsic wait
   (cond/join/barrier/IO): parked threads leave the global-minimum rule *)
let det_park (th : thread) = th.det_excluded <- true

let det_unpark (th : thread) = th.det_excluded <- false


(* Wait for my turn for a sync op on [obj] during replay; no-op otherwise. *)
let gate_sync eng th (obj : K.addr) (op : Replay.Log.sync_op) =
  match eng.replayer with
  | None -> ()
  | Some r ->
      wait_turn eng th
        ~what:(Fmt.str "sync %a %a" K.pp_addr obj Replay.Log.pp_sync_op op)
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
      wait_turn eng th
        ~what:(Fmt.str "weak %a" pp_weak_lock lock)
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
      wait_turn eng th ~what:"syscall" (fun () ->
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

let enqueue eng (th : thread) =
  (* shortest queue; ties broken by lowest core id *)
  let best = ref 0 in
  for c = 1 to eng.cfg.cores - 1 do
    if List.length !(eng.queues.(c)) < List.length !(eng.queues.(!best)) then
      best := c
  done;
  th.core <- !best;
  eng.queues.(!best) := !(eng.queues.(!best)) @ [ th ]

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
      else begin
        set_status eng th Runnable;
        enqueue eng th
      end
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

let ptr_of (ce : thread -> frame -> Value.t) th fr =
  match ce th fr with
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
type crange = (thread -> frame -> Value.t) * (thread -> frame -> Value.t) * bool

let claim_of_ranges th fr (ranges : crange list) : WL.claim =
  (* single left-to-right pass; if any range fails to evaluate to a
     same-block pair, fall back to the total claim (sound). The
     evaluation side effects (mem-op hooks) of the remaining ranges still
     happen, exactly as in a full pass. *)
  let failed = ref false in
  let rs =
    List.map
      (fun ((clo, chi, write) : crange) ->
        match (clo th fr, chi th fr) with
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
      step cost.c_weak_op)
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
let weak_enter eng th fr (acqs : (weak_lock * crange list) array)
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
  let claims = Array.map (fun (_, ranges) -> claim_of_ranges th fr ranges) acqs in
  let resolved = List.map (fun i -> (fst acqs.(i), claims.(i))) order in
  List.iter
    (fun ((l : weak_lock), claim) ->
      let c =
        cost.c_weak_op + (List.length claim * cost.c_range) + charge_log_weak eng
      in
      eng.stats.weak_op_ticks <-
        eng.stats.weak_op_ticks + cost.c_weak_op
        + (List.length claim * cost.c_range);
      step c;
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
          step c;
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
  step (eng.cfg.cost.c_syscall + charge_log_input eng 1);
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
  step (eng.cfg.cost.c_syscall + charge_log_input eng 0)

(* [net_read(buf, max)] / [file_read(buf, max)] *)
let sys_read eng th fr ~sid ~(net : bool) cbuf cmax : Value.t =
  let buf = ptr_of cbuf th fr in
  let maxn = Value.to_int (cmax th fr) in
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
  step (eng.cfg.cost.c_syscall + charge_log_input eng (List.length bytes));
  List.iteri
    (fun i b ->
      let p = { buf with Value.p_off = buf.Value.p_off + i } in
      on_mem eng th p ~write:true ~sid;
      Mem.store eng.mem p (VInt b))
    bytes;
  VInt (List.length bytes)

(* ------------------------------------------------------------------ *)
(* Function & statement execution *)

let layout_of (eng : t) (fd : fundec) :
    (string, int * ty) Hashtbl.t * int =
  match Hashtbl.find_opt eng.flayouts fd.f_name with
  | Some l -> l
  | None ->
      let offsets = Hashtbl.create 8 in
      let off = ref 0 in
      List.iter
        (fun (v : var_decl) ->
          Hashtbl.replace offsets v.v_name (!off, v.v_ty);
          let size =
            (* a declaration of an unknown struct *)
            try Layout.sizeof eng.layout v.v_ty
            with Invalid_argument m -> raise (Value.Fault m)
          in
          off := !off + max 1 size)
        (fd.f_params @ fd.f_locals);
      let l = (offsets, !off) in
      Hashtbl.replace eng.flayouts fd.f_name l;
      l

(* Static queries of the compiler (an expression's type, a field offset,
   an element size) fail only on an ill-typed program: one that skipped
   [Typecheck], or that names an undeclared struct. The failure becomes
   the message of the [Value.Fault] that [faulting] raises when the
   program reaches the node. *)
let static f =
  match f () with
  | v -> Ok v
  | exception
      (Minic.Typecheck.Type_error (m, _) | Invalid_argument m | Value.Fault m)
    ->
      Error m

(* the closure of a node whose static query failed: evaluate the node's
   operand, then fault *)
let faulting m c th fr =
  ignore (c th fr);
  raise (Value.Fault m)

let rec exec_fun eng th (fname : string) (args : Value.t list) : Value.t =
  let fd =
    match Hashtbl.find_opt eng.tenv.funs fname with
    | Some fd -> fd
    | None -> Value.fault "call to undefined function %s" fname
  in
  (match eng.hooks.on_enter_fun with Some f -> f th.tid fname | None -> ());
  th.call_stack <- fname :: th.call_stack;
  let offsets, size = layout_of eng fd in
  let origin = K.OFrame (th.path, th.frame_seq) in
  th.frame_seq <- th.frame_seq + 1;
  let blk = Mem.alloc eng.mem origin size in
  let fr = { fr_block = blk.Mem.b_id } in
  List.iteri
    (fun i (p : var_decl) ->
      match (List.nth_opt args i, Hashtbl.find_opt offsets p.v_name) with
      | Some v, Some (off, _) ->
          Mem.store eng.mem { Value.p_block = blk.Mem.b_id; p_off = off } v
      | _ -> ())
    fd.f_params;
  let region_depth = List.length th.regions in
  let ret =
    try
      compiled_body eng fd th fr;
      Value.zero
    with Return_value v -> v
  in
  (* unwind instrumented regions opened in this frame (a [return] inside a
     weak-lock region skips the WeakExit statements): release the
     innermost region's locks, drop this frame's regions, and restore the
     caller's suspended region if any was uncovered *)
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
  Mem.free eng.mem blk.Mem.b_id;
  th.call_stack <- List.tl th.call_stack;
  (match eng.hooks.on_exit_fun with Some f -> f th.tid fname | None -> ());
  ret

(* A thread's whole execution: [fname] applied to [args]. A [break] or
   [continue] outside any loop unwinds to here and faults the thread. *)
and thread_body eng th (fname : string) (args : Value.t list) : unit =
  try ignore (exec_fun eng th fname args)
  with Brk | Cnt -> Value.fault "break or continue outside a loop"

(* ------------------------------------------------------------------ *)
(* Closure compilation: the evaluator.

   Each function body is staged once, on its first call, into a tree of
   closures. Variable offsets, field offsets, element sizes, static
   lvalue types, builtin arities and each weak region's canonical lock
   order are resolved at compile time; at run time the closures only
   perform the program's [step] effects, hook events, loads, stores, and
   faults. Their order is the engine's semantics, pinned by the golden
   tick counts, record == replay, and the trace stable-stream checks.

   Compilation is total: it never raises. Whatever it cannot resolve
   statically (an unbound variable, a field of a non-struct, a builtin of
   the wrong arity) compiles to a closure that raises [Value.Fault] when
   execution reaches it, after evaluating the node's operands. *)

and compiled_body eng (fd : fundec) : thread -> frame -> unit =
  match Hashtbl.find_opt eng.cbodies fd.f_name with
  | Some cb -> cb
  | None ->
      let offsets, _ = layout_of eng fd in
      let env = Minic.Typecheck.fun_env eng.tenv fd in
      let cb = compile_block eng ~offsets ~env fd.f_body in
      Hashtbl.replace eng.cbodies fd.f_name cb;
      cb

and compile_block eng ~offsets ~env (b : block) : thread -> frame -> unit =
  match List.map (compile_stmt eng ~offsets ~env) b with
  | [] -> fun _ _ -> ()
  | [ c ] -> c
  | cs -> fun th fr -> List.iter (fun c -> c th fr) cs

and compile_stmt eng ~offsets ~env (s : stmt) : thread -> frame -> unit =
  let sid = s.sid in
  let cost = eng.cfg.cost in
  let on_stmt th =
    match eng.hooks.on_stmt with Some f -> f th.tid sid | None -> ()
  in
  match s.skind with
  | Assign (lv, e) ->
      let ce = compile_exp eng ~offsets ~env ~sid e in
      let caddr, _ = compile_lval eng ~offsets ~env ~sid lv in
      fun th fr ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        step cost.c_stmt;
        let v = ce th fr in
        (* separate scheduling point between the read(s) and the write:
           this is what makes load-store races observable *)
        step 1;
        let p = caddr th fr in
        on_mem eng th p ~write:true ~sid;
        Mem.store eng.mem p v
  | Call (ret, tgt, args) ->
      let cfname =
        match tgt with
        | Direct f -> fun _ _ -> f
        | ViaPtr e -> (
            let ce = compile_exp eng ~offsets ~env ~sid e in
            fun th fr ->
              match ce th fr with
              | Value.VFun f -> f
              | Value.VPtr _ | Value.VInt _ ->
                  Value.fault "indirect call through non-function value")
      in
      let cargs = List.map (compile_exp eng ~offsets ~env ~sid) args in
      let cret =
        Option.map
          (fun lv -> fst (compile_lval eng ~offsets ~env ~sid lv))
          ret
      in
      fun th fr ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        step cost.c_stmt;
        let fname = cfname th fr in
        let argv = List.map (fun c -> c th fr) cargs in
        let v = exec_fun eng th fname argv in
        (match cret with
        | Some caddr ->
            let p = caddr th fr in
            on_mem eng th p ~write:true ~sid;
            Mem.store eng.mem p v
        | None -> ())
  | Builtin (ret, b, args) ->
      let cb = compile_builtin eng ~offsets ~env ~sid ret b args in
      fun th fr ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        cb th fr
  | If (c, b1, b2) ->
      let cc = compile_exp eng ~offsets ~env ~sid c in
      let cb1 = compile_block eng ~offsets ~env b1 in
      let cb2 = compile_block eng ~offsets ~env b2 in
      fun th fr ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        step cost.c_stmt;
        if Value.truthy (cc th fr) then cb1 th fr else cb2 th fr
  | While (c, body, li) ->
      let cc = compile_exp eng ~offsets ~env ~sid c in
      let cbody = compile_block eng ~offsets ~env body in
      let cstep = Option.map (compile_stmt eng ~offsets ~env) li.l_step in
      fun th fr ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        (match eng.hooks.on_loop_enter with
        | Some f -> f th.tid li.lid
        | None -> ());
        (try
           while
             step cost.c_stmt;
             Value.truthy (cc th fr)
           do
             (match eng.hooks.on_loop_iter with
             | Some f -> f th.tid li.lid
             | None -> ());
             try cbody th fr
             with Cnt ->
               (* continue in a for-loop still executes the increment *)
               Option.iter (fun c -> c th fr) cstep
           done
         with Brk -> ());
        (match eng.hooks.on_loop_exit with
        | Some f -> f th.tid li.lid
        | None -> ())
  | Return e ->
      let ce = Option.map (compile_exp eng ~offsets ~env ~sid) e in
      fun th fr ->
        on_stmt th;
        eng.stats.n_stmts <- eng.stats.n_stmts + 1;
        step cost.c_stmt;
        let v = match ce with Some c -> c th fr | None -> Value.zero in
        raise (Return_value v)
  | Break | Continue ->
      let exn = if s.skind = Break then Brk else Cnt in
      fun th _fr ->
        on_stmt th;
        step 1;
        raise exn
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
      fun th fr ->
        on_stmt th;
        weak_enter eng th fr cacqs order
  | WeakExit locks ->
      fun th _fr ->
        on_stmt th;
        weak_exit eng th locks

(* A builtin call statement, after its [on_stmt] hook and statement count.
   Arguments evaluate in the order each builtin states; a return value is
   stored after the builtin has run. *)
and compile_builtin eng ~offsets ~env ~sid ret (b : builtin) (args : exp list)
    : thread -> frame -> unit =
  let cost = eng.cfg.cost in
  let cret =
    Option.map (fun lv -> fst (compile_lval eng ~offsets ~env ~sid lv)) ret
  in
  let store_ret th fr v =
    match cret with
    | Some caddr ->
        let p = caddr th fr in
        on_mem eng th p ~write:true ~sid;
        Mem.store eng.mem p v
    | None -> ()
  in
  let sync_key c th fr = Mem.addr_key eng.mem (ptr_of c th fr) in
  match (b, List.map (compile_exp eng ~offsets ~env ~sid) args) with
  | Spawn, ctarget :: crest ->
      fun th fr ->
        step cost.l_spawn;
        let fname =
          match ctarget th fr with
          | Value.VFun f -> f
          | _ -> Value.fault "spawn of non-function"
        in
        let argv = List.map (fun c -> c th fr) crest in
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
        store_ret th fr (VInt child.tid)
  | Join, [ c ] ->
      fun th fr ->
        step cost.c_sync;
        let target = Value.to_int (c th fr) in
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
      fun th fr ->
        step (cost.c_sync + charge_log_sync eng);
        mutex_lock eng th (sync_key c th fr)
  | MutexUnlock, [ c ] ->
      fun th fr ->
        step (cost.c_sync + charge_log_sync eng);
        mutex_unlock eng th (sync_key c th fr)
  | BarrierInit, [ c; cn ] ->
      fun th fr ->
        step (cost.c_sync + charge_log_sync eng);
        let key = sync_key c th fr in
        gate_sync eng th key SBarrierInit;
        record_sync eng th key SBarrierInit;
        Runtime.Sync.Barrier.init eng.barriers key
          ~count:(Value.to_int (cn th fr))
  | BarrierWait, [ c ] ->
      fun th fr ->
        step (cost.c_sync + charge_log_sync eng);
        barrier_wait eng th (sync_key c th fr)
  | CondWait, [ cc; cm ] ->
      fun th fr ->
        step (cost.c_sync + charge_log_sync eng);
        (* the mutex key first: the pinned evaluation order *)
        let mkey = sync_key cm th fr in
        cond_wait eng th (sync_key cc th fr) mkey
  | CondSignal, [ c ] ->
      fun th fr ->
        step (cost.c_sync + charge_log_sync eng);
        cond_signal eng th (sync_key c th fr) ~broadcast:false
  | CondBroadcast, [ c ] ->
      fun th fr ->
        step (cost.c_sync + charge_log_sync eng);
        cond_signal eng th (sync_key c th fr) ~broadcast:true
  | Input, [] -> fun th fr -> store_ret th fr (sys_input eng th)
  | Output, [ c ] ->
      fun th fr ->
        let v = Value.to_int (c th fr) in
        sys_output eng th v
  | NetRead, [ cbuf; cmax ] ->
      fun th fr -> store_ret th fr (sys_read eng th fr ~sid ~net:true cbuf cmax)
  | FileRead, [ cbuf; cmax ] ->
      fun th fr ->
        store_ret th fr (sys_read eng th fr ~sid ~net:false cbuf cmax)
  | Malloc, [ c ] ->
      fun th fr ->
        step cost.c_stmt;
        let size = Value.to_int (c th fr) in
        let origin = K.OHeap (th.path, th.alloc_seq) in
        th.alloc_seq <- th.alloc_seq + 1;
        let blk = Mem.alloc eng.mem origin (max 1 size) in
        store_ret th fr (VPtr { Value.p_block = blk.Mem.b_id; p_off = 0 })
  | Free, [ c ] ->
      fun th fr ->
        step cost.c_stmt;
        (match c th fr with
        | Value.VPtr p -> Mem.free eng.mem p.Value.p_block
        | _ -> ())
  | Yield, [] -> fun _ _ -> step 1
  | Exit, [ c ] ->
      fun th fr ->
        step cost.c_stmt;
        raise (Program_exit (Value.to_int (c th fr)))
  | _ -> fun _ _ -> Value.fault "builtin %s: bad arity" (builtin_name b)

and compile_exp eng ~offsets ~env ~sid (e : exp) : thread -> frame -> Value.t
    =
  match e with
  | Const n ->
      let v = Value.VInt n in
      fun _ _ -> v
  | Lval (Var v) -> (
      match Hashtbl.find_opt offsets v with
      | Some (off, Tarray _) ->
          fun _ fr -> VPtr { Value.p_block = fr.fr_block; p_off = off }
      | Some (off, _) ->
          fun th fr ->
            let p = { Value.p_block = fr.fr_block; p_off = off } in
            on_mem eng th p ~write:false ~sid;
            Mem.load eng.mem p
      | None ->
          if Hashtbl.mem eng.tenv.funs v then (
            let r = Value.VFun v in
            fun _ _ -> r)
          else (
            match Hashtbl.find_opt eng.globals v with
            | Some bid -> (
                match Hashtbl.find_opt eng.tenv.globals v with
                | Some (Tarray _) ->
                    let r = Value.VPtr { Value.p_block = bid; p_off = 0 } in
                    fun _ _ -> r
                | _ ->
                    let p = { Value.p_block = bid; p_off = 0 } in
                    fun th _ ->
                      on_mem eng th p ~write:false ~sid;
                      Mem.load eng.mem p)
            | None -> fun _ _ -> Value.fault "unbound variable %s" v))
  | Lval lv -> (
      (* arrays decay to their address in expression position *)
      let caddr, ty = compile_lval eng ~offsets ~env ~sid lv in
      match ty with
      | Tarray _ -> fun th fr -> VPtr (caddr th fr)
      | _ ->
          fun th fr ->
            let p = caddr th fr in
            on_mem eng th p ~write:false ~sid;
            Mem.load eng.mem p)
  | AddrOf (Var v)
    when (not (Hashtbl.mem offsets v)) && Hashtbl.mem eng.tenv.funs v ->
      let r = Value.VFun v in
      fun _ _ -> r
  | AddrOf lv ->
      let caddr, _ = compile_lval eng ~offsets ~env ~sid lv in
      fun th fr -> VPtr (caddr th fr)
  | Unop (op, e) -> (
      let ce = compile_exp eng ~offsets ~env ~sid e in
      match op with
      | Neg -> fun th fr -> VInt (-Value.to_int (ce th fr))
      | LNot -> fun th fr -> VInt (if Value.truthy (ce th fr) then 0 else 1)
      | BNot -> fun th fr -> VInt (lnot (Value.to_int (ce th fr))))
  | Binop (LAnd, a, b) ->
      let ca = compile_exp eng ~offsets ~env ~sid a in
      let cb = compile_exp eng ~offsets ~env ~sid b in
      fun th fr ->
        if Value.truthy (ca th fr) then
          VInt (if Value.truthy (cb th fr) then 1 else 0)
        else VInt 0
  | Binop (LOr, a, b) ->
      let ca = compile_exp eng ~offsets ~env ~sid a in
      let cb = compile_exp eng ~offsets ~env ~sid b in
      fun th fr ->
        if Value.truthy (ca th fr) then VInt 1
        else VInt (if Value.truthy (cb th fr) then 1 else 0)
  | Binop (op, a, b) -> (
      let ca = compile_exp eng ~offsets ~env ~sid a in
      let cb = compile_exp eng ~offsets ~env ~sid b in
      (* the operator is matched once here; each specialized closure
         keeps [binop]'s value-shape dispatch (pointer arithmetic /
         comparisons first, then the int case, then the ill-typed fault)
         and its right-to-left argument order *)
      let int_cmp cmp =
        fun th fr ->
          match binop_args (ca th fr) (cb th fr) with
          | Value.VInt x, Value.VInt y ->
              Value.VInt (if cmp x y then 1 else 0)
          | va, vb -> binop op va vb
      in
      match op with
      | Add ->
          fun th fr -> (
            match binop_args (ca th fr) (cb th fr) with
            | Value.VInt x, Value.VInt y -> Value.VInt (x + y)
            | va, vb -> binop Add va vb)
      | Sub ->
          fun th fr -> (
            match binop_args (ca th fr) (cb th fr) with
            | Value.VInt x, Value.VInt y -> Value.VInt (x - y)
            | va, vb -> binop Sub va vb)
      | Mul ->
          fun th fr -> (
            match binop_args (ca th fr) (cb th fr) with
            | Value.VInt x, Value.VInt y -> Value.VInt (x * y)
            | va, vb -> binop Mul va vb)
      | Lt -> int_cmp ( < )
      | Le -> int_cmp ( <= )
      | Gt -> int_cmp ( > )
      | Ge -> int_cmp ( >= )
      | Eq -> int_cmp ( = )
      | Ne -> int_cmp ( <> )
      | op -> fun th fr -> binop op (ca th fr) (cb th fr))

and compile_lval eng ~offsets ~env ~sid (lv : lval) :
    (thread -> frame -> Value.ptr) * ty =
  match lv with
  | Var v -> (
      match Hashtbl.find_opt offsets v with
      | Some (off, ty) ->
          ((fun _ fr -> { Value.p_block = fr.fr_block; p_off = off }), ty)
      | None -> (
          match Hashtbl.find_opt eng.globals v with
          | Some bid ->
              let ty =
                match Hashtbl.find_opt eng.tenv.globals v with
                | Some t -> t
                | None -> Tint
              in
              let p = { Value.p_block = bid; p_off = 0 } in
              ((fun _ _ -> p), ty)
          | None ->
              ((fun _ _ -> Value.fault "unbound variable %s" v), Tint)))
  | Deref e -> (
      let ce = compile_exp eng ~offsets ~env ~sid e in
      match static (fun () -> Minic.Typecheck.type_of_exp env e) with
      | Ok ety ->
          ( (fun th fr ->
              match ce th fr with
              | Value.VPtr p -> p
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
        | Tptr _ ->
            fun th fr ->
              let p = cbase th fr in
              on_mem eng th p ~write:false ~sid;
              (match Mem.load eng.mem p with
              | Value.VPtr q -> q
              | v -> Value.fault "indexing non-pointer %a" Value.pp v)
        | _ -> cbase
      in
      match static (fun () -> Layout.sizeof eng.layout ety) with
      | Ok es ->
          ( (fun th fr ->
              let q = celem th fr in
              let i = Value.to_int (cidx th fr) in
              { q with p_off = q.p_off + (i * es) }),
            ety )
      | Error m ->
          ( faulting m (fun th fr ->
                ignore (celem th fr);
                cidx th fr),
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
          ( (fun th fr ->
              let p = cbase th fr in
              { p with p_off = p.p_off + off }),
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
          ( (fun th fr ->
              match ce th fr with
              | Value.VPtr p -> { p with p_off = p.p_off + off }
              | v -> Value.fault "-> on non-pointer %a" Value.pp v),
            fty )
      | Error m -> (faulting m ce, Tint))

(* ------------------------------------------------------------------ *)
(* Thread lifecycle *)

and new_thread eng (path : K.tid_path) : thread =
  let th =
    {
      tid = stable_tid path;
      path;
      status = Runnable;
      resume = None;
      body = None;
      steps = 0;
      weak_acqs = 0;
      stall = 0;
      core = 0;
      spawn_seq = 0;
      frame_seq = 0;
      alloc_seq = 0;
      io_seq = 0;
      call_stack = [];
      regions = [];
      reacquire = [];
      force_now = [];
      turn_check = None;
      blocked_since = 0;
      fault = None;
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
   is only built on the [body] path — not once per resume. *)
let start_thread eng (th : thread) (body : unit -> unit) =
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
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_step cost ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  th.steps <- th.steps + 1;
                  if det_mode eng then
                    th.det_clock <- th.det_clock + cost;
                  th.stall <- max 0 (cost - 1);
                  th.resume <- Some k;
                  (* apply pending forced releases at this step boundary *)
                  List.iter (fun l -> apply_forced_release eng th l) th.force_now;
                  th.force_now <- [];
                  (* replayed forced events keyed by step count *)
                  (match eng.replayer with
                  | Some r -> (
                      match
                        Replay.Replayer.pending_forced r th.path
                          ~steps:th.steps ~acqs:th.weak_acqs
                          ~holds:(fun l -> WL.holds eng.weak l ~tid:th.tid)
                      with
                      | Some lock -> apply_forced_release eng th lock
                      | None -> ())
                  | None -> ()))
          | E_block ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  th.resume <- Some k)
          | _ -> None);
    }
  in
  Effect.Deep.match_with body () handler

let resume_thread eng (th : thread) =
  match th.resume with
  | Some k ->
      th.resume <- None;
      Effect.Deep.continue k ()
  | None -> (
      match th.body with
      | Some body ->
          th.body <- None;
          start_thread eng th body
      | None -> ())

(* Periodic maintenance: IO wakeups, replay-turn checks, replayed forced
   releases for blocked owners, forced reacquisitions.

   Each pass iterates the thread table in [Hashtbl.iter] order, and that
   order is load-bearing: wake order feeds [enqueue]'s shortest-queue
   choice and hence the golden tick counts. The population counters
   therefore only GATE the passes — a pass is skipped exactly when it can
   be proved a no-op (no IO park, no parked turn waiter, no pending
   reacquisition, no forced event left in the log) — and never reorder
   them. *)
let maintenance eng =
  if eng.n_bio > 0 || eng.n_bturn > 0 || eng.n_breacq > 0 then
    Hashtbl.iter
      (fun _ (th : thread) ->
        match th.status with
        | Blocked (BIO t) when eng.ticks >= t -> wake eng th
        | Blocked (BTurn _) -> (
            (* a recording-mode thread with a pending reacquisition stays
               parked (maintenance reacquires on its behalf); in
               deterministic mode the gate-exit path reacquires, so it must
               be woken normally *)
            match th.turn_check with
            | Some check when (th.reacquire = [] || det_mode eng) && check ()
              ->
                wake eng th
            | _ -> ())
        | Blocked BReacq when th.reacquire = [] ->
            set_status eng th Runnable;
            enqueue eng th
        | _ -> ())
      eng.threads;
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
        if th.reacquire = [] then begin
          set_status eng th Runnable;
          enqueue eng th
        end
      end)
    eng.threads

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
  (* replay re-applies forced releases from the log; deterministic mode
     preempts by retry-count dooming — a wall-tick timeout would make
     the preemption point a function of the host schedule *)
  if eng.replayer <> None || det_mode eng then ()
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
            if th.reacquire = [] then begin
              set_status eng th Runnable;
              enqueue eng th
            end
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

let can_run (th : thread) = th.status = Runnable

(* one scheduling tick for core [c] *)
let tick_core eng c =
  let q = eng.queues.(c) in
  (* PCT: bring the highest-priority runnable thread to the head before
     the head is cleaned and run. Ties break to queue order, so the pass
     is deterministic; [Sdefault]/[Sstorm] skip it entirely. *)
  (if eng.cfg.strategy = Spct then
     match !q with
     | [] | [ _ ] -> ()
     | ts -> (
         let best =
           List.fold_left
             (fun acc (t : thread) ->
               if not (can_run t) then acc
               else
                 match acc with
                 | None -> Some t
                 | Some (b : thread) ->
                     if pct_prio eng t.tid > pct_prio eng b.tid then Some t
                     else acc)
             None ts
         in
         match best with
         | Some b when List.hd ts != b ->
             q := b :: List.filter (fun t -> t != b) ts
         | _ -> ()));
  (* drop finished/blocked threads from the head *)
  let rec clean () =
    match !q with
    | th :: rest ->
        if can_run th then Some th
        else begin
          (* done or blocked: remove; a blocked thread is re-enqueued on
             wake *)
          q := rest;
          clean ()
        end
    | [] -> None
  in
  match clean () with
  | None ->
      (* work stealing: take from the longest other queue *)
      let best = ref (-1) and best_len = ref 1 in
      for c' = 0 to eng.cfg.cores - 1 do
        if c' <> c then begin
          let len = List.length !(eng.queues.(c')) in
          if len > !best_len then begin
            best := c';
            best_len := len
          end
        end
      done;
      if !best >= 0 then begin
        match !(eng.queues.(!best)) with
        | x :: rest ->
            (* steal the tail element to keep the victim's head running *)
            let stolen = List.nth (x :: rest) (List.length rest) in
            eng.queues.(!best) <-
              ref (List.filter (fun t -> t != stolen) (x :: rest));
            stolen.core <- c;
            q := [ stolen ]
        | [] -> ()
      end
  | Some th ->
      if th.stall > 0 then th.stall <- th.stall - 1
      else begin
        (match eng.recorder with
        | Some rc ->
            let t0 = ph_now eng in
            Replay.Recorder.rec_sched rc ~core:c ~tp:th.path ~ticks:1;
            ph_add eng Phases.Recorder t0
        | None -> ());
        resume_thread eng th
      end;
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
           match !q with
           | head :: _ -> pct_demote eng head.tid
           | [] -> ());
        match !q with
        | head :: rest when rest <> [] -> q := rest @ [ head ]
        | _ -> ()
      end

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
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str "mem=%d ticks=%d rng=%d live=%d" (Mem.state_hash eng.mem)
       eng.ticks eng.rng eng.live);
  List.iter
    (fun (p, v) -> Buffer.add_string b (Fmt.str " o:%a=%d" K.pp_tid_path p v))
    (List.rev eng.outputs);
  List.iter
    (fun tid ->
      let th = Hashtbl.find eng.threads tid in
      Buffer.add_string b
        (Fmt.str " t:%a=%d,%d,%d" K.pp_tid_path th.path th.steps th.weak_acqs
           (status_code th.status)))
    (List.rev eng.thread_order);
  Digest.to_hex (Digest.string (Buffer.contents b))

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
  let eng =
    {
      prog;
      tenv = Minic.Typecheck.env_of_program prog;
      layout = Layout.create prog.p_structs;
      cfg = config;
      mode;
      io;
      hooks;
      mem = Mem.create ();
      mutexes = Runtime.Sync.Mutex.create ();
      barriers = Runtime.Sync.Barrier.create ();
      conds = Runtime.Sync.Cond.create ();
      weak = WL.create ();
      threads = Hashtbl.create 16;
      thread_order = [];
      queues = Array.init config.cores (fun _ -> ref []);
      quanta = Array.make config.cores config.quantum;
      globals = Hashtbl.create 64;
      recorder;
      replayer;
      sink;
      stats = new_stats ();
      ticks = 0;
      outputs = [];
      live = 0;
      exit_code = None;
      rng = (config.seed * 2) + 1;
      main_done = false;
      prio = Hashtbl.create 16;
      pct_floor = 0;
      flayouts = Hashtbl.create 64;
      cbodies = Hashtbl.create 64;
      n_bio = 0;
      n_bturn = 0;
      n_breacq = 0;
      n_reacq = 0;
      phases;
    }
  in
  (* allocate and initialize globals *)
  List.iter
    (fun (g : global) ->
      let size = max 1 (Layout.sizeof eng.layout g.g_ty) in
      let blk = Mem.alloc eng.mem (K.OGlobal g.g_name) size in
      (match g.g_init with
      | Some vals ->
          List.iteri
            (fun i v ->
              if i < size then
                Mem.store eng.mem
                  { Value.p_block = blk.Mem.b_id; p_off = i }
                  (VInt v))
            vals
      | None -> ());
      Hashtbl.replace eng.globals g.g_name blk.Mem.b_id)
    prog.p_globals;
  eng

(* a windowed replayer that reached its bound: the run stops cleanly *)
let replay_halted eng =
  match eng.replayer with
  | Some r -> Replay.Replayer.halted r
  | None -> false

let run_engine (eng : t) : outcome =
  (match eng.phases with Some p -> Phases.start p | None -> ());
  (* main thread *)
  let main = new_thread eng [] in
  main.body <- Some (fun () -> thread_body eng main "main" []);
  enqueue eng main;
  let timed_out = ref false in
  (* consecutive idle fast-forwards where the wake-up resolved nothing;
     unwinding a hold-wait cycle through several weak locks takes one
     forced release per timeout deadline, so a single fruitless round is
     not yet a deadlock *)
  let stuck_rounds = ref 0 in
  (* ends the scheduling loop; private, so that an [Exit] escaping a
     thread propagates like any other exception *)
  let exception Halt in
  (try
     while
       eng.live > 0 && eng.exit_code = None && not eng.main_done
       && not (replay_halted eng)
     do
       eng.ticks <- eng.ticks + 1;
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
       let start = rng_next eng mod eng.cfg.cores in
       for i = 0 to eng.cfg.cores - 1 do
         tick_core eng ((start + i) mod eng.cfg.cores)
       done;
       (* fast-forward idle periods (everything blocked on IO/turn) *)
       if
         Array.for_all (fun q -> !q = []) eng.queues
         && eng.live > 0
       then begin
         let t0 = ph_now eng in
         maintenance eng;
         if Array.for_all (fun q -> !q = []) eng.queues then begin
           (* all blocked: jump to the next wake-up — an IO completion or
              a weak-lock timeout deadline (the escape hatch that resolves
              weak-lock-vs-program-sync deadlocks, Section 2.3) *)
           let next_wake =
             Hashtbl.fold
               (fun _ (th : thread) acc ->
                 let wake_at =
                   match th.status with
                   | Blocked (BIO t) -> t
                   | Blocked (BWeak _ | BReacq) ->
                       (* both resolve through the weak-lock timeout;
                          [blocked_since + timeout] is the last tick of
                          grace *)
                       th.blocked_since + effective_weak_timeout eng + 1
                   | _ -> max_int
                 in
                 if wake_at < acc then wake_at else acc)
               eng.threads max_int
           in
           ph_add eng Phases.Scheduler t0;
           if next_wake < max_int then begin
             if next_wake > eng.ticks then eng.ticks <- next_wake;
             let t0 = ph_now eng in
             check_weak_timeouts eng;
             ph_add eng Phases.Weaklock t0;
             maintenance eng;
             if Array.for_all (fun q -> !q = []) eng.queues then begin
               (* nothing woke this round. Each round expires only the
                  earliest deadline and restarts that thread's clock, so
                  breaking an N-lock cycle needs up to N rounds of forced
                  releases; only a sustained run of fruitless rounds means
                  genuinely stuck. *)
               incr stuck_rounds;
               if !stuck_rounds > 8 * (eng.live + 1) then begin
                 timed_out := true;
                 raise Halt
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
             if Array.for_all (fun q -> !q = []) eng.queues then begin
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
              (fun q -> List.exists (fun (t : thread) -> t.tid = th.tid) !q)
              eng.queues
          in
          Fmt.str "%a: %s, steps=%d, stall=%d, regions=%d, queued=%b, \
                   has-cont=%b, reacquire=[%s]"
            K.pp_tid_path th.path status th.steps th.stall
            (List.length th.regions) queued
            (th.resume <> None || th.body <> None)
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
