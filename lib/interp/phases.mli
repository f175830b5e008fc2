(** Per-phase wall-clock attribution for a record run.

    A [Phases.t] handed to {!Engine.run} makes the engine bucket its
    host time into interpreter work, recorder work, scheduler
    bookkeeping (maintenance + idle fast-forward), and weak-lock
    admission (timeout sweeps). The recorder bucket holds the appends of
    gated events only (inputs, synchronization, weak-lock and
    forced-release entries). Per-core-tick work is left off the clock,
    whose two reads would cost more than one core's tick, so it is the
    scheduler cost this books as interpreter time: [tick_core], the
    start-core draw, the idle-span bound and the skip that stands in
    for idle ticks (DESIGN.md §22), and the ticks a step taken in place
    stands for, which run inside the thread's own step (§23). Buckets are swap-free monotonic-clock
    spans around non-suspending sections only, so they never straddle a
    coroutine switch; interpreter time is what remains of the run total
    after the explicit buckets. With no [Phases.t]
    attached (the default) the engine reads no clocks at all.

    The clock is injected ([now], seconds) so this library needs no
    timer dependency; callers pass e.g. bechamel's monotonic clock. *)

type bucket = Recorder | Scheduler | Weaklock

type t

val create : now:(unit -> float) -> unit -> t

val now : t -> float

val add : t -> bucket -> float -> unit

(** Mark the start / end of the measured run (sets the total). *)
val start : t -> unit

val finish : t -> unit

(** Bucket totals, seconds. [interp_s] = total - recorder - scheduler -
    weaklock, clamped at 0. *)
val total_s : t -> float

val recorder_s : t -> float

val scheduler_s : t -> float

val weaklock_s : t -> float

val interp_s : t -> float
