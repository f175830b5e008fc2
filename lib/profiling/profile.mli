(** Off-line profiling (paper Section 4): which function pairs ever
    execute concurrently (an invocation of one overlapping an invocation
    of the other in another thread — either may be anywhere on its
    thread's stack), and the average statements per loop iteration (the
    loop-body-threshold input of Section 5.3). Profiles union across
    runs. *)

module Pairset : Set.S with type elt = string * string

type t = {
  mutable concurrent_pairs : Pairset.t;
  loop_iters : (int, int ref) Hashtbl.t;
  loop_insns : (int, int ref) Hashtbl.t;
  mutable runs : int;
}

val create : unit -> t

(** Were the two functions (order-insensitive) ever observed
    concurrent? *)
val concurrent : t -> string -> string -> bool

(** Average executed statements per iteration; [None] if never run. *)
val avg_loop_body : t -> int -> float option

(** Wire the profiler into engine hooks (returns them). *)
val attach : t -> Interp.Engine.hooks -> Interp.Engine.hooks

(** One profiled native run. *)
val profile_run :
  ?config:Interp.Engine.config ->
  io:Interp.Iomodel.t ->
  t ->
  Minic.Ast.program ->
  Interp.Engine.outcome

(** Merge [src] into [into] (pair union, counter sums) — order-independent,
    so parallel per-run profiles aggregate to the serial result. *)
val merge : into:t -> t -> unit

(** Confirming runs of the stop rule in {!profile_many} (2). *)
val stable_runs : int

(** At most [runs] profiled runs with per-run input models (the paper
    uses 20 runs with varied inputs). Without [view], exactly [runs]
    runs. With [view], profiling stops after run [i] once [view] of the
    merged profile is the same after runs [i - stable_runs] through [i];
    [view] must return a canonical value (compared with [=]). With
    [pool], runs execute in rounds of the pool's size and merge in run
    order up to the stop point; the profile, [runs] included, is
    identical to the serial one. *)
val profile_many :
  ?config:Interp.Engine.config ->
  ?pool:Par.Pool.t ->
  ?view:(t -> 'v) ->
  io_of:(int -> Interp.Iomodel.t) ->
  ?runs:int ->
  Minic.Ast.program ->
  t

val n_concurrent_pairs : t -> int

(** [profile: R of at most CAP runs, P concurrent pairs]. *)
val pp : cap:int -> t Fmt.t
