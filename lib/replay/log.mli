(** Record/replay log structures and their binary serialization.

    A recording splits, as in the paper, into the {e input log} (syscall
    results in per-thread order + the global syscall serialization) and
    the {e order log} (per-object synchronization order, per-weak-lock
    acquisition order with claimed address ranges, forced-release
    events). Threads are named by {!Runtime.Key.tid_path}s and objects by
    stable {!Runtime.Key.addr}s so a replayer under a different scheduler
    still matches events. *)

open Runtime

exception Corrupt of string
(** Raised by {!decode} when a log is truncated or corrupt (varint or
    string running past the end, impossible list length, unknown tag).
    Decoding never escapes with a raw [Invalid_argument]. *)

type sync_op =
  | SMutexAcq
  | SMutexRel
  | SBarrierInit
  | SBarrierWait
  | SCondWait
  | SCondSignal
  | SCondBroadcast

val sync_op_code : sync_op -> int
val sync_op_of_code : int -> sync_op
val pp_sync_op : sync_op Fmt.t

type srange = {
  sr_origin : Key.origin;
  sr_lo : int;
  sr_hi : int;
  sr_write : bool;
}
(** A claimed address range in stable origin coordinates. *)

type sclaim = srange list
(** Empty = total claim. *)

(** Do two claims conflict (overlap with at least one writer, or either
    total)? Replay enforces recorded order only between conflicting
    acquisitions. *)
val sclaims_conflict : sclaim -> sclaim -> bool

type forced_event = {
  fe_owner : Key.tid_path;
  fe_steps : int;  (** owner's step count at preemption *)
  fe_acqs : int;
      (** owner's weak-acquisition count at preemption — orders the event
          against the owner's own reacquisitions at the same step count *)
  fe_lock : Minic.Ast.weak_lock;
}

type t = {
  inputs : (Key.tid_path, int list list ref) Hashtbl.t;
      (** per-thread recorded syscall bursts, newest first *)
  mutable syscall_order : Key.tid_path list;  (** global order, reversed *)
  sync_order : (Key.addr, (sync_op * Key.tid_path) list ref) Hashtbl.t;
      (** per-object op sequence, reversed *)
  weak_order :
    (Minic.Ast.weak_lock, (Key.tid_path * sclaim) list ref) Hashtbl.t;
      (** per-lock acquisition sequence with claims, reversed *)
  mutable forced : forced_event list;  (** reversed *)
}
(** Keyed event sequences live behind [ref] cells so the recorder appends
    with a single table lookup; sequences are stored newest-first. *)

val create : unit -> t

val cell : ('k, 'a list ref) Hashtbl.t -> 'k -> 'a list ref
(** [cell tbl k] is the append cell for [k], created empty on first use. *)

val oldest_first : 'a list -> 'a array
(** Oldest-first array view of a newest-first event list. *)

(** Varint-based binary encodings; reported log sizes are these strings,
    compressed. [decode input order] inverts both. Every int except
    [min_int] encodes (zigzag, 1 to 9 bytes).
    @raise Invalid_argument naming the value if the log holds [min_int]. *)
val encode_input_log : t -> string

val encode_order_log : t -> string

(** Same bytes as the plain encoders, plus the strictly interior
    record-boundary offsets (section headers and per-event boundaries),
    ascending — the cut points of the fault-injection truncation sweep. *)
val encode_input_log_marked : t -> string * int array

val encode_order_log_marked : t -> string * int array

val decode : string -> string -> t
(** @raise Corrupt on truncated or malformed input, and on trailing
    bytes left after either log's structure is complete — a recording
    must consume both buffers exactly. *)
