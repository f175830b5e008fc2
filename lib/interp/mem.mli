(** Simulated shared memory: blocks (globals, frames, heap allocations)
    of value cells. Every block carries a schedule-independent
    {!Runtime.Key.origin} so log events and the final-state hash are
    comparable across runs with different allocation orders. *)

type block = {
  b_id : int;
  b_origin : Runtime.Key.origin;
  cells : Value.t array;
  b_freed : bool;  (** a freed block keeps no cells *)
}

type t = {
  mutable blocks : block array;
      (** indexed by (dense) block id; an empty slot holds a shared
          freed stub without cells *)
  mutable next_id : int;
}

val create : unit -> t
val alloc : t -> Runtime.Key.origin -> int -> block
val free : t -> int -> unit

(** [None] on an unknown id; freed blocks are still returned. *)
val find_opt : t -> int -> block option

(** Raises {!Value.Fault} on a freed or unknown block. *)
val block : t -> int -> block

(** [load_at m id off] reads cell [off] of block [id]. Bounds-checked;
    raises {!Value.Fault}. *)
val load_at : t -> int -> int -> Value.t

(** [store_at m id off v] writes cell [off] of block [id], checked like
    {!load_at}. *)
val store_at : t -> int -> int -> Value.t -> unit

(** Stable address for log keys. *)
val addr_key : t -> Value.ptr -> Runtime.Key.addr

(** Deterministic hash of every cell of live global + heap memory, with
    pointers canonicalized through origins (the determinism-check state
    hash). *)
val state_hash : t -> int
