(** Runtime values. Pointers are (block, cell-offset) pairs; pointer
    arithmetic is cell-granular while array indexing scales by element
    size (MiniC's word-cell flattening of C's byte addressing). *)

type ptr = { p_block : int; p_off : int }

type t =
  | VInt of int
  | VPtr of ptr
  | VFun of string

val zero : t

(** [VInt b], shared for every [b] in 0..255 *)
val of_byte : int -> t
val pp : t Fmt.t

exception Fault of string
(** Runtime error in the simulated program (out-of-bounds access,
    division by zero, type confusion, ...); kills the faulting thread. *)

val fault : ('a, Format.formatter, unit, 'b) format4 -> 'a
val to_int : t -> int
val truthy : t -> bool
val equal_value : t -> t -> bool
