(** Runtime values for the MiniC interpreter.

    Pointers are (block, cell-offset) pairs; pointer arithmetic is
    cell-granular (adding [n] moves [n] cells regardless of pointee type),
    while array indexing [a\[i\]] scales by element size — the documented
    MiniC flattening of C's byte-addressed model onto word cells. *)

type ptr = { p_block : int; p_off : int }

type t =
  | VInt of int
  | VPtr of ptr
  | VFun of string

let zero = VInt 0

(* the values 0..255, built once: a byte a read returns is stored as
   one of these instead of a fresh block *)
let bytes = Array.init 256 (fun b -> VInt b)

let of_byte b = if b land 255 = b then Array.unsafe_get bytes b else VInt b

let pp ppf = function
  | VInt n -> Fmt.int ppf n
  | VPtr p -> Fmt.pf ppf "&b%d+%d" p.p_block p.p_off
  | VFun f -> Fmt.pf ppf "&%s" f

exception Fault of string

let fault fmt = Fmt.kstr (fun m -> raise (Fault m)) fmt

let to_int = function
  | VInt n -> n
  | VPtr _ -> fault "pointer used as integer"
  | VFun f -> fault "function %s used as integer" f

let truthy = function
  | VInt 0 -> false
  | VInt _ -> true
  | VPtr _ | VFun _ -> true

let equal_value a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VPtr x, VPtr y -> x = y
  | VFun x, VFun y -> String.equal x y
  | VPtr _, VInt 0 | VInt 0, VPtr _ -> false (* valid pointer is non-null *)
  | _ -> false
