(** Schedule-independent identities for threads and memory objects.

    Record/replay logs must name threads and synchronization objects in a
    way that is stable across executions with different schedules (the
    replayer may run under a different scheduler seed than the recorder).
    Run-local thread ids and block ids are allocated in schedule-dependent
    order, so logs key on:

    - {e thread paths}: the root thread is [[]]; the k-th thread spawned
      by a thread with path [p] is [p @ [k]]. Per-thread spawn counters
      are deterministic given deterministic per-thread execution, which
      replay enforcement guarantees inductively.
    - {e object origins}: a global by name; a stack frame by (spawning
      thread path, per-thread frame counter); a heap block by (thread
      path, per-thread allocation counter). *)

type tid_path = int list

let pp_tid_path ppf p =
  if p = [] then Fmt.string ppf "T0"
  else Fmt.pf ppf "T0.%a" Fmt.(list ~sep:(any ".") int) p

type origin =
  | OGlobal of string
  | OFrame of tid_path * int  (** thread, per-thread frame sequence *)
  | OHeap of tid_path * int   (** thread, per-thread allocation sequence *)

let pp_origin ppf = function
  | OGlobal g -> Fmt.string ppf g
  | OFrame (p, n) -> Fmt.pf ppf "frame(%a,%d)" pp_tid_path p n
  | OHeap (p, n) -> Fmt.pf ppf "heap(%a,%d)" pp_tid_path p n

(* the digits of [n <= 0], most significant first; working on the
   negative side covers [min_int], which has no positive counterpart *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

let rec add_path_steps b = function
  | [] -> ()
  | k :: ks ->
      Buffer.add_char b '.';
      add_int b k;
      add_path_steps b ks

let add_tid_path b p =
  Buffer.add_string b "T0";
  add_path_steps b p

let add_seq_origin b kind p n =
  Buffer.add_string b kind;
  add_tid_path b p;
  Buffer.add_char b ',';
  add_int b n;
  Buffer.add_char b ')'

let add_origin b = function
  | OGlobal g -> Buffer.add_string b g
  | OFrame (p, n) -> add_seq_origin b "frame(" p n
  | OHeap (p, n) -> add_seq_origin b "heap(" p n

(** A stable memory address: origin + cell offset. *)
type addr = { a_origin : origin; a_off : int }

let pp_addr ppf a = Fmt.pf ppf "%a+%d" pp_origin a.a_origin a.a_off

(* The typed comparators below order exactly like [Stdlib.compare] on
   these types (constructor declaration order, then fields left to
   right), so switching a sort between them never reorders anything —
   but they never fall into the polymorphic-compare runtime. *)

let compare_tid_path (a : tid_path) (b : tid_path) : int =
  let rec go a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs, y :: ys ->
        if x < y then -1 else if x > y then 1 else go xs ys
  in
  go a b

let rec equal_tid_path (a : tid_path) (b : tid_path) =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> x = y && equal_tid_path xs ys
  | _ -> false

let compare_origin (a : origin) (b : origin) : int =
  match (a, b) with
  | OGlobal x, OGlobal y -> String.compare x y
  | OGlobal _, _ -> -1
  | _, OGlobal _ -> 1
  | OFrame (p, n), OFrame (q, m) -> (
      match compare_tid_path p q with 0 -> Int.compare n m | c -> c)
  | OFrame _, _ -> -1
  | _, OFrame _ -> 1
  | OHeap (p, n), OHeap (q, m) -> (
      match compare_tid_path p q with 0 -> Int.compare n m | c -> c)

let compare_addr (a : addr) (b : addr) : int =
  match compare_origin a.a_origin b.a_origin with
  | 0 -> Int.compare a.a_off b.a_off
  | c -> c

module Addr_map = Map.Make (struct
  type t = addr
  let compare = compare_addr
end)

(* the polymorphic hash, so buckets and iteration order are those of a
   [Hashtbl.t] with the same keys *)
module Path_tbl = Hashtbl.Make (struct
  type t = tid_path
  let equal = equal_tid_path
  let hash = Hashtbl.hash
end)

module Addr_tbl = Hashtbl.Make (struct
  type t = addr
  let equal = ( = )
  let hash = Hashtbl.hash
end)
