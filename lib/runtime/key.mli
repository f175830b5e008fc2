(** Schedule-independent identities for threads and memory objects.

    Logs must name threads and synchronization objects stably across
    executions with different schedules: threads by spawn-tree paths,
    objects by origins (global name, or (thread path, per-thread
    sequence) for frames and heap blocks). *)

type tid_path = int list
(** [[]] is the root thread; the k-th thread spawned by a thread with
    path [p] is [p @ [k]]. *)

val pp_tid_path : tid_path Fmt.t

type origin =
  | OGlobal of string
  | OFrame of tid_path * int  (** thread, per-thread frame sequence *)
  | OHeap of tid_path * int   (** thread, per-thread allocation sequence *)

val pp_origin : origin Fmt.t

(** Buffer writers for digests: each appends exactly the text of
    [Fmt.int], {!pp_tid_path} and {!pp_origin}, and allocates nothing
    once the buffer has room. *)

val add_int : Buffer.t -> int -> unit
val add_tid_path : Buffer.t -> tid_path -> unit
val add_origin : Buffer.t -> origin -> unit

type addr = { a_origin : origin; a_off : int }
(** A stable memory address: origin + cell offset. *)

val pp_addr : addr Fmt.t
val compare_tid_path : tid_path -> tid_path -> int
val equal_tid_path : tid_path -> tid_path -> bool
val compare_origin : origin -> origin -> int
val compare_addr : addr -> addr -> int

module Addr_map : Map.S with type key = addr
module Addr_tbl : Hashtbl.S with type key = addr

(** Keyed by [equal_tid_path] and hashed by [Hashtbl.hash], so buckets and
    iteration order are those of a polymorphic [Hashtbl.t] *)
module Path_tbl : Hashtbl.S with type key = tid_path
