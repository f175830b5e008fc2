(** The weak-lock manager (Section 2.3 of the paper).

    Weak locks are the synchronization Chimera adds around potential
    data-races. Differences from ordinary mutexes:

    - {e Ranges}: a loop-lock acquisition carries the address ranges the
      loop will touch (from the symbolic bounds analysis). Two holders of
      the {e same} weak lock coexist iff both carry ranges and every pair
      of ranges is disjoint — this is what lets radix's workers process
      disjoint array slices in parallel (Figure 4).
    - {e Region stacking}: when a thread enters an inner instrumented
      region, the runtime releases the outer region's weak locks first
      and reacquires them when the inner region exits (deadlock-freedom
      rule of Section 2.3). That logic lives in the engine's region
      stack; this module only tracks per-lock ownership.
    - {e Timeouts}: a thread stalled longer than a threshold triggers
      {!force_release} of the conflicting owner, which must reacquire
      before continuing. The single-owner-per-lock invariant (at most one
      holder per conflicting range) is never violated, so recording the
      per-lock acquisition order suffices for deterministic replay.

    The manager is a pure state machine: the engine owns thread states,
    wake-ups, timeout detection, and logging. *)

open Minic.Ast

type tid = int

(** An address range in run-local block coordinates, with an access mode:
    two overlapping ranges conflict only when at least one writes. A
    total claim (the empty range list) means "-INF to +INF" (Figure 4)
    and conflicts with everything. *)
type range = { rg_block : int; rg_lo : int; rg_hi : int; rg_write : bool }

let pp_range ppf r =
  Fmt.pf ppf "b%d[%d..%d]%s" r.rg_block r.rg_lo r.rg_hi
    (if r.rg_write then "w" else "r")

(** Ranges of one acquisition: empty list = total. *)
type claim = range list

(** Reference pairwise disjointness — the specification the normalized
    merge-scan below must agree with (a qcheck property pins this). *)
let ranges_disjoint (a : claim) (b : claim) : bool =
  match (a, b) with
  | [], _ | _, [] -> false (* a total claim conflicts with everything *)
  | _ ->
      List.for_all
        (fun ra ->
          List.for_all
            (fun rb ->
              (not (ra.rg_write || rb.rg_write))
              || ra.rg_block <> rb.rg_block
              || ra.rg_hi < rb.rg_lo || rb.rg_hi < ra.rg_lo)
            b)
        a

(* ------------------------------------------------------------------ *)
(* Normalized claims: the admission hot path compares claims through a
   canonical interval form instead of the pairwise product above. A
   claim becomes two sorted, coalesced, pairwise-disjoint interval
   arrays — all covered cells and the written cells — so disjointness of
   two claims is a merge scan: claims conflict iff one side's writes
   intersect the other side's coverage (equivalent to "some range pair
   overlaps with a writer", since any such pair yields a common cell
   written by one side, and vice versa). *)

type iv = { iv_block : int; iv_lo : int; iv_hi : int }

type nclaim = {
  nc_total : bool;          (* empty claim: conflicts with everything *)
  nc_all : iv array;        (* coalesced coverage, sorted (block, lo) *)
  nc_w : iv array;          (* coalesced written cells, sorted *)
}

(* sorted + coalesced union of [ivs]: adjacent or overlapping intervals
   of one block merge (integer cells, so [0..2]+[3..5] = [0..5]) *)
let coalesce (ivs : iv list) : iv array =
  match
    List.sort
      (fun a b ->
        match Int.compare a.iv_block b.iv_block with
        | 0 -> Int.compare a.iv_lo b.iv_lo
        | c -> c)
      ivs
  with
  | [] -> [||]
  | first :: rest ->
      let out = ref [] and cur = ref first in
      List.iter
        (fun v ->
          if
            v.iv_block = !cur.iv_block
            && v.iv_lo <= !cur.iv_hi + 1
          then begin
            if v.iv_hi > !cur.iv_hi then cur := { !cur with iv_hi = v.iv_hi }
          end
          else begin
            out := !cur :: !out;
            cur := v
          end)
        rest;
      out := !cur :: !out;
      let a = Array.of_list !out in
      let n = Array.length a in
      (* !out is newest-first: reverse back to ascending *)
      for i = 0 to (n / 2) - 1 do
        let t = a.(i) in
        a.(i) <- a.(n - 1 - i);
        a.(n - 1 - i) <- t
      done;
      a

let normalize (c : claim) : nclaim =
  match c with
  | [] -> { nc_total = true; nc_all = [||]; nc_w = [||] }
  | _ ->
      let all =
        List.map
          (fun r -> { iv_block = r.rg_block; iv_lo = r.rg_lo; iv_hi = r.rg_hi })
          c
      in
      let w =
        List.filter_map
          (fun r ->
            if r.rg_write then
              Some { iv_block = r.rg_block; iv_lo = r.rg_lo; iv_hi = r.rg_hi }
            else None)
          c
      in
      { nc_total = false; nc_all = coalesce all; nc_w = coalesce w }

(* do two sorted disjoint interval arrays share a cell? merge scan *)
let ivs_intersect (a : iv array) (b : iv array) : bool =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and hit = ref false in
  while (not !hit) && !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x.iv_block < y.iv_block then incr i
    else if y.iv_block < x.iv_block then incr j
    else if x.iv_hi < y.iv_lo then incr i
    else if y.iv_hi < x.iv_lo then incr j
    else hit := true
  done;
  !hit

let nclaim_disjoint (a : nclaim) (b : nclaim) : bool =
  if a.nc_total || b.nc_total then false
  else
    (not (ivs_intersect a.nc_w b.nc_all))
    && not (ivs_intersect b.nc_w a.nc_all)

type holder = { h_tid : tid; h_claim : claim; h_norm : nclaim }

type waiter = { w_tid : tid; w_claim : claim; w_norm : nclaim }

type lock_state = {
  mutable holders : holder list;
  mutable waiters : waiter list;         (* FIFO *)
  waiter_ids : (tid, unit) Hashtbl.t;
      (* O(1) membership beside the FIFO queue: [acquire] re-enqueue
         checks and [cancel_wait] stop scanning the list *)
  mutable acq_count : int;               (* total acquisitions, for stats *)
  mutable pending : tid list;
      (* handoff after a timeout-preemption: while non-empty, only these
         threads may acquire — the paper's "allows the stalled thread to
         acquire the weak-lock and proceed" (Section 2.3) *)
}

module Wl_tbl = Hashtbl.Make (struct
  type t = weak_lock
  let equal = equal_weak_lock
  let hash = Hashtbl.hash
end)

type t = {
  locks : lock_state Wl_tbl.t;
  mutable total_acquires : int;
  mutable total_releases : int;
  mutable total_timeouts : int;
  mutable total_handoff_served : int;
      (* a preemption-time waiter consumed its reservation *)
  mutable total_handoff_expired : int;
      (* a reservation was cleared before the reserved thread came back *)
}

let create () =
  {
    locks = Wl_tbl.create 64;
    total_acquires = 0;
    total_releases = 0;
    total_timeouts = 0;
    total_handoff_served = 0;
    total_handoff_expired = 0;
  }

let get t (l : weak_lock) =
  match Wl_tbl.find_opt t.locks l with
  | Some s -> s
  | None ->
      let s =
        {
          holders = [];
          waiters = [];
          waiter_ids = Hashtbl.create 8;
          acq_count = 0;
          pending = [];
        }
      in
      Wl_tbl.add t.locks l s;
      s

let compatible (s : lock_state) (tid : tid) (c : nclaim) : bool =
  List.for_all
    (fun h -> h.h_tid = tid || nclaim_disjoint h.h_norm c)
    s.holders

(** Try to acquire [l] with [claim]. [`Blocked owners] reports the
    currently-conflicting owners (for timeout-preemption targeting). *)
let acquire t (l : weak_lock) ~tid ~(claim : claim) :
    [ `Acquired | `Blocked of tid list ] =
  let s = get t l in
  let norm = normalize claim in
  if
    compatible s tid norm
    && (match s.pending with [] -> true | h :: _ -> h = tid)
  then begin
    (match s.pending with
    | h :: rest when h = tid ->
        s.pending <- rest;
        t.total_handoff_served <- t.total_handoff_served + 1
    | _ -> ());
    s.holders <- { h_tid = tid; h_claim = claim; h_norm = norm } :: s.holders;
    s.acq_count <- s.acq_count + 1;
    t.total_acquires <- t.total_acquires + 1;
    `Acquired
  end
  else begin
    if not (Hashtbl.mem s.waiter_ids tid) then begin
      s.waiters <-
        s.waiters @ [ { w_tid = tid; w_claim = claim; w_norm = norm } ];
      Hashtbl.replace s.waiter_ids tid ()
    end;
    let conflicting =
      List.filter_map
        (fun h ->
          if h.h_tid <> tid && not (nclaim_disjoint h.h_norm norm) then
            Some h.h_tid
          else None)
        s.holders
    in
    `Blocked conflicting
  end

(** Release [tid]'s hold on [l]; returns waiting threads that may now be
    able to acquire (the engine wakes them; they retry).

    Only waiters whose claims are compatible with the remaining holders
    (and not locked out by a handoff reservation) are woken; the rest
    keep their FIFO queue position. Waking everybody — the old behavior
    — both stampeded threads that could not possibly acquire and, worse,
    discarded their arrival order: a retrying loser re-enqueued at the
    tail behind later arrivals, starving under contention. *)
let release t (l : weak_lock) ~tid : tid list =
  let s = get t l in
  let before = List.length s.holders in
  s.holders <- List.filter (fun h -> h.h_tid <> tid) s.holders;
  if List.length s.holders < before then
    t.total_releases <- t.total_releases + 1;
  let may_acquire w =
    compatible s w.w_tid w.w_norm
    && (match s.pending with [] -> true | h :: _ -> h = w.w_tid)
  in
  let woken, kept = List.partition may_acquire s.waiters in
  s.waiters <- kept;
  List.iter (fun w -> Hashtbl.remove s.waiter_ids w.w_tid) woken;
  List.map (fun w -> w.w_tid) woken

(** Forcibly strip [owner]'s hold on [l] (timeout-preemption). Returns the
    waiters to wake. The caller must arrange for [owner] to reacquire
    before it continues its region. With [handoff] (the default during
    recording), the threads waiting at preemption time get priority over
    the owner's reacquisition — otherwise the owner can immediately
    re-win the lock and the preemption resolves nothing. *)
let force_release ?(handoff = true) t (l : weak_lock) ~owner : tid list =
  t.total_timeouts <- t.total_timeouts + 1;
  let s = get t l in
  if handoff then
    s.pending <-
      List.filter_map
        (fun w -> if w.w_tid <> owner then Some w.w_tid else None)
        s.waiters;
  release t l ~tid:owner

(** Expire a stale handoff reservation (the reserved thread cannot come
    back for the lock soon — e.g. it is parked at a barrier the
    reservation itself prevents from tripping). *)
let clear_pending t (l : weak_lock) =
  let s = get t l in
  if s.pending <> [] then begin
    t.total_handoff_expired <- t.total_handoff_expired + 1;
    s.pending <- []
  end

let holds t (l : weak_lock) ~tid =
  List.exists (fun h -> h.h_tid = tid) (get t l).holders

let holders t (l : weak_lock) = List.map (fun h -> h.h_tid) (get t l).holders

(** Current holders with their claims (inspection / invariant checks). *)
let holder_claims t (l : weak_lock) : (tid * claim) list =
  List.map (fun h -> (h.h_tid, h.h_claim)) (get t l).holders

(** Number of threads queued on [l]. *)
let waiter_count t (l : weak_lock) = List.length (get t l).waiters

(** Drop [tid] from the waiter queue of [l] (used when a waiter is
    re-routed by the replayer or dies). Any handoff reservation [tid]
    held must go with it: a cancelled waiter never comes back for the
    lock, and a reservation for a thread that will never claim it blocks
    every other acquirer forever. *)
let cancel_wait t (l : weak_lock) ~tid =
  let s = get t l in
  if Hashtbl.mem s.waiter_ids tid then begin
    Hashtbl.remove s.waiter_ids tid;
    s.waiters <- List.filter (fun w -> w.w_tid <> tid) s.waiters
  end;
  if List.mem tid s.pending then
    s.pending <- List.filter (fun w -> w <> tid) s.pending
