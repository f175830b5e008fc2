(** The replayer: cursors over a {!Log.t} that the engine consults to gate
    execution.

    Replay enforces exactly the orders the paper's replayer enforces:
    per-thread syscall results are fed back from the input log; the global
    syscall order, the per-object synchronization-operation order, and
    the per-weak-lock acquisition order are enforced by blocking a thread
    whose operation is not next in its object's recorded sequence; forced
    weak-lock releases are re-applied at the recorded owner step count.
    Data accesses are not gated: the instrumented program is data-race
    free under its (weak-)lock synchronization, so these orders determine
    the execution.

    Cursors are position-indexed arrays over the decoded sequences, so
    every peek/advance is O(1); the weak-lock cursor additionally keeps a
    consumed bitmap and per-thread position queues so the out-of-order
    consumption of disjoint-claim acquisitions stays cheap.

    {b Streaming.} A replayer consumes a {e sequence} of logs — the
    sealed segments of a spilling recording ({!Seglog}) — pulled one at
    a time through {!of_stream}. Only the current segment's cursors are
    resident. Every event of segment [k] was recorded before every event
    of segment [k+1] (a seal is a point in recorded time), so replay
    drains segments in order: a thread whose next event is not in the
    current segment blocks until the segment drains, and the
    "beyond-the-log: unconstrained" escape applies only on the {e last}
    segment. Draining segment [k] first is {e not} always feasible:
    events keyed by a thread's [(steps, weak_acqs)] can straddle a seal,
    so a thread steps past a key whose event sits in the next segment,
    and some seeds deadlock or drift. ROADMAP.md's
    streamed-replay item tabulates the failing seeds and the per-thread
    fence that would make a seal a consistent cut. {!of_log} is the
    one-segment special case and behaves exactly as the historical
    monolithic replayer. *)

open Runtime

(* Monomorphic key equality for the tables read at every gate and, while
   forced events remain, at every step; [Hashtbl.hash] keeps the buckets
   and iteration order of the polymorphic tables *)
module Lock_tbl = Hashtbl.Make (struct
  type t = Minic.Ast.weak_lock
  let equal = Minic.Ast.equal_weak_lock
  let hash = Hashtbl.hash
end)

(* a sequence consumed strictly front to back *)
type 'a seq_cursor = { sc_arr : 'a array; mutable sc_pos : int }

let seq_of_list xs = { sc_arr = Log.oldest_first xs; sc_pos = 0 }
let seq_peek c = if c.sc_pos < Array.length c.sc_arr then Some c.sc_arr.(c.sc_pos) else None
let seq_left c = Array.length c.sc_arr - c.sc_pos

(* a per-lock acquisition sequence, consumed per-thread and possibly out
   of order (disjoint claims overtake) *)
type weak_cursor = {
  wc_entries : (Key.tid_path * Log.sclaim) array;  (** oldest first *)
  wc_consumed : bool array;
  mutable wc_head : int;  (** first unconsumed index *)
  wc_next : int Queue.t Key.Path_tbl.t;
      (** each thread's remaining entry indices, ascending *)
}

let weak_cursor_of_list xs =
  let entries = Log.oldest_first xs in
  let n = Array.length entries in
  let wc_next = Key.Path_tbl.create 8 in
  Array.iteri
    (fun i (p, _) ->
      let q =
        match Key.Path_tbl.find_opt wc_next p with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Key.Path_tbl.replace wc_next p q;
            q
      in
      Queue.push i q)
    entries;
  { wc_entries = entries; wc_consumed = Array.make n false; wc_head = 0; wc_next }

(** A served weak-lock acquisition whose claim differs from the recorded
    one — instrumentation drift between the recording and replaying
    binaries (different plan, lockopt decisions, or claim computation).
    The replay itself may still complete; the mismatch is the signal. *)
type claim_mismatch = {
  cm_lock : Minic.Ast.weak_lock;
  cm_tp : Key.tid_path;
  cm_index : int;  (** position in the lock's recorded acquisition order *)
  cm_recorded : Log.sclaim;
  cm_served : Log.sclaim;
}

(* the per-segment cursor set; rebuilt whenever the stream advances *)
type cursors = {
  syscall_cursor : Key.tid_path seq_cursor;
  sync_cursors : (Key.addr, (Log.sync_op * Key.tid_path) seq_cursor) Hashtbl.t;
  weak_cursors : weak_cursor Lock_tbl.t;
  input_cursors : int list seq_cursor Key.Path_tbl.t;
      (** remaining bursts, oldest first *)
  forced_by_owner :
    (int * int * Minic.Ast.weak_lock) seq_cursor Key.Path_tbl.t;
  mutable forced_left : int;  (** unconsumed entries of [forced_by_owner] *)
}

type t = {
  mutable cur : cursors;
  mutable remaining : int;
      (** gated consumables left in the current segment: syscall-order
          entries, input bursts, sync ops, weak acquisitions, forced
          events *)
  mutable pending : Log.t option;  (** prefetched next segment *)
  mutable pull : unit -> Log.t option;
  mutable seg_index : int;  (** current segment, 0-based *)
  mutable segments_loaded : int;
  mutable halt_after : int option;
      (** windowed replay: stop (and never load further segments) once
          this segment index drains *)
  mutable halted : bool;
  mutable last_drained : bool;
  mutable on_advance : int -> unit;
      (** fired with the index of each segment the moment it drains —
          before the next one loads, so a caller-side state digest taken
          here is comparable across full and windowed replays of the
          same recording *)
  mutable mismatches : claim_mismatch list;  (** newest first *)
  weak_base : (Minic.Ast.weak_lock, int) Hashtbl.t;
      (** acquisitions of each lock in already-drained segments, so
          [cm_index] stays a position in the whole recording *)
  mutable n_consumed : int;  (** gated events consumed over the stream *)
}

let cursors_of_log (log : Log.t) : cursors =
  let sync_cursors = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k v -> Hashtbl.replace sync_cursors k (seq_of_list !v))
    log.sync_order;
  let weak_cursors = Lock_tbl.create 64 in
  Hashtbl.iter
    (fun k v -> Lock_tbl.replace weak_cursors k (weak_cursor_of_list !v))
    log.weak_order;
  let input_cursors = Key.Path_tbl.create 16 in
  Hashtbl.iter
    (fun k bursts ->
      Key.Path_tbl.replace input_cursors k (seq_of_list !bursts))
    log.inputs;
  let forced_by_owner = Key.Path_tbl.create 4 in
  let forced = Log.oldest_first log.forced in
  let counts = Hashtbl.create 4 in
  Array.iter
    (fun (fe : Log.forced_event) ->
      Hashtbl.replace counts fe.fe_owner
        (1 + Option.value (Hashtbl.find_opt counts fe.fe_owner) ~default:0))
    forced;
  Hashtbl.iter
    (fun owner n ->
      Key.Path_tbl.replace forced_by_owner owner
        { sc_arr = Array.make n (0, 0, { Minic.Ast.wl_id = 0; wl_gran = Gfunc }); sc_pos = 0 })
    counts;
  let fill = Hashtbl.create 4 in
  Array.iter
    (fun (fe : Log.forced_event) ->
      let i = Option.value (Hashtbl.find_opt fill fe.fe_owner) ~default:0 in
      (Key.Path_tbl.find forced_by_owner fe.fe_owner).sc_arr.(i) <-
        (fe.fe_steps, fe.fe_acqs, fe.fe_lock);
      Hashtbl.replace fill fe.fe_owner (i + 1))
    forced;
  {
    syscall_cursor = seq_of_list log.syscall_order;
    sync_cursors;
    weak_cursors;
    input_cursors;
    forced_by_owner;
    forced_left = Array.length forced;
  }

(** Gated consumables in [log] — the drain counter of one segment. *)
let gated_events (log : Log.t) : int =
  let n = ref (List.length log.syscall_order + List.length log.forced) in
  Hashtbl.iter (fun _ bursts -> n := !n + List.length !bursts) log.inputs;
  Hashtbl.iter (fun _ ops -> n := !n + List.length !ops) log.sync_order;
  Hashtbl.iter (fun _ ps -> n := !n + List.length !ps) log.weak_order;
  !n

(* advance the stream when the current segment has drained: fire
   [on_advance], then either halt (windowed replay), finish (last
   segment), or rebuild the cursors from the prefetched next segment.
   Loops over gated-event-free segments (the one empty segment of a
   recording that logged nothing). *)
let rec drain_check (t : t) =
  if t.remaining = 0 && not t.halted && not t.last_drained then begin
    t.on_advance t.seg_index;
    match t.halt_after with
    | Some m when t.seg_index >= m -> t.halted <- true
    | _ -> (
        match t.pending with
        | None -> t.last_drained <- true
        | Some log ->
            Lock_tbl.iter
              (fun lock (wc : weak_cursor) ->
                let base =
                  Option.value (Hashtbl.find_opt t.weak_base lock) ~default:0
                in
                Hashtbl.replace t.weak_base lock
                  (base + Array.length wc.wc_entries))
              t.cur.weak_cursors;
            t.cur <- cursors_of_log log;
            t.remaining <- gated_events log;
            t.pending <- t.pull ();
            t.seg_index <- t.seg_index + 1;
            t.segments_loaded <- t.segments_loaded + 1;
            drain_check t)
  end

let consumed (t : t) =
  t.n_consumed <- t.n_consumed + 1;
  t.remaining <- t.remaining - 1;
  if t.remaining = 0 then drain_check t

let of_stream (pull : unit -> Log.t option) : t =
  let first = match pull () with Some l -> l | None -> Log.create () in
  let t =
    {
      cur = cursors_of_log first;
      remaining = gated_events first;
      pending = pull ();
      pull;
      seg_index = 0;
      segments_loaded = 1;
      halt_after = None;
      halted = false;
      last_drained = false;
      on_advance = (fun _ -> ());
      mismatches = [];
      weak_base = Hashtbl.create 8;
      n_consumed = 0;
    }
  in
  drain_check t;
  t

let of_log (log : Log.t) : t =
  let served = ref false in
  of_stream (fun () ->
      if !served then None
      else begin
        served := true;
        Some log
      end)

(** Execution past the end of the recording is unconstrained — but only
    once the stream is on its final segment (and not halted): an event
    missing from a {e mid-stream} segment lives in a later one and must
    wait for it. *)
let unconstrained (t : t) = t.pending = None && not t.halted

let halted (t : t) = t.halted
let consumed_events (t : t) = t.n_consumed
let segment_index (t : t) = t.seg_index
let segments_loaded (t : t) = t.segments_loaded

let set_window (t : t) ~(last_segment : int) =
  t.halt_after <- Some last_segment;
  (* the window may close on a segment that already drained *)
  if t.remaining = 0 && t.seg_index >= last_segment then t.halted <- true

let set_on_advance (t : t) (f : int -> unit) = t.on_advance <- f

(* ------------------------------------------------------------------ *)
(* Gating queries: [peek] tells whose turn it is; [advance] consumes. *)

let peek_syscall (t : t) : Key.tid_path option = seq_peek t.cur.syscall_cursor

let advance_syscall (t : t) =
  let c = t.cur.syscall_cursor in
  if c.sc_pos < Array.length c.sc_arr then begin
    c.sc_pos <- c.sc_pos + 1;
    consumed t
  end

let peek_sync (t : t) (obj : Key.addr) : (Log.sync_op * Key.tid_path) option =
  match Hashtbl.find_opt t.cur.sync_cursors obj with
  | None -> None
  | Some c -> seq_peek c

let advance_sync (t : t) (obj : Key.addr) =
  match Hashtbl.find_opt t.cur.sync_cursors obj with
  | None -> ()
  | Some c ->
      if c.sc_pos < Array.length c.sc_arr then begin
        c.sc_pos <- c.sc_pos + 1;
        consumed t
      end

(** May thread [tp] perform its next recorded acquisition of [lock]?
    True when no {e earlier} unconsumed acquisition of the same lock
    conflicts (range-overlaps) with [tp]'s next recorded claim —
    disjoint-range loop-lock acquisitions legitimately overlap in the
    recording, so only the order of conflicting pairs is enforced.
    A thread with no remaining entry in the current segment is
    unconstrained only past the end of the stream; mid-stream its next
    acquisition is recorded in a later segment and must wait for it. *)
let weak_turn (t : t) (lock : Minic.Ast.weak_lock) ~(tp : Key.tid_path) : bool
    =
  match Lock_tbl.find_opt t.cur.weak_cursors lock with
  | None -> unconstrained t
  | Some wc -> (
      match Key.Path_tbl.find_opt wc.wc_next tp with
      | None -> unconstrained t
      | Some q when Queue.is_empty q -> unconstrained t
      | Some q ->
          let mine = Queue.peek q in
          let _, claim = wc.wc_entries.(mine) in
          let ok = ref true in
          let i = ref wc.wc_head in
          while !ok && !i < mine do
            (if not wc.wc_consumed.(!i) then
               let _, c' = wc.wc_entries.(!i) in
               if Log.sclaims_conflict claim c' then ok := false);
            incr i
          done;
          !ok)

(** Consume [tp]'s earliest remaining acquisition entry for [lock].
    When [claim] (the claim the engine is actually serving) is given, it
    is validated against the recorded claim of the consumed entry; any
    difference is accumulated as a {!claim_mismatch} — the recorded
    order is still honored, so replay proceeds and the drift surfaces in
    the outcome instead of wedging the run. *)
let consume_weak (t : t) (lock : Minic.Ast.weak_lock) ~(tp : Key.tid_path)
    ?(claim : Log.sclaim option) () =
  match Lock_tbl.find_opt t.cur.weak_cursors lock with
  | None -> ()
  | Some wc -> (
      match Key.Path_tbl.find_opt wc.wc_next tp with
      | None -> ()
      | Some q when Queue.is_empty q -> ()
      | Some q ->
          let i = Queue.pop q in
          (match claim with
          | Some served when served <> snd wc.wc_entries.(i) ->
              let base =
                Option.value (Hashtbl.find_opt t.weak_base lock) ~default:0
              in
              t.mismatches <-
                {
                  cm_lock = lock;
                  cm_tp = tp;
                  cm_index = base + i;
                  cm_recorded = snd wc.wc_entries.(i);
                  cm_served = served;
                }
                :: t.mismatches
          | _ -> ());
          wc.wc_consumed.(i) <- true;
          let n = Array.length wc.wc_entries in
          while wc.wc_head < n && wc.wc_consumed.(wc.wc_head) do
            wc.wc_head <- wc.wc_head + 1
          done;
          consumed t)

(** Claim mismatches accumulated so far, in consumption order. *)
let claim_mismatches (t : t) : claim_mismatch list = List.rev t.mismatches

let pp_sclaim ppf (c : Log.sclaim) =
  match c with
  | [] -> Fmt.string ppf "<total>"
  | rs ->
      Fmt.(list ~sep:comma) (fun ppf (r : Log.srange) ->
          Fmt.pf ppf "%a[%d..%d]%s" Key.pp_origin r.sr_origin r.sr_lo r.sr_hi
            (if r.sr_write then "w" else "r"))
        ppf rs

let pp_claim_mismatch ppf (m : claim_mismatch) =
  Fmt.pf ppf "weak %a acq #%d by %a: recorded {%a} vs served {%a}"
    Minic.Ast.pp_weak_lock m.cm_lock m.cm_index Key.pp_tid_path m.cm_tp
    pp_sclaim m.cm_recorded pp_sclaim m.cm_served

(** Pop the next recorded input burst for thread [tp]. *)
let take_input (t : t) (tp : Key.tid_path) : int list option =
  match Key.Path_tbl.find_opt t.cur.input_cursors tp with
  | None -> None
  | Some c -> (
      match seq_peek c with
      | None -> None
      | Some burst ->
          c.sc_pos <- c.sc_pos + 1;
          consumed t;
          Some burst)

(** Forced release pending for [owner] at (or before) step count [steps]
    and weak-acquisition count [acqs]. The entry is consumed only when
    [holds lock] — the owner may not have (re)acquired the lock yet at
    the moment the step threshold is first crossed (recordings can carry
    several forced events at the same owner step count when the owner was
    parked). The acquisition-count threshold orders the event against the
    owner's own reacquisitions at that step count: a forced release
    recorded after the owner took two locks back must not fire until the
    replaying owner has them back too. *)
let pending_forced (t : t) (owner : Key.tid_path) ~(steps : int) ~(acqs : int)
    ~(holds : Minic.Ast.weak_lock -> bool) : Minic.Ast.weak_lock option =
  match Key.Path_tbl.find_opt t.cur.forced_by_owner owner with
  | None -> None
  | Some c -> (
      match seq_peek c with
      | Some (s, a, lock) when steps >= s && acqs >= a && holds lock ->
          c.sc_pos <- c.sc_pos + 1;
          t.cur.forced_left <- t.cur.forced_left - 1;
          consumed t;
          Some lock
      | _ -> None)

(** Any forced-release event still pending in the current segment, for
    any owner. Pure: unlike {!pending_forced} this never consumes. *)
let has_forced (t : t) : bool = t.cur.forced_left > 0

(** Human-readable dump of the first few remaining entries of every
    cursor — the deadlock-diagnosis view. *)
let dump_remaining (t : t) : string list =
  let acc = ref [] in
  if t.segments_loaded > 1 || t.pending <> None then
    acc :=
      Fmt.str "stream: segment %d, %d gated events left%s" t.seg_index
        t.remaining
        (if t.pending = None then " (last)" else "")
      :: !acc;
  (match seq_left t.cur.syscall_cursor with
  | 0 -> ()
  | left ->
      let rest =
        Array.to_list
          (Array.sub t.cur.syscall_cursor.sc_arr t.cur.syscall_cursor.sc_pos
             left)
      in
      acc :=
        Fmt.str "syscall next: %a (%d left)"
          Fmt.(list ~sep:sp Key.pp_tid_path)
          (Listx.take 4 rest) left
        :: !acc);
  Hashtbl.iter
    (fun obj c ->
      match seq_peek c with
      | None -> ()
      | Some (op, p) ->
          acc :=
            Fmt.str "sync %a next: %a by %a (%d left)" Key.pp_addr obj
              Log.pp_sync_op op Key.pp_tid_path p (seq_left c)
            :: !acc)
    t.cur.sync_cursors;
  Lock_tbl.iter
    (fun lock wc ->
      let remaining = ref [] in
      for i = Array.length wc.wc_entries - 1 downto wc.wc_head do
        if not wc.wc_consumed.(i) then
          remaining := fst wc.wc_entries.(i) :: !remaining
      done;
      match !remaining with
      | [] -> ()
      | ps ->
          acc :=
            Fmt.str "weak %a next: %a (%d left)" Minic.Ast.pp_weak_lock lock
              Fmt.(list ~sep:sp Key.pp_tid_path)
              (Listx.take 4 ps) (List.length ps)
            :: !acc)
    t.cur.weak_cursors;
  List.sort compare !acc

(** Is the next forced event for [owner] exactly at [steps]? (peek) *)
let peek_forced (t : t) (owner : Key.tid_path) : int option =
  match Key.Path_tbl.find_opt t.cur.forced_by_owner owner with
  | None -> None
  | Some c -> ( match seq_peek c with Some (s, _, _) -> Some s | None -> None)
