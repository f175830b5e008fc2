(** Runtime observability: deterministic event tracing and contention
    metrics. See trace.mli / DESIGN.md §10 for the model; the one rule
    that matters everywhere below is that timestamps are per-thread step
    counts (logical clocks), so the stable part of a thread's stream is
    identical between a recording and its replay. *)

open Runtime

type kind =
  | Weak_acquire of Minic.Ast.weak_lock
  | Weak_block of Minic.Ast.weak_lock * int
  | Weak_wake of Minic.Ast.weak_lock
  | Weak_release of Minic.Ast.weak_lock
  | Weak_forced of Minic.Ast.weak_lock
  | Region_enter of int
  | Region_exit of int
  | Sync of Replay.Log.sync_op * Key.addr
  | Syscall
  | Replay_miss

type event = { ev_tp : Key.tid_path; ev_step : int; ev_kind : kind }

let pp_kind ppf = function
  | Weak_acquire l -> Fmt.pf ppf "acquire %a" Minic.Ast.pp_weak_lock l
  | Weak_block (l, d) ->
      Fmt.pf ppf "block %a (queue %d)" Minic.Ast.pp_weak_lock l d
  | Weak_wake l -> Fmt.pf ppf "wake %a" Minic.Ast.pp_weak_lock l
  | Weak_release l -> Fmt.pf ppf "release %a" Minic.Ast.pp_weak_lock l
  | Weak_forced l ->
      Fmt.pf ppf "forced-release %a" Minic.Ast.pp_weak_lock l
  | Region_enter n -> Fmt.pf ppf "region-enter (%d locks)" n
  | Region_exit n -> Fmt.pf ppf "region-exit (%d locks)" n
  | Sync (op, a) ->
      Fmt.pf ppf "%a %a" Replay.Log.pp_sync_op op Key.pp_addr a
  | Syscall -> Fmt.string ppf "syscall"
  | Replay_miss -> Fmt.string ppf "syscall beyond input log"

let pp_event ppf e =
  Fmt.pf ppf "%a@%d %a" Key.pp_tid_path e.ev_tp e.ev_step pp_kind e.ev_kind

(* Blocking and waking depend on who else was scheduled when — a replay
   legitimately blocks at different points (or not at all) while still
   reproducing the recorded execution. Everything that reflects what the
   thread *did* is stable. *)
let stable = function
  | Weak_block _ | Weak_wake _ | Replay_miss -> false
  | Weak_acquire _ | Weak_release _ | Weak_forced _ | Region_enter _
  | Region_exit _ | Sync _ | Syscall ->
      true

(* ------------------------------------------------------------------ *)
(* Sink: per-thread bounded rings *)

module Sink = struct
  (* (step, kind) cells; the tid_path is the buffer key. Buffers start
     small and double up to the capacity, then wrap, dropping oldest. *)
  type buf = {
    mutable arr : (int * kind) array;
    mutable head : int;  (* index of oldest retained cell *)
    mutable len : int;
    mutable dropped : int;
  }

  type t = { cap : int; bufs : (Key.tid_path, buf) Hashtbl.t }

  let create ?(capacity = 65536) () =
    { cap = max 1 capacity; bufs = Hashtbl.create 16 }

  let filler = (0, Syscall)

  let buf_of t tp =
    match Hashtbl.find_opt t.bufs tp with
    | Some b -> b
    | None ->
        let b =
          { arr = Array.make (min 64 t.cap) filler;
            head = 0; len = 0; dropped = 0 }
        in
        Hashtbl.add t.bufs tp b;
        b

  let emit t tp ~step kind =
    let b = buf_of t tp in
    let n = Array.length b.arr in
    if b.len = n && n < t.cap then begin
      (* grow: unroll the ring into a doubled flat array *)
      let arr' = Array.make (min t.cap (2 * n)) filler in
      for i = 0 to b.len - 1 do
        arr'.(i) <- b.arr.((b.head + i) mod n)
      done;
      b.arr <- arr';
      b.head <- 0
    end;
    let n = Array.length b.arr in
    if b.len < n then begin
      b.arr.((b.head + b.len) mod n) <- (step, kind);
      b.len <- b.len + 1
    end
    else begin
      (* full at capacity: overwrite the oldest *)
      b.arr.(b.head) <- (step, kind);
      b.head <- (b.head + 1) mod n;
      b.dropped <- b.dropped + 1
    end

  let buf_events tp b =
    List.init b.len (fun i ->
        let step, kind = b.arr.((b.head + i) mod Array.length b.arr) in
        { ev_tp = tp; ev_step = step; ev_kind = kind })

  let threads t =
    Hashtbl.fold (fun tp _ acc -> tp :: acc) t.bufs [] |> List.sort compare

  let thread_events t tp =
    match Hashtbl.find_opt t.bufs tp with
    | None -> []
    | Some b -> buf_events tp b

  let events t =
    List.concat_map (fun tp -> thread_events t tp) (threads t)

  let dropped t = Hashtbl.fold (fun _ b acc -> acc + b.dropped) t.bufs 0

  (* threads that actually overflowed, in stable thread order — the
     summary surfaces these so a sustained-load run can't pass off a
     truncated per-thread stream as complete *)
  let dropped_by_thread t =
    Hashtbl.fold
      (fun tp b acc -> if b.dropped > 0 then (tp, b.dropped) :: acc else acc)
      t.bufs []
    |> List.sort compare
end

(* ------------------------------------------------------------------ *)
(* Aggregation *)

type lock_metrics = {
  lm_lock : Minic.Ast.weak_lock;
  lm_acq : int;
  lm_blocks : int;
  lm_queue_sum : int;
  lm_forced : int;
  lm_wakes : int;
}

let mean_queue_depth lm =
  if lm.lm_blocks = 0 then 0.
  else float_of_int lm.lm_queue_sum /. float_of_int lm.lm_blocks

type gran_metrics = { gm_acq : int; gm_blocks : int; gm_forced : int }

type summary = {
  su_locks : lock_metrics list;
  su_gran : gran_metrics array;
  su_sync : int;
  su_syscalls : int;
  su_replay_miss : int;
  su_regions : int;
  su_events : int;
  su_dropped : int;
  su_dropped_by_thread : (Key.tid_path * int) list;
      (** threads whose ring overflowed (their oldest events are gone),
          stable thread order; [] iff [su_dropped = 0] when wired from
          {!Sink.dropped_by_thread} *)
}

type lock_acc = {
  mutable a_acq : int;
  mutable a_blocks : int;
  mutable a_queue_sum : int;
  mutable a_forced : int;
  mutable a_wakes : int;
}

let summarize ?(dropped = 0) ?(dropped_by_thread = []) events =
  let locks = Hashtbl.create 16 in
  let acc l =
    match Hashtbl.find_opt locks l with
    | Some a -> a
    | None ->
        let a =
          { a_acq = 0; a_blocks = 0; a_queue_sum = 0; a_forced = 0;
            a_wakes = 0 }
        in
        Hashtbl.add locks l a;
        a
  in
  let sync = ref 0 and syscalls = ref 0 and miss = ref 0 in
  let regions = ref 0 and n = ref 0 in
  List.iter
    (fun e ->
      incr n;
      match e.ev_kind with
      | Weak_acquire l -> (acc l).a_acq <- (acc l).a_acq + 1
      | Weak_block (l, d) ->
          let a = acc l in
          a.a_blocks <- a.a_blocks + 1;
          a.a_queue_sum <- a.a_queue_sum + d
      | Weak_wake l -> (acc l).a_wakes <- (acc l).a_wakes + 1
      | Weak_release _ -> ()
      | Weak_forced l -> (acc l).a_forced <- (acc l).a_forced + 1
      | Region_enter _ -> incr regions
      | Region_exit _ -> ()
      | Sync _ -> incr sync
      | Syscall -> incr syscalls
      | Replay_miss -> incr miss)
    events;
  let su_locks =
    Hashtbl.fold
      (fun l a out ->
        { lm_lock = l; lm_acq = a.a_acq; lm_blocks = a.a_blocks;
          lm_queue_sum = a.a_queue_sum; lm_forced = a.a_forced;
          lm_wakes = a.a_wakes }
        :: out)
      locks []
    |> List.sort (fun a b ->
           match compare b.lm_blocks a.lm_blocks with
           | 0 -> (
               match compare b.lm_acq a.lm_acq with
               | 0 -> Minic.Ast.compare_weak_lock a.lm_lock b.lm_lock
               | c -> c)
           | c -> c)
  in
  let su_gran =
    Array.init 4 (fun _ -> { gm_acq = 0; gm_blocks = 0; gm_forced = 0 })
  in
  List.iter
    (fun lm ->
      let r = Minic.Ast.granularity_rank lm.lm_lock.Minic.Ast.wl_gran in
      let g = su_gran.(r) in
      su_gran.(r) <-
        { gm_acq = g.gm_acq + lm.lm_acq;
          gm_blocks = g.gm_blocks + lm.lm_blocks;
          gm_forced = g.gm_forced + lm.lm_forced })
    su_locks;
  { su_locks; su_gran; su_sync = !sync; su_syscalls = !syscalls;
    su_replay_miss = !miss; su_regions = !regions; su_events = !n;
    su_dropped = dropped; su_dropped_by_thread = dropped_by_thread }

let pp_report ?(top = 10) ppf su =
  Fmt.pf ppf "trace: %d events (%d dropped), %d regions, %d sync ops, %d syscalls"
    su.su_events su.su_dropped su.su_regions su.su_sync su.su_syscalls;
  if su.su_dropped_by_thread <> [] then begin
    Fmt.pf ppf "@,ring overflow (oldest events lost):";
    List.iter
      (fun (tp, d) -> Fmt.pf ppf " %a:%d" Key.pp_tid_path tp d)
      su.su_dropped_by_thread
  end;
  if su.su_replay_miss > 0 then
    Fmt.pf ppf ", %d syscalls beyond input log" su.su_replay_miss;
  Fmt.pf ppf "@,granularity mix:";
  Array.iteri
    (fun r g ->
      if g.gm_acq > 0 || g.gm_blocks > 0 then
        Fmt.pf ppf " %a %d acq/%d blk%s" Minic.Ast.pp_granularity
          (match r with
          | 0 -> Minic.Ast.Gfunc
          | 1 -> Gloop
          | 2 -> Gbb
          | _ -> Ginstr)
          g.gm_acq g.gm_blocks
          (if g.gm_forced > 0 then Fmt.str "/%d forced" g.gm_forced else ""))
    su.su_gran;
  match su.su_locks with
  | [] -> Fmt.pf ppf "@,no weak-lock activity"
  | locks ->
      Fmt.pf ppf "@,%-8s %6s %6s %10s %6s %6s" "lock" "acq" "blocks"
        "mean-queue" "forced" "wakes";
      List.iteri
        (fun i lm ->
          if i < top then
            Fmt.pf ppf "@,%-8s %6d %6d %10.2f %6d %6d"
              (Fmt.str "%a" Minic.Ast.pp_weak_lock lm.lm_lock)
              lm.lm_acq lm.lm_blocks (mean_queue_depth lm) lm.lm_forced
              lm.lm_wakes)
        locks;
      if List.length locks > top then
        Fmt.pf ppf "@,... %d more locks" (List.length locks - top)

(* ------------------------------------------------------------------ *)
(* Chrome-trace export *)

let thread_name_event ~tid name =
  Bjson.Obj
    [ ("name", Str "thread_name"); ("ph", Str "M"); ("pid", Bjson.int 0);
      ("tid", Bjson.int tid); ("args", Obj [ ("name", Str name) ]) ]

let to_chrome events =
  (* assign each thread a numeric chrome tid by tid_path order *)
  let tps =
    List.sort_uniq compare (List.map (fun e -> e.ev_tp) events)
  in
  (* index once: every event pays a lookup, and big traces have many
     events per thread *)
  let tid_index = Hashtbl.create 16 in
  List.iteri (fun i tp -> Hashtbl.replace tid_index tp i) tps;
  let tid_of = Hashtbl.find tid_index in
  let cat = function
    | Weak_acquire _ | Weak_block _ | Weak_wake _ | Weak_release _
    | Weak_forced _ ->
        "weak"
    | Region_enter _ | Region_exit _ -> "region"
    | Sync _ -> "sync"
    | Syscall | Replay_miss -> "syscall"
  in
  let event e =
    let base name ph =
      [ ("name", Bjson.Str name); ("cat", Str (cat e.ev_kind)); ("ph", Str ph);
        ("pid", Bjson.int 0); ("tid", Bjson.int (tid_of e.ev_tp));
        ("ts", Bjson.int e.ev_step) ]
    in
    Bjson.Obj
      (match e.ev_kind with
      | Region_enter n -> base (Fmt.str "region (%d locks)" n) "B"
      | Region_exit _ -> base "region" "E"
      | k -> base (Fmt.str "%a" pp_kind k) "i" @ [ ("s", Str "t") ])
  in
  Bjson.to_string
    (List
       (List.mapi
          (fun i tp -> thread_name_event ~tid:i (Fmt.str "%a" Key.pp_tid_path tp))
          tps
       @ List.map event events))
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Replay-divergence diagnosis *)

type divergence = {
  dv_tp : Key.tid_path;
  dv_index : int;
  dv_recorded : event option;
  dv_replayed : event option;
}

let stable_streams events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if stable e.ev_kind then
        let prev =
          match Hashtbl.find_opt tbl e.ev_tp with Some l -> l | None -> []
        in
        Hashtbl.replace tbl e.ev_tp (e :: prev))
    events;
  Hashtbl.fold (fun tp l acc -> (tp, List.rev l) :: acc) tbl []
  |> List.sort compare

let first_divergence ~recorded ~replayed =
  let rec_streams = stable_streams recorded in
  let rep_streams = stable_streams replayed in
  (* key the streams by trace point once; the per-thread probe below
     would otherwise rescan the assoc list for every thread *)
  let keyed ss =
    let tbl = Hashtbl.create (2 * List.length ss) in
    List.iter (fun (tp, l) -> Hashtbl.replace tbl tp l) ss;
    tbl
  in
  let rec_tbl = keyed rec_streams and rep_tbl = keyed rep_streams in
  let stream tbl tp =
    match Hashtbl.find_opt tbl tp with Some l -> l | None -> []
  in
  let tps =
    List.sort_uniq compare (List.map fst rec_streams @ List.map fst rep_streams)
  in
  (* earliest per-thread mismatch, then the globally earliest of those
     (by logical step, ties by thread id) *)
  let diverge tp =
    let rec go i a b =
      match (a, b) with
      | [], [] -> None
      | x :: a', y :: b' ->
          if x.ev_step = y.ev_step && x.ev_kind = y.ev_kind then
            go (i + 1) a' b'
          else
            Some
              { dv_tp = tp; dv_index = i; dv_recorded = Some x;
                dv_replayed = Some y }
      | x :: _, [] ->
          Some
            { dv_tp = tp; dv_index = i; dv_recorded = Some x;
              dv_replayed = None }
      | [], y :: _ ->
          Some
            { dv_tp = tp; dv_index = i; dv_recorded = None;
              dv_replayed = Some y }
    in
    go 0 (stream rec_tbl tp) (stream rep_tbl tp)
  in
  let step_of d =
    match (d.dv_recorded, d.dv_replayed) with
    | Some a, Some b -> min a.ev_step b.ev_step
    | Some a, None -> a.ev_step
    | None, Some b -> b.ev_step
    | None, None -> max_int
  in
  List.filter_map diverge tps
  |> List.sort (fun a b ->
         match compare (step_of a) (step_of b) with
         | 0 -> compare a.dv_tp b.dv_tp
         | c -> c)
  |> function
  | [] -> None
  | d :: _ -> Some d

let pp_divergence ppf d =
  let side ppf = function
    | Some e -> Fmt.pf ppf "%a at step %d" pp_kind e.ev_kind e.ev_step
    | None -> Fmt.string ppf "stream ended"
  in
  Fmt.pf ppf
    "thread %a diverges at stable event #%d: recorded %a, replayed %a"
    Key.pp_tid_path d.dv_tp d.dv_index side d.dv_recorded side d.dv_replayed
