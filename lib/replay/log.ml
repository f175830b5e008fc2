(** Record/replay log structures and their binary serialization.

    Following the paper's recorder, a recording is split into:

    - the {e input log}: results of nondeterministic system calls
      ([input], [net_read], [file_read]) in per-thread order, plus the
      global serialization order of system calls;
    - the {e order log}: the happens-before order of original
      synchronization operations (per-object operation order), the
      per-weak-lock acquisition order, and forced-release (timeout)
      events. Nothing else is logged: the thread schedule is not, since
      replay reproduces the execution from these orders alone.

    Threads are named by schedule-independent {!Runtime.Key.tid_path}s and
    objects by {!Runtime.Key.addr} / weak-lock ids, so a replayer running
    under a different scheduler still matches events.

    Serialization uses a simple varint-based binary format; reported log
    sizes (Table 2) are the compressed sizes of these encodings.

    Event sequences are stored newest-first (the recorder appends with a
    cons); encoding streams them oldest-first through a single buffer via
    a flat reversed array — no intermediate per-event lists. *)

open Runtime

exception Corrupt of string
(** Raised by {!decode} on a truncated or corrupt log. *)

type sync_op =
  | SMutexAcq
  | SMutexRel
  | SBarrierInit
  | SBarrierWait
  | SCondWait
  | SCondSignal
  | SCondBroadcast

let sync_op_code = function
  | SMutexAcq -> 0 | SMutexRel -> 1 | SBarrierInit -> 2 | SBarrierWait -> 3
  | SCondWait -> 4 | SCondSignal -> 5 | SCondBroadcast -> 6

let sync_op_of_code = function
  | 0 -> SMutexAcq | 1 -> SMutexRel | 2 -> SBarrierInit | 3 -> SBarrierWait
  | 4 -> SCondWait | 5 -> SCondSignal | 6 -> SCondBroadcast
  | n -> Fmt.invalid_arg "sync_op_of_code %d" n

let pp_sync_op ppf op =
  Fmt.string ppf
    (match op with
    | SMutexAcq -> "lock" | SMutexRel -> "unlock"
    | SBarrierInit -> "barrier_init" | SBarrierWait -> "barrier_wait"
    | SCondWait -> "cond_wait" | SCondSignal -> "cond_signal"
    | SCondBroadcast -> "cond_broadcast")

(** A stable (origin-space) address range claimed by a weak-lock
    acquisition; the empty claim list means "protects everything"
    ([-INF..+INF] in Figure 4). Two acquisitions of the same weak lock
    conflict unless both carry claims and all range pairs are disjoint —
    replay enforces the recorded order only between {e conflicting}
    acquisitions, because disjoint-range loop-lock holders legitimately
    overlap (that is the whole point of Section 5). *)
type srange = {
  sr_origin : Key.origin;
  sr_lo : int;
  sr_hi : int;
  sr_write : bool;
}

type sclaim = srange list

let sclaims_conflict (a : sclaim) (b : sclaim) : bool =
  match (a, b) with
  | [], _ | _, [] -> true
  | _ ->
      List.exists
        (fun ra ->
          List.exists
            (fun rb ->
              (ra.sr_write || rb.sr_write)
              && ra.sr_origin = rb.sr_origin
              && ra.sr_lo <= rb.sr_hi && rb.sr_lo <= ra.sr_hi)
            b)
        a

type forced_event = {
  fe_owner : Key.tid_path;
  fe_steps : int;          (** owner's per-thread step count at preemption *)
  fe_acqs : int;
      (** weak acquisitions the owner had performed when preempted — pins
          where the forced release falls between the owner's own
          reacquisitions at the same step count *)
  fe_lock : Minic.Ast.weak_lock;
}

type t = {
  (* input log *)
  inputs : (Key.tid_path, int list list ref) Hashtbl.t;
      (** per-thread recorded syscall result bursts, newest first (each
          burst is the word list one syscall returned, in order) *)
  mutable syscall_order : Key.tid_path list;  (** global order, reversed *)
  (* order log *)
  sync_order : (Key.addr, (sync_op * Key.tid_path) list ref) Hashtbl.t;
      (** per-object op sequence, reversed *)
  weak_order :
    (Minic.Ast.weak_lock, (Key.tid_path * sclaim) list ref) Hashtbl.t;
      (** per-lock acquisition sequence with claimed ranges, reversed *)
  mutable forced : forced_event list;  (** reversed *)
}

let create () =
  {
    inputs = Hashtbl.create 16;
    syscall_order = [];
    sync_order = Hashtbl.create 64;
    weak_order = Hashtbl.create 64;
    forced = [];
  }

(** The append cell for key [k] of table [tbl], created empty on first
    use — the recorder's one-lookup append point. *)
let cell tbl k : 'a list ref =
  match Hashtbl.find_opt tbl k with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace tbl k r;
      r

(** Oldest-first array view of a newest-first event list: one flat
    allocation, reversed in place. *)
let oldest_first (xs : 'a list) : 'a array =
  match xs with
  | [] -> [||]
  | _ ->
      let a = Array.of_list xs in
      let n = Array.length a in
      for i = 0 to (n / 2) - 1 do
        let t = a.(i) in
        a.(i) <- a.(n - 1 - i);
        a.(n - 1 - i) <- t
      done;
      a

(* ------------------------------------------------------------------ *)
(* Binary encoding *)

module Enc = struct
  (* The zigzagged value is emitted as an unsigned 63-bit number: the
     stop test [n land lnot 0x7f = 0] and [lsr] never read a sign, so a
     value whose zigzag form sets the top bit ([|n| >= 2^61]) still
     takes its 9 bytes. Top-level loops, like every per-element encoder
     below: a local [let rec] would allocate a closure per call. *)
  let rec unsigned b n =
    if n land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr n)
    else begin
      Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7f)));
      unsigned b (n lsr 7)
    end

  let varint b n =
    (* zigzag for negatives; [-min_int = min_int] has no zigzag form
       and would silently encode as 0 *)
    if n = min_int then
      invalid_arg
        (Printf.sprintf "Log.Enc.varint: %d (min_int) has no zigzag encoding" n);
    unsigned b (if n >= 0 then n lsl 1 else ((-n) lsl 1) lor 1)

  let string b s =
    varint b (String.length s);
    Buffer.add_string b s

  let rec iter b f = function
    | [] -> ()
    | x :: xs ->
        f b x;
        iter b f xs

  let list b f xs =
    varint b (List.length xs);
    iter b f xs

  let tid_path b (p : Key.tid_path) = list b varint p

  let origin b = function
    | Key.OGlobal g -> varint b 0; string b g
    | Key.OFrame (p, n) -> varint b 1; tid_path b p; varint b n
    | Key.OHeap (p, n) -> varint b 2; tid_path b p; varint b n

  let addr b (a : Key.addr) =
    origin b a.a_origin;
    varint b a.a_off

  let weak_lock b (w : Minic.Ast.weak_lock) =
    varint b (Minic.Ast.granularity_rank w.wl_gran);
    varint b w.wl_id
end

module Dec = struct
  (* tables keyed by the packed ints of [tid_path], whose low bits
     already spread *)
  module Keyed = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash k = k
  end)

  type cursor = {
    s : string;
    mutable pos : int;
    paths : Key.tid_path Keyed.t;
        (** the tid paths decoded so far, each kept once, by key *)
    mutable path_key : int;
        (** the key of the last path {!tid_path} read; -1 for none *)
  }

  let cursor ?(paths = Keyed.create 16) s =
    { s; pos = 0; paths; path_key = -1 }

  let corrupt c fmt =
    Fmt.kstr (fun m -> raise (Corrupt (Fmt.str "%s (byte %d)" m c.pos))) fmt

  let rec unsigned c len shift acc =
    if c.pos >= len then corrupt c "truncated varint";
    if shift > 62 then corrupt c "varint overflow";
    let byte = Char.code (String.unsafe_get c.s c.pos) in
    c.pos <- c.pos + 1;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 <> 0 then unsigned c len (shift + 7) acc else acc

  let varint c =
    let z = unsigned c (String.length c.s) 0 0 in
    if z land 1 = 0 then z lsr 1 else -(z lsr 1)

  let string c =
    let n = varint c in
    if n < 0 || n > String.length c.s - c.pos then
      corrupt c "truncated string (%d bytes expected)" n;
    let s = String.sub c.s c.pos n in
    c.pos <- c.pos + n;
    s

  let check_count c n =
    (* every element encodes to >= 1 byte, so a count beyond the
       remaining bytes is corruption — reject it before trying to
       materialize a multi-gigabyte sequence *)
    if n < 0 || n > String.length c.s - c.pos then
      corrupt c "bad list length %d" n

  (* Elements are read left to right by an explicit loop: the byte
     stream dictates the order, so the reader must never rely on the
     argument evaluation order of a constructor (List.init makes no
     such guarantee). *)
  let list c f =
    let n = varint c in
    check_count c n;
    if n = 0 then []
    else begin
      let first = f c in
      let a = Array.make n first in
      for i = 1 to n - 1 do
        a.(i) <- f c
      done;
      Array.to_list a
    end

  (* newest-first (reversed) list of [n] elements read left to right —
     the storage form of the log tables, built with no second pass *)
  let rev_list c f =
    let n = varint c in
    check_count c n;
    let r = ref [] in
    for _ = 1 to n do
      r := f c :: !r
    done;
    !r

  (* The copy of [v] kept under [key] in [tbl], [v] itself the first
     time. A log repeats a few values thousands of times (a thread's
     path, one thread's operation), and decoded events that share one
     copy each are what a streamed replay holds and promotes while a
     segment plays. *)
  let share tbl key v =
    match Keyed.find tbl key with
    | v' -> v'
    | exception Not_found ->
        Keyed.add tbl key v;
        v

  (* A path of at most five elements below 1023 has a one-int key, ten
     bits per element: it is looked up before its list is built, so a
     path seen before costs no allocation. Others are decoded fresh,
     with key -1. *)
  let tid_path c : Key.tid_path =
    let start = c.pos in
    let n = varint c in
    let rec pack i key =
      if i = n then key
      else
        let k = varint c in
        if k < 0 || k > 1022 then -1
        else pack (i + 1) ((key lsl 10) lor (k + 1))
    in
    let key = if n >= 0 && n <= 5 then pack 0 0 else -1 in
    c.path_key <- key;
    match Keyed.find c.paths key with
    | p -> p
    | exception Not_found ->
        c.pos <- start;
        let p = list c varint in
        if key >= 0 then Keyed.add c.paths key p;
        p

  let origin c =
    match varint c with
    | 0 -> Key.OGlobal (string c)
    | 1 ->
        let p = tid_path c in
        let n = varint c in
        Key.OFrame (p, n)
    | 2 ->
        let p = tid_path c in
        let n = varint c in
        Key.OHeap (p, n)
    | n -> corrupt c "origin tag %d" n

  let addr c : Key.addr =
    let o = origin c in
    let off = varint c in
    { a_origin = o; a_off = off }

  let weak_lock c : Minic.Ast.weak_lock =
    let g =
      match varint c with
      | 0 -> Minic.Ast.Gfunc | 1 -> Gloop | 2 -> Gbb | 3 -> Ginstr
      | n -> corrupt c "weak_lock granularity tag %d" n
    in
    let id = varint c in
    { wl_gran = g; wl_id = id }
end

(* sorted oldest-first key array of a keyed table — canonical encode
   order, via the typed comparator [cmp] *)
let sorted_keys (tbl : ('k, 'v) Hashtbl.t) (cmp : 'k -> 'k -> int) : 'k array
    =
  let keys = Array.make (Hashtbl.length tbl) None in
  let i = ref 0 in
  Hashtbl.iter
    (fun k _ ->
      keys.(!i) <- Some k;
      incr i)
    tbl;
  let keys = Array.map (function Some k -> k | None -> assert false) keys in
  Array.sort cmp keys;
  keys

(* [mark], when given, receives the byte offset after every encoded
   record (section headers and individual events) — the record-boundary
   map the fault-injection truncation sweep cuts at. [None] compiles to
   a dead branch, keeping the plain encoders allocation-free. *)

let mark_at (mark : (int -> unit) option) b =
  match mark with Some f -> f (Buffer.length b) | None -> ()

(* a rev_seq whose element boundaries are marked *)
let rev_seq_marked mark b f xs =
  let a = oldest_first xs in
  Enc.varint b (Array.length a);
  mark_at mark b;
  Array.iter
    (fun x ->
      f b x;
      mark_at mark b)
    a

let encode_input_log_gen ~mark (t : t) : string =
  let b = Buffer.create 1024 in
  let keys = sorted_keys t.inputs Key.compare_tid_path in
  Enc.varint b (Array.length keys);
  mark_at mark b;
  Array.iter
    (fun p ->
      Enc.tid_path b p;
      mark_at mark b;
      rev_seq_marked mark b (fun b vs -> Enc.list b Enc.varint vs)
        !(Hashtbl.find t.inputs p))
    keys;
  rev_seq_marked mark b Enc.tid_path t.syscall_order;
  Buffer.contents b

let encode_order_log_gen ~mark (t : t) : string =
  let b = Buffer.create 1024 in
  let sync_keys = sorted_keys t.sync_order Key.compare_addr in
  Enc.varint b (Array.length sync_keys);
  mark_at mark b;
  Array.iter
    (fun a ->
      Enc.addr b a;
      mark_at mark b;
      rev_seq_marked mark b
        (fun b (op, p) ->
          Enc.varint b (sync_op_code op);
          Enc.tid_path b p)
        !(Hashtbl.find t.sync_order a))
    sync_keys;
  let weak_keys = sorted_keys t.weak_order Minic.Ast.compare_weak_lock in
  Enc.varint b (Array.length weak_keys);
  mark_at mark b;
  Array.iter
    (fun w ->
      Enc.weak_lock b w;
      mark_at mark b;
      rev_seq_marked mark b
        (fun b (p, (claim : sclaim)) ->
          Enc.tid_path b p;
          Enc.list b
            (fun b sr ->
              Enc.origin b sr.sr_origin;
              Enc.varint b sr.sr_lo;
              Enc.varint b sr.sr_hi;
              Enc.varint b (if sr.sr_write then 1 else 0))
            claim)
        !(Hashtbl.find t.weak_order w))
    weak_keys;
  rev_seq_marked mark b
    (fun b fe ->
      Enc.tid_path b fe.fe_owner;
      Enc.varint b fe.fe_steps;
      Enc.varint b fe.fe_acqs;
      Enc.weak_lock b fe.fe_lock)
    t.forced;
  Buffer.contents b

(** Serialize the input log (syscall values + global syscall order). *)
let encode_input_log (t : t) : string = encode_input_log_gen ~mark:None t

(** Serialize the order log (sync + weak + forced). *)
let encode_order_log (t : t) : string = encode_order_log_gen ~mark:None t

(* the marked variants: encoding plus the sorted, deduplicated record
   boundary offsets (0 and the full length excluded — truncating there
   is the empty or the intact log, not a damaged one) *)
let with_marks encode t =
  let marks = ref [] in
  let s = encode ~mark:(Some (fun off -> marks := off :: !marks)) t in
  let n = String.length s in
  let bounds =
    List.sort_uniq compare
      (List.filter (fun off -> off > 0 && off < n) !marks)
  in
  (s, Array.of_list bounds)

(** [encode_input_log_marked t] is the exact {!encode_input_log} bytes
    plus the strictly interior record-boundary offsets, ascending. *)
let encode_input_log_marked (t : t) : string * int array =
  with_marks encode_input_log_gen t

let encode_order_log_marked (t : t) : string * int array =
  with_marks encode_order_log_gen t

(* a decode that stops early is as corrupt as one that runs past the
   end: bytes appended after a well-formed log would otherwise vanish
   silently, so an intact-looking recording could carry (and mask) any
   amount of trailing garbage *)
let check_consumed (c : Dec.cursor) what =
  if c.pos <> String.length c.s then
    Dec.corrupt c "trailing garbage after %s (%d bytes)" what
      (String.length c.s - c.pos)

let decode (input_log : string) (order_log : string) : t =
  let t = create () in
  let c = Dec.cursor input_log in
  let n = Dec.varint c in
  for _ = 1 to n do
    let p = Dec.tid_path c in
    let bursts = Dec.rev_list c (fun c -> Dec.list c Dec.varint) in
    Hashtbl.replace t.inputs p (ref bursts)
  done;
  t.syscall_order <- Dec.rev_list c Dec.tid_path;
  check_consumed c "input log";
  let c = Dec.cursor ~paths:c.paths order_log in
  (* an operation by a thread, or an acquisition with no claim, is
     shared by its thread's path key *)
  let op_pairs = Dec.Keyed.create 16 and acq_pairs = Dec.Keyed.create 16 in
  let nsync = Dec.varint c in
  for _ = 1 to nsync do
    let a = Dec.addr c in
    let ops =
      Dec.rev_list c (fun c ->
          let code = Dec.varint c in
          let op =
            if code < 0 || code > 6 then
              Dec.corrupt c "sync_op code %d" code
            else sync_op_of_code code
          in
          let p = Dec.tid_path c in
          if c.path_key < 0 then (op, p)
          else Dec.share op_pairs ((c.path_key lsl 3) lor code) (op, p))
    in
    Hashtbl.replace t.sync_order a (ref ops)
  done;
  let nweak = Dec.varint c in
  for _ = 1 to nweak do
    let w = Dec.weak_lock c in
    let ps =
      Dec.rev_list c (fun c ->
          let p = Dec.tid_path c in
          let key = c.path_key in
          let claim =
            Dec.list c (fun c ->
                let o = Dec.origin c in
                let lo = Dec.varint c in
                let hi = Dec.varint c in
                let w = Dec.varint c in
                { sr_origin = o; sr_lo = lo; sr_hi = hi; sr_write = w <> 0 })
          in
          if key < 0 || claim <> [] then (p, claim)
          else Dec.share acq_pairs key (p, claim))
    in
    Hashtbl.replace t.weak_order w (ref ps)
  done;
  t.forced <-
    Dec.rev_list c (fun c ->
        let owner = Dec.tid_path c in
        let steps = Dec.varint c in
        let acqs = Dec.varint c in
        let lock = Dec.weak_lock c in
        { fe_owner = owner; fe_steps = steps; fe_acqs = acqs; fe_lock = lock });
  check_consumed c "order log";
  t
