(** Segmented on-disk recording: a directory of sealed, compressed,
    checksummed log segments plus a manifest, so a recording can outlive
    memory and replay can stream it segment by segment.

    Layout of a segment directory:

    - [manifest] — one text line per segment (index, tick range, event
      count, raw/compressed sizes, MD5 of each compressed blob, and the
      checkpoint pin: the recorder's engine state digest at the seal, or
      [-]), bracketed by the magic header ["chimera-log-segments/2"] and
      a trailing [end <count>] line so a truncated manifest is detected;
    - [seg-NNNN.seg] — the segment payload: the magic line
      ["chimera-log-segment/1"], the two blob sizes, then the
      {!Zcompress}ed {!Log.encode_input_log} and
      {!Log.encode_order_log} bytes. The in-segment format {e is} the
      historical single-blob encoding — golden ticks and record==replay
      stay the contract;
    - [ckpt-NNNN.bin] — only beside a pinned seal: the same hex digest
      as the manifest's pin, so a seal's checkpoint can be found by file
      name. Replay never reads it.

    Every corruption — bad magic, size or checksum mismatch, truncation,
    trailing bytes — surfaces as the typed {!Log.Corrupt}, exactly like
    a damaged monolithic log; nothing in here crashes on garbage. *)

let magic = "chimera-log-segments/2"
let segment_magic = "chimera-log-segment/1"

type segment = {
  sg_index : int;
  sg_first_tick : int;
  sg_last_tick : int;
  sg_events : int;  (** gated events sealed into this segment *)
  sg_raw_input : int;
  sg_raw_order : int;
  sg_z_input : int;
  sg_z_order : int;
  sg_md5_input : string;
  sg_md5_order : string;
  sg_checkpoint : string option;  (** engine state digest at the seal (hex) *)
}

type manifest = { mf_segments : segment array }

let corrupt fmt = Fmt.kstr (fun m -> raise (Log.Corrupt m)) fmt

let segment_file idx = Fmt.str "seg-%04d.seg" idx
let checkpoint_file idx = Fmt.str "ckpt-%04d.bin" idx
let manifest_file = "manifest"

(* the next manifest is written here and renamed over [manifest_file] *)
let manifest_tmp = manifest_file ^ ".tmp"

(* ------------------------------------------------------------------ *)
(* Small file helpers (stdlib only; no Unix dependency) *)

let read_file path =
  if not (Sys.file_exists path) then corrupt "missing file %s" path;
  In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Manifest serialization *)

let segment_line (s : segment) =
  Fmt.str "segment %d first=%d last=%d events=%d raw=%d,%d z=%d,%d md5=%s,%s ckpt=%s"
    s.sg_index s.sg_first_tick s.sg_last_tick s.sg_events s.sg_raw_input
    s.sg_raw_order s.sg_z_input s.sg_z_order s.sg_md5_input s.sg_md5_order
    (Option.value s.sg_checkpoint ~default:"-")

let manifest_trailer n = Fmt.str "end %d" n

let manifest_string (m : manifest) =
  let lines = List.map segment_line (Array.to_list m.mf_segments) in
  let trailer = manifest_trailer (Array.length m.mf_segments) in
  String.concat "\n" ((magic :: lines) @ [ trailer; "" ])

let is_hex s =
  s <> ""
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let parse_segment_line idx line =
  let s =
    try
      Scanf.sscanf line
        "segment %d first=%d last=%d events=%d raw=%d,%d z=%d,%d md5=%s@,%s@ ckpt=%s"
        (fun i ft lt ev ri ro zi zo mi mo ck ->
          {
            sg_index = i;
            sg_first_tick = ft;
            sg_last_tick = lt;
            sg_events = ev;
            sg_raw_input = ri;
            sg_raw_order = ro;
            sg_z_input = zi;
            sg_z_order = zo;
            sg_md5_input = mi;
            sg_md5_order = mo;
            sg_checkpoint = (if ck = "-" then None else Some ck);
          })
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      corrupt "manifest line %d unparsable: %S" idx line
  in
  if s.sg_index <> idx - 1 then
    corrupt "manifest line %d: segment index %d out of order" idx s.sg_index;
  if not (is_hex s.sg_md5_input && is_hex s.sg_md5_order) then
    corrupt "manifest line %d: malformed checksum" idx;
  (match s.sg_checkpoint with
  | Some digest when not (is_hex digest) ->
      corrupt "manifest line %d: malformed checkpoint digest" idx
  | _ -> ());
  s

let manifest_of_string text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | header :: rest when header = magic ->
      let segs = ref [] and closed = ref false and n = ref 0 in
      List.iteri
        (fun i line ->
          if line <> "" && not !closed then
            if String.length line >= 4 && String.sub line 0 4 = "end " then begin
              (match int_of_string_opt (String.sub line 4 (String.length line - 4)) with
              | Some k when k = !n -> closed := true
              | Some k -> corrupt "manifest end count %d, %d segments listed" k !n
              | None -> corrupt "manifest end line unparsable: %S" line)
            end
            else begin
              incr n;
              segs := parse_segment_line !n line :: !segs
            end
          else if line <> "" && !closed then
            corrupt "manifest line %d after end marker" (i + 1))
        rest;
      if not !closed then corrupt "manifest truncated (no end marker)";
      { mf_segments = Array.of_list (List.rev !segs) }
  | header :: _ -> corrupt "manifest magic %S (want %S)" header magic
  | [] -> corrupt "empty manifest"

let read_manifest ~dir =
  manifest_of_string (read_file (Filename.concat dir manifest_file))

(* ------------------------------------------------------------------ *)
(* Writer *)

type writer_stats = {
  ws_segments : int;
  ws_events : int;           (** gated events across all sealed segments *)
  ws_peak_raw : int;         (** largest single-segment encoding — the
                                 resident-log-memory bound *)
  ws_total_raw : int;
  ws_total_z : int;
}

type writer = {
  w_dir : string;
  mutable w_segments : segment list;  (** newest first *)
  w_manifest : Buffer.t;
      (** the manifest up to its trailer: the header line, then one line
          per sealed segment, formatted once when it is appended *)
  mutable w_closed : bool;
  mutable w_stats : writer_stats;
}

let writer_stats w = w.w_stats

let create_writer ~dir : writer =
  mkdir_p dir;
  (* a fresh recording owns the directory: stale segments from a longer
     previous recording must not shadow the new manifest, and its
     checkpoint files ([checkpoint_file]) and any half-written
     [manifest_tmp] go too *)
  Array.iter
    (fun f ->
      if
        Filename.check_suffix f ".seg"
        || Filename.check_suffix f ".bin"
        || f = manifest_file || f = manifest_tmp
      then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  let w_manifest = Buffer.create 4096 in
  Buffer.add_string w_manifest magic;
  Buffer.add_char w_manifest '\n';
  {
    w_dir = dir;
    w_segments = [];
    w_manifest;
    w_closed = false;
    w_stats =
      { ws_segments = 0; ws_events = 0; ws_peak_raw = 0; ws_total_raw = 0;
        ws_total_z = 0 };
  }

let manifest_of_writer w =
  { mf_segments = Log.oldest_first w.w_segments }

(* the bytes [manifest_string] gives for the writer's manifest *)
let flush_manifest w =
  let tmp = Filename.concat w.w_dir manifest_tmp in
  Out_channel.with_open_bin tmp (fun oc ->
      Buffer.output_buffer oc w.w_manifest;
      output_string oc (manifest_trailer w.w_stats.ws_segments);
      output_char oc '\n');
  Sys.rename tmp (Filename.concat w.w_dir manifest_file)

let append (w : writer) ?checkpoint ~first_tick ~last_tick ~events
    (log : Log.t) =
  if w.w_closed then invalid_arg "Seglog.append: writer closed";
  let idx = w.w_stats.ws_segments in
  let raw_i = Log.encode_input_log log in
  let raw_o = Log.encode_order_log log in
  let z_i = Zcompress.compress raw_i in
  let z_o = Zcompress.compress raw_o in
  let b = Buffer.create (String.length z_i + String.length z_o + 64) in
  Buffer.add_string b segment_magic;
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Fmt.str "%d %d\n" (String.length z_i) (String.length z_o));
  Buffer.add_string b z_i;
  Buffer.add_string b z_o;
  write_file (Filename.concat w.w_dir (segment_file idx)) (Buffer.contents b);
  Option.iter (write_file (Filename.concat w.w_dir (checkpoint_file idx))) checkpoint;
  let seg =
    {
      sg_index = idx;
      sg_first_tick = first_tick;
      sg_last_tick = last_tick;
      sg_events = events;
      sg_raw_input = String.length raw_i;
      sg_raw_order = String.length raw_o;
      sg_z_input = String.length z_i;
      sg_z_order = String.length z_o;
      sg_md5_input = Digest.to_hex (Digest.string z_i);
      sg_md5_order = Digest.to_hex (Digest.string z_o);
      sg_checkpoint = checkpoint;
    }
  in
  w.w_segments <- seg :: w.w_segments;
  Buffer.add_string w.w_manifest (segment_line seg);
  Buffer.add_char w.w_manifest '\n';
  let st = w.w_stats in
  let raw = String.length raw_i + String.length raw_o in
  w.w_stats <-
    {
      ws_segments = st.ws_segments + 1;
      ws_events = st.ws_events + events;
      ws_peak_raw = max st.ws_peak_raw raw;
      ws_total_raw = st.ws_total_raw + raw;
      ws_total_z = st.ws_total_z + String.length z_i + String.length z_o;
    };
  (* replace the manifest at every seal, by rename: a crash at any point
     leaves the previous seal's manifest or this one, each whole and
     naming only segments already on disk — a readable prefix *)
  flush_manifest w

let close_writer (w : writer) : manifest =
  if not w.w_closed then begin
    w.w_closed <- true;
    flush_manifest w
  end;
  manifest_of_writer w

(* ------------------------------------------------------------------ *)
(* Reader *)

let load_segment ~dir (s : segment) : Log.t =
  let path = Filename.concat dir (segment_file s.sg_index) in
  let content = read_file path in
  let fail fmt = Fmt.kstr (fun m -> corrupt "%s: %s" path m) fmt in
  let nl1 =
    match String.index_opt content '\n' with
    | Some i -> i
    | None -> fail "truncated header"
  in
  if String.sub content 0 nl1 <> segment_magic then
    fail "segment magic %S (want %S)" (String.sub content 0 (min nl1 40))
      segment_magic;
  let nl2 =
    match String.index_from_opt content (nl1 + 1) '\n' with
    | Some i -> i
    | None -> fail "truncated size line"
  in
  let zi, zo =
    try
      Scanf.sscanf (String.sub content (nl1 + 1) (nl2 - nl1 - 1)) "%d %d"
        (fun a b -> (a, b))
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      fail "size line unparsable"
  in
  if zi <> s.sg_z_input || zo <> s.sg_z_order then
    fail "blob sizes %d/%d disagree with manifest %d/%d" zi zo s.sg_z_input
      s.sg_z_order;
  if zi < 0 || zo < 0 || String.length content - nl2 - 1 <> zi + zo then
    fail "payload is %d bytes, header promises %d"
      (String.length content - nl2 - 1)
      (zi + zo);
  let z_i = String.sub content (nl2 + 1) zi in
  let z_o = String.sub content (nl2 + 1 + zi) zo in
  if Digest.to_hex (Digest.string z_i) <> s.sg_md5_input then
    fail "input blob checksum mismatch";
  if Digest.to_hex (Digest.string z_o) <> s.sg_md5_order then
    fail "order blob checksum mismatch";
  let raw_i =
    try Zcompress.decompress z_i
    with Zcompress.Malformed m -> fail "input blob does not decompress: %s" m
  in
  let raw_o =
    try Zcompress.decompress z_o
    with Zcompress.Malformed m -> fail "order blob does not decompress: %s" m
  in
  if
    String.length raw_i <> s.sg_raw_input
    || String.length raw_o <> s.sg_raw_order
  then
    fail "decompressed sizes %d/%d disagree with manifest %d/%d"
      (String.length raw_i) (String.length raw_o) s.sg_raw_input
      s.sg_raw_order;
  Log.decode raw_i raw_o

(** Sequential pull over the directory's segments (decoded, verified),
    for {!Replayer.of_stream}. Segments load lazily — a windowed replay
    that halts early never touches the later files. *)
let stream ~dir : manifest * (unit -> Log.t option) =
  let m = read_manifest ~dir in
  let pos = ref 0 in
  ( m,
    fun () ->
      if !pos >= Array.length m.mf_segments then None
      else begin
        let s = m.mf_segments.(!pos) in
        incr pos;
        Some (load_segment ~dir s)
      end )

(** Index of the last segment needed to cover ticks [\[from, upto\]]:
    the first segment whose recorded tick range ends at or after [upto]
    (the last segment when the window runs past the recording). *)
let covering_segment (m : manifest) ~(upto : int) : int =
  let n = Array.length m.mf_segments in
  let rec go i =
    if i >= n - 1 then max 0 (n - 1)
    else if m.mf_segments.(i).sg_last_tick >= upto then i
    else go (i + 1)
  in
  go 0
