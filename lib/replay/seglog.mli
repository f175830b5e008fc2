(** Segmented on-disk recording ([chimera-log-segments/2]): sealed,
    {!Zcompress}ed, MD5-checksummed log segments in a directory with a
    manifest, written incrementally by the spilling recorder and
    streamed back by {!Replayer.of_stream}. Optional per-seal
    checkpoints — the recorder's engine state digest at the seal — are
    pinned in the manifest and in a file beside the seal. All corruption — bad magic (a [/1]
    directory included), size or checksum mismatches, truncation —
    raises the typed {!Log.Corrupt}, never a crash. *)

val magic : string
(** Manifest header: ["chimera-log-segments/2"]. *)

val segment_magic : string
(** Per-segment-file header: ["chimera-log-segment/1"]. *)

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

val segment_file : int -> string
val checkpoint_file : int -> string
(** [ckpt-NNNN.bin]: the file beside a pinned seal that holds the same
    hex digest as its manifest entry. Replay never reads it. *)

val manifest_file : string

(* Writer *)

type writer_stats = {
  ws_segments : int;
  ws_events : int;
  ws_peak_raw : int;
      (** largest single-segment encoding — the resident-log-memory
          bound a spilling recording keeps *)
  ws_total_raw : int;
  ws_total_z : int;
}

type writer

(** Own [dir] for a fresh recording: create it, drop the files a
    previous recording left there. *)
val create_writer : dir:string -> writer

(** Seal one segment: encode, compress, checksum, write
    [seg-NNNN.seg], and replace the manifest by a rename (so a crashed
    recording leaves a whole manifest naming a readable prefix). [checkpoint], when given, is the engine
    state digest at the seal, pinned in the manifest entry and written
    to [checkpoint_file]. *)
val append :
  writer ->
  ?checkpoint:string ->
  first_tick:int ->
  last_tick:int ->
  events:int ->
  Log.t ->
  unit

val writer_stats : writer -> writer_stats
val close_writer : writer -> manifest

(* Reader *)

val read_manifest : dir:string -> manifest
(** @raise Log.Corrupt on a missing, truncated, or malformed manifest. *)

val load_segment : dir:string -> segment -> Log.t
(** Verify magic, sizes and checksums, decompress, decode.
    @raise Log.Corrupt on any mismatch. *)

val stream : dir:string -> manifest * (unit -> Log.t option)
(** Lazy sequential pull for {!Replayer.of_stream}; a windowed replay
    that halts early never reads the later segment files. *)

val covering_segment : manifest -> upto:int -> int
(** Index of the last segment needed to cover a replay window ending at
    tick [upto] (clamped to the final segment). *)
