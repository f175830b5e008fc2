(** Persistent on-disk analysis cache (DESIGN.md §11).

    One entry per file, content-addressed: the file name is the cache
    key, a hex digest of everything the analysis result depends on
    (marshalled input program, analysis options, profiling
    configuration, a caller-supplied tag covering non-digestible inputs
    such as the profiling io-model, and the tool version). The payload
    is an opaque byte string — the pipeline stores one [Marshal] blob of
    the whole analysis record.

    Entry format (all header fields in text, then raw payload bytes):

    {v
    CHIMERA-ANCACHE/1\n
    <key>\n
    <payload-length-decimal>\n
    <payload-md5-hex>\n
    <payload bytes>
    v}

    Robustness contract: a lookup {e never} raises on a damaged store.
    Truncated, checksum-corrupt, version-mismatched or unreadable
    entries report a typed {!miss} so the caller can fall back to
    recomputation (and overwrite the bad entry); writes go through a
    temp file + atomic rename so a crashed writer can only ever leave a
    stray temp file, not a half-written entry. *)

let magic = "CHIMERA-ANCACHE/1"

(** Bump when the serialized analysis payload changes meaning (new
    analysis semantics, changed types). Part of every cache key, so a
    new tool version simply misses old entries. *)
let tool_version = "chimera-10"

type t = { dir : string }

type miss =
  | Absent  (** no entry under this key *)
  | Truncated  (** file shorter than its header claims *)
  | Checksum_mismatch  (** payload bytes fail their MD5 *)
  | Version_mismatch  (** entry written by a different format version *)
  | Unreadable of string  (** I/O or header-parse failure *)

let pp_miss ppf = function
  | Absent -> Fmt.string ppf "absent"
  | Truncated -> Fmt.string ppf "truncated entry"
  | Checksum_mismatch -> Fmt.string ppf "checksum mismatch"
  | Version_mismatch -> Fmt.string ppf "format-version mismatch"
  | Unreadable e -> Fmt.pf ppf "unreadable (%s)" e

let default_dir () =
  match Sys.getenv_opt "CHIMERA_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
      let base =
        match Sys.getenv_opt "XDG_CACHE_HOME" with
        | Some d when d <> "" -> d
        | _ -> (
            match Sys.getenv_opt "HOME" with
            | Some h when h <> "" -> Filename.concat h ".cache"
            | _ -> Filename.concat (Filename.get_temp_dir_name ()) "cache")
      in
      Filename.concat base "chimera")

let create ?dir () =
  { dir = (match dir with Some d -> d | None -> default_dir ()) }

let dir t = t.dir

(** Build a cache key from the strings the result depends on. *)
let key_of_parts (parts : string list) : string =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

let path_of t key = Filename.concat t.dir (key ^ ".anc")

(* tolerate only fs-safe keys (we only ever generate hex digests, but a
   caller-supplied key must not escape the cache dir) *)
let valid_key key =
  key <> ""
  && String.for_all
       (fun c ->
         (c >= '0' && c <= '9')
         || (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || c = '-' || c = '_')
       key

let find (t : t) ~(key : string) : (string, miss) result =
  if not (valid_key key) then Error (Unreadable "invalid key")
  else
    let path = path_of t key in
    if not (Sys.file_exists path) then Error Absent
    else
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let line () = try Some (input_line ic) with End_of_file -> None in
            match line () with
            | None -> Error Truncated
            | Some m when m <> magic -> Error Version_mismatch
            | Some _ -> (
                match (line (), line (), line ()) with
                | Some k, Some len_s, Some sum -> (
                    if k <> key then Error (Unreadable "key mismatch")
                    else
                      match int_of_string_opt len_s with
                      | None -> Error (Unreadable "bad length field")
                      | Some len when len < 0 ->
                          Error (Unreadable "bad length field")
                      | Some len when len > in_channel_length ic - pos_in ic ->
                          Error Truncated
                      | Some len -> (
                          match really_input_string ic len with
                          | payload ->
                              if Digest.to_hex (Digest.string payload) <> sum
                              then Error Checksum_mismatch
                              else Ok payload
                          | exception End_of_file -> Error Truncated))
                | _ -> Error Truncated))
      with Sys_error e -> Error (Unreadable e)

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(** Store [payload] under [key], atomically (temp file + rename). A
    cache-write failure must never fail the analysis: returns [false]
    instead of raising. *)
let put (t : t) ~(key : string) (payload : string) : bool =
  valid_key key
  &&
  try
    mkdir_p t.dir;
    let tmp =
      Filename.temp_file ~temp_dir:t.dir ("." ^ key) ".tmp"
    in
    let ok =
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Printf.fprintf oc "%s\n%s\n%d\n%s\n" magic key
              (String.length payload)
              (Digest.to_hex (Digest.string payload));
            output_string oc payload);
        Sys.rename tmp (path_of t key);
        true
      with Sys_error _ ->
        (try Sys.remove tmp with Sys_error _ -> ());
        false
    in
    ok
  with Sys_error _ -> false

let entries (t : t) : string list =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".anc")
      |> List.sort compare

(* a writer that crashed between [Filename.temp_file] and the rename in
   {!put} leaves a dot-prefixed [.<key><rand>.tmp] behind; they are
   invisible to {!entries} but accumulate forever unless swept *)
let stray_tmp_files (t : t) : string list =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter (fun f ->
             String.length f > 0
             && f.[0] = '.'
             && Filename.check_suffix f ".tmp")
      |> List.sort compare

type stats = { st_entries : int; st_bytes : int; st_tmp : int }

let stats (t : t) : stats =
  let base =
    List.fold_left
      (fun acc f ->
        let sz =
          try (Unix.stat (Filename.concat t.dir f)).Unix.st_size
          with Unix.Unix_error _ | Sys_error _ -> 0
        in
        { acc with st_entries = acc.st_entries + 1; st_bytes = acc.st_bytes + sz })
      { st_entries = 0; st_bytes = 0; st_tmp = 0 }
      (entries t)
  in
  { base with st_tmp = List.length (stray_tmp_files t) }

(** Delete every cache entry and stray writer temp file; returns how
    many entries were removed (temp files don't count — they were never
    entries). Leaves other files (and the directory) alone. *)
let clear (t : t) : int =
  List.iter
    (fun f -> try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
    (stray_tmp_files t);
  List.fold_left
    (fun n f ->
      match Sys.remove (Filename.concat t.dir f) with
      | () -> n + 1
      | exception Sys_error _ -> n)
    0 (entries t)
