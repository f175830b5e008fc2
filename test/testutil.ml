(** Small shared helpers for the test suites. *)

(** [contains s sub]: naive substring search. *)
let contains (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let found = ref false in
    for i = 0 to n - m do
      if (not !found) && String.sub s i m = sub then found := true
    done;
    !found
  end

(** [with_temp_dir prefix f] runs [f dir] on a fresh path under the
    temporary directory that does not exist yet: [f], or the code it
    tests, may create it as a flat directory of files. Afterwards, however
    [f] returns, the files are removed and then the directory. *)
let with_temp_dir (prefix : string) (f : string -> 'a) : 'a =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)
