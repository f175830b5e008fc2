(** A small LZ77 compressor, standing in for gzip when reporting
    compressed log sizes (Table 2 of the paper reports gzip'd log sizes;
    only the relative sizes across applications matter for the
    reproduction).

    Format: a stream of tokens. Token tag byte [t]:
    - [t < 0x80]: literal run of [t+1] bytes, copied verbatim;
    - [t >= 0x80]: match; length = [t - 0x80 + min_match], followed by a
      2-byte little-endian distance.

    Greedy longest-match search over a 8 KiB window with a 3-byte hash
    chain. Round-trips exactly (tested). *)

let min_match = 4
let max_match = 130  (* 0xFF - 0x80 + min_match + 1 *)
let window = 8192
let max_literal_run = 128

let hash3 (s : string) i =
  ((Char.code s.[i] lsl 10) lxor (Char.code s.[i + 1] lsl 5)
  lxor Char.code s.[i + 2])
  land 0x3fff

let compress (src : string) : string =
  let n = String.length src in
  let out = Buffer.create (n / 2) in
  let head = Array.make 0x4000 (-1) in
  let prev = Array.make (max n 1) (-1) in
  let lit_start = ref 0 in
  let flush_literals upto =
    let i = ref !lit_start in
    while !i < upto do
      let run = min max_literal_run (upto - !i) in
      Buffer.add_char out (Char.chr (run - 1));
      Buffer.add_substring out src !i run;
      i := !i + run
    done;
    lit_start := upto
  in
  let insert i =
    if i + 2 < n then begin
      let h = hash3 src i in
      prev.(i) <- head.(h);
      head.(h) <- i
    end
  in
  let i = ref 0 in
  while !i < n do
    let best_len = ref 0 and best_dist = ref 0 in
    if !i + min_match <= n && !i + 2 < n then begin
      let h = hash3 src !i in
      let cand = ref head.(h) in
      let tries = ref 32 in
      while !cand >= 0 && !tries > 0 do
        if !i - !cand <= window then begin
          let len = ref 0 in
          let maxl = min max_match (n - !i) in
          while
            !len < maxl && src.[!cand + !len] = src.[!i + !len]
          do
            incr len
          done;
          if !len > !best_len then begin
            best_len := !len;
            best_dist := !i - !cand
          end;
          cand := prev.(!cand);
          decr tries
        end
        else begin
          cand := -1
        end
      done
    end;
    if !best_len >= min_match then begin
      flush_literals !i;
      Buffer.add_char out (Char.chr (0x80 lor (!best_len - min_match)));
      Buffer.add_char out (Char.chr (!best_dist land 0xff));
      Buffer.add_char out (Char.chr ((!best_dist lsr 8) land 0xff));
      let stop = !i + !best_len in
      while !i < stop do
        insert !i;
        incr i
      done;
      lit_start := !i
    end
    else begin
      insert !i;
      incr i
    end
  done;
  flush_literals n;
  Buffer.contents out

exception Malformed of string

let decompress (z : string) : string =
  let out = Buffer.create (String.length z * 2) in
  let i = ref 0 in
  let n = String.length z in
  let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  while !i < n do
    let t = Char.code z.[!i] in
    incr i;
    if t < 0x80 then begin
      let run = t + 1 in
      if !i + run > n then
        malformed "literal run of %d bytes at offset %d truncated" run (!i - 1);
      Buffer.add_substring out z !i run;
      i := !i + run
    end
    else begin
      let len = t - 0x80 + min_match in
      if !i + 2 > n then malformed "match header at offset %d truncated" (!i - 1);
      let dist = Char.code z.[!i] lor (Char.code z.[!i + 1] lsl 8) in
      if dist = 0 || dist > Buffer.length out then
        malformed "match distance %d at offset %d outside the %d bytes produced"
          dist (!i - 1) (Buffer.length out);
      i := !i + 2;
      let start = Buffer.length out - dist in
      for k = 0 to len - 1 do
        Buffer.add_char out (Buffer.nth out (start + k))
      done
    end
  done;
  Buffer.contents out

(** Compressed size in bytes. *)
let compressed_size (s : string) : int = String.length (compress s)
