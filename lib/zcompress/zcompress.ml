(** A small LZ77 compressor, standing in for gzip when reporting
    compressed log sizes (Table 2 of the paper reports gzip'd log sizes;
    only the relative sizes across applications matter for the
    reproduction).

    Format: a stream of tokens. Token tag byte [t]:
    - [t < 0x80]: literal run of [t+1] bytes, copied verbatim;
    - [t >= 0x80]: match; length = [t - 0x80 + min_match], followed by a
      2-byte little-endian distance.

    Greedy longest-match search over a 8 KiB window with a 3-byte hash
    chain, walking at most [max_tries] candidates per position. One scan
    makes every choice; {!compress} writes the tokens it picks and
    {!compressed_size} only counts their bytes, so the two agree by
    construction. Round-trips exactly (tested). *)

let min_match = 4
let max_match = 130  (* 0xFF - 0x80 + min_match + 1 *)
let window = 8192
let max_literal_run = 128
let max_tries = 32

(* [prev] is a ring over the last [ring_mask + 1] positions. A chain
   link is read only from a candidate within the window, and the slot of
   such a candidate is overwritten only [ring_mask + 1 > window]
   positions later, after the scan has moved past reach of it.

   Both tables belong to the domain and are reused by every scan on it,
   so a scan allocates no table: a fresh [head] would be 128 KiB straight
   on the major heap, twice per sealed segment. A scan refills [head]
   with -1 but leaves [prev] as the last scan left it. No stale link is
   ever read: the first candidate comes from [head], so this scan
   inserted it, and a link is read only from a candidate's own slot,
   which its insertion earlier in this scan wrote with a position
   inserted earlier still (or -1). *)
let ring_mask = 0x3fff

let tables : (int array * int array) Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      (Array.make 0x4000 (-1), Array.make (ring_mask + 1) (-1)))

let hash3 (s : string) i =
  ((Char.code (String.unsafe_get s i) lsl 10)
  lxor (Char.code (String.unsafe_get s (i + 1)) lsl 5)
  lxor Char.code (String.unsafe_get s (i + 2)))
  land 0x3fff

(* chain position [k] under its 3-byte hash; the last two positions
   start no 3-byte string *)
let insert head prev (src : string) n k =
  if k + 2 < n then begin
    let h = hash3 src k in
    Array.unsafe_set prev (k land ring_mask) (Array.unsafe_get head h);
    Array.unsafe_set head h k
  end

(* bytes of the literal tokens covering a span of [len] bytes: one tag
   byte per run of at most [max_literal_run] *)
let literal_bytes len = len + ((len + max_literal_run - 1) / max_literal_run)

let add_literals out (src : string) lo hi =
  let i = ref lo in
  while !i < hi do
    let run = min max_literal_run (hi - !i) in
    Buffer.add_char out (Char.unsafe_chr (run - 1));
    Buffer.add_substring out src !i run;
    i := !i + run
  done

(* Length of the longest match for position [pos] among the hash chain's
   candidates, with its distance in [dist]. A candidate can only win by
   matching past [best], so one whose byte at offset [best] differs is
   skipped without a full compare; once a match reaches [maxl] no later
   candidate can beat it. Ties keep the nearer candidate. *)
let longest_match head prev (src : string) n pos (dist : int ref) =
  let maxl = min max_match (n - pos) in
  let best = ref 0 in
  let cand = ref (Array.unsafe_get head (hash3 src pos)) in
  let tries = ref max_tries in
  while !cand >= 0 && !tries > 0 && !best < maxl do
    let c = !cand in
    if pos - c > window then cand := -1
    else begin
      let b = !best in
      if String.unsafe_get src (c + b) = String.unsafe_get src (pos + b) then begin
        let len = ref 0 in
        while
          !len < maxl
          && String.unsafe_get src (c + !len) = String.unsafe_get src (pos + !len)
        do
          incr len
        done;
        if !len > b then begin
          best := !len;
          dist := pos - c
        end
      end;
      cand := Array.unsafe_get prev (c land ring_mask);
      decr tries
    end
  done;
  !best

(* The greedy scan. Every token goes to [out] when one is given; the
   result is the compressed size either way. *)
let scan (src : string) (out : Buffer.t option) : int =
  let n = String.length src in
  let head, prev = Domain.DLS.get tables in
  Array.fill head 0 (Array.length head) (-1);
  let dist = ref 0 in
  let size = ref 0 in
  let lit_start = ref 0 in
  let i = ref 0 in
  while !i < n do
    let pos = !i in
    let len =
      if pos + min_match <= n then longest_match head prev src n pos dist else 0
    in
    if len >= min_match then begin
      size := !size + literal_bytes (pos - !lit_start) + 3;
      (match out with
      | None -> ()
      | Some out ->
          add_literals out src !lit_start pos;
          Buffer.add_char out (Char.unsafe_chr (0x80 lor (len - min_match)));
          Buffer.add_char out (Char.unsafe_chr (!dist land 0xff));
          Buffer.add_char out (Char.unsafe_chr ((!dist lsr 8) land 0xff)));
      for k = pos to pos + len - 1 do
        insert head prev src n k
      done;
      i := pos + len;
      lit_start := !i
    end
    else begin
      insert head prev src n pos;
      i := pos + 1
    end
  done;
  (match out with None -> () | Some out -> add_literals out src !lit_start n);
  !size + literal_bytes (n - !lit_start)

let compress (src : string) : string =
  let out = Buffer.create (String.length src / 2) in
  ignore (scan src (Some out) : int);
  Buffer.contents out

let compressed_size (s : string) : int = scan s None

exception Malformed of string

let decompress (z : string) : string =
  let n = String.length z in
  let out = ref (Bytes.create (max 64 (2 * n))) in
  let len = ref 0 in
  (* room for [k] more bytes *)
  let reserve k =
    let cap = Bytes.length !out in
    if !len + k > cap then begin
      let grown = Bytes.create (max (2 * cap) (!len + k)) in
      Bytes.blit !out 0 grown 0 !len;
      out := grown
    end
  in
  let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  let i = ref 0 in
  while !i < n do
    let t = Char.code (String.unsafe_get z !i) in
    incr i;
    if t < 0x80 then begin
      let run = t + 1 in
      if !i + run > n then
        malformed "literal run of %d bytes at offset %d truncated" run (!i - 1);
      reserve run;
      Bytes.blit_string z !i !out !len run;
      len := !len + run;
      i := !i + run
    end
    else begin
      let mlen = t - 0x80 + min_match in
      if !i + 2 > n then malformed "match header at offset %d truncated" (!i - 1);
      let dist =
        Char.code (String.unsafe_get z !i)
        lor (Char.code (String.unsafe_get z (!i + 1)) lsl 8)
      in
      if dist = 0 || dist > !len then
        malformed "match distance %d at offset %d outside the %d bytes produced"
          dist (!i - 1) !len;
      i := !i + 2;
      reserve mlen;
      let b = !out and start = !len - dist in
      if dist >= mlen then Bytes.blit b start b !len mlen
      else
        (* the match overlaps its own output: each byte copies one
           written [dist] bytes earlier in this same loop *)
        for k = 0 to mlen - 1 do
          Bytes.unsafe_set b (!len + k) (Bytes.unsafe_get b (start + k))
        done;
      len := !len + mlen
    end
  done;
  Bytes.sub_string !out 0 !len
