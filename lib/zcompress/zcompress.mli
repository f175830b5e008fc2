(** A small LZ77 compressor, standing in for gzip when reporting
    compressed log sizes (Table 2). Round-trips exactly. *)

val compress : string -> string

(** Raised by {!decompress} on input {!compress} cannot produce: a
    literal run or a match header cut off by the end of input, or a
    match distance of 0 or beyond the bytes produced so far. The
    message names the offending token's offset. *)
exception Malformed of string

(** Inverse of {!compress}. @raise Malformed on malformed input. *)
val decompress : string -> string

(** [compressed_size s = String.length (compress s)], computed by the
    same greedy scan without building the output: it only counts the
    bytes of the tokens the scan picks. *)
val compressed_size : string -> int
