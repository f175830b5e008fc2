(** Simulated shared memory: a table of blocks (globals, stack frames,
    heap allocations) of value cells.

    Every block carries a schedule-independent {!Runtime.Key.origin} so
    that log events and the final-state hash are comparable between a
    recording and a replay that allocated blocks in a different global
    order.

    Block ids are dense (allocated 1, 2, 3, ...), so the table is a
    growable array indexed by id rather than a hash table, and an empty
    slot holds a stub without cells: every load and store reads the
    cells of whatever its id resolves to, which matters — the
    interpreter goes through here for each memory access of every
    simulated statement. *)

open Runtime

type block = {
  b_id : int;
  b_origin : Key.origin;
  cells : Value.t array;
  b_freed : bool;
}

type t = {
  mutable blocks : block array;  (** indexed by block id *)
  mutable next_id : int;
}

(* the stub of every empty slot, told apart from a freed block by identity *)
let absent = { b_id = 0; b_origin = Key.OGlobal ""; cells = [||]; b_freed = true }

let create () = { blocks = Array.make 1024 absent; next_id = 1 }

let slot (m : t) (id : int) : block =
  if id >= 0 && id < Array.length m.blocks then Array.unsafe_get m.blocks id
  else absent

let find_opt (m : t) (id : int) : block option =
  let b = slot m id in
  if b == absent then None else Some b

let alloc (m : t) (origin : Key.origin) (size : int) : block =
  let b =
    {
      b_id = m.next_id;
      b_origin = origin;
      cells = Array.make (max size 0) Value.zero;
      b_freed = false;
    }
  in
  m.next_id <- m.next_id + 1;
  let n = Array.length m.blocks in
  if b.b_id >= n then begin
    let bigger = Array.make (max (2 * n) (b.b_id + 1)) absent in
    Array.blit m.blocks 0 bigger 0 n;
    m.blocks <- bigger
  end;
  m.blocks.(b.b_id) <- b;
  b

(* A freed block stays in the table as a stub without cells: a later
   access still faults as a use after free and log keys still resolve
   its origin, but the memory of a returned frame is reclaimed during
   the run instead of when the engine is dropped. *)
let free (m : t) (id : int) =
  let b = slot m id in
  if b != absent then m.blocks.(id) <- { b with cells = [||]; b_freed = true }

let block (m : t) (id : int) : block =
  let b = slot m id in
  if b == absent then Value.fault "invalid block b%d" id
  else if b.b_freed then Value.fault "use of freed block b%d" id
  else b

(* cell [off] of block [id]: the interpreter passes a pointer's two
   parts, so that an access builds no [Value.ptr]. Freed and absent
   blocks have no cells, so an access outside the cells faults through
   [block] first, with the text it always had. *)
let load_at (m : t) (id : int) (off : int) : Value.t =
  let cells = (slot m id).cells in
  if off >= 0 && off < Array.length cells then Array.unsafe_get cells off
  else
    let b = block m id in
    Value.fault "out-of-bounds load at %a+%d (size %d)" Key.pp_origin
      b.b_origin off (Array.length b.cells)

let store_at (m : t) (id : int) (off : int) (v : Value.t) : unit =
  let cells = (slot m id).cells in
  if off >= 0 && off < Array.length cells then Array.unsafe_set cells off v
  else
    let b = block m id in
    Value.fault "out-of-bounds store at %a+%d (size %d)" Key.pp_origin
      b.b_origin off (Array.length b.cells)

(** Stable address of a pointer, for log keys. *)
let addr_key (m : t) (p : Value.ptr) : Key.addr =
  let b = block m p.p_block in
  { Key.a_origin = b.b_origin; a_off = p.p_off }

(* the canonical text of a cell: a pointer names its block's origin,
   which a freed block's stub still carries *)
let add_value (m : t) out (v : Value.t) =
  match v with
  | Value.VInt n -> Key.add_int out n
  | Value.VPtr p -> (
      match find_opt m p.p_block with
      | Some b ->
          Buffer.add_string out "ptr(";
          Key.add_origin out b.b_origin;
          Buffer.add_char out '+';
          Key.add_int out p.p_off;
          Buffer.add_char out ')'
      | None -> Buffer.add_string out "ptr(dead)")
  | Value.VFun f ->
      Buffer.add_char out '&';
      Buffer.add_string out f

(** Deterministic hash of every cell of all live global and heap
    memory, with pointer values canonicalized through their origins. Frames are excluded (they
    belong to still-running threads only at non-quiescent points; at
    program end all frames are gone anyway).

    Each live global or heap block contributes the entry
    ["<origin>=<cell>,<cell>,..."]; the hash is the MD5 of the sorted
    entries joined by newlines. The text goes through one buffer with
    {!Key.add_int} and {!Key.add_origin}, so a cell allocates nothing
    and a freed frame's stub costs one table read. *)
let state_hash (m : t) : int =
  let out = Buffer.create 1024 in
  let entries = ref [] in
  for id = 1 to m.next_id - 1 do
    match m.blocks.(id) with
    | { b_origin = Key.OGlobal _ | Key.OHeap _; b_freed = false; _ } as b ->
        Buffer.clear out;
        Key.add_origin out b.b_origin;
        Buffer.add_char out '=';
        for k = 0 to Array.length b.cells - 1 do
          if k > 0 then Buffer.add_char out ',';
          add_value m out (Array.unsafe_get b.cells k)
        done;
        entries := Buffer.contents out :: !entries
    | _ -> ()
  done;
  (* a digest of every entry: [Hashtbl.hash] of the list would stop
     after its first ten elements and miss any later block *)
  let sorted = List.sort String.compare !entries in
  let d = Digest.string (String.concat "\n" sorted) in
  Int64.to_int (String.get_int64_le d 0) land max_int
