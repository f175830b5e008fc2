(** Abstract syntax for MiniC, the C-like language Chimera analyzes and
    instruments.

    MiniC plays the role CIL plays in the paper: a structured intermediate
    representation of C with functions, loops, lvalues, and enough of the
    pthread/syscall surface (spawn/join, mutexes, barriers, condition
    variables, nondeterministic input) to express the paper's benchmarks.
    Statements carry unique ids ([sid]) which serve as the "static memory
    instruction" identity used by the race detector and the instrumenter. *)

(** Source location, used in diagnostics and race reports. *)
type loc = { file : string; line : int }

let dummy_loc = { file = "<builtin>"; line = 0 }

let pp_loc ppf { file; line } = Fmt.pf ppf "%s:%d" file line

(** Types. Arrays have a static element count; structs are named and
    resolved against the program's struct table. *)
type ty =
  | Tvoid
  | Tint
  | Tptr of ty
  | Tarray of ty * int
  | Tstruct of string
  | Tfun of ty * ty list

let rec pp_ty ppf = function
  | Tvoid -> Fmt.string ppf "void"
  | Tint -> Fmt.string ppf "int"
  | Tptr t -> Fmt.pf ppf "%a*" pp_ty t
  | Tarray (t, n) -> Fmt.pf ppf "%a[%d]" pp_ty t n
  | Tstruct s -> Fmt.pf ppf "struct %s" s
  | Tfun (r, args) ->
      Fmt.pf ppf "%a(%a)" pp_ty r Fmt.(list ~sep:comma pp_ty) args

let rec equal_ty a b =
  match (a, b) with
  | Tvoid, Tvoid | Tint, Tint -> true
  | Tptr a, Tptr b -> equal_ty a b
  | Tarray (a, n), Tarray (b, m) -> n = m && equal_ty a b
  | Tstruct a, Tstruct b -> String.equal a b
  | Tfun (r1, a1), Tfun (r2, a2) ->
      equal_ty r1 r2
      && List.length a1 = List.length a2
      && List.for_all2 equal_ty a1 a2
  | _ -> false

type unop = Neg | LNot | BNot

type binop =
  | Add | Sub | Mul | Div | Mod
  | BAnd | BOr | BXor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | LAnd | LOr

(** Expressions are side-effect free; calls are statements. *)
type exp =
  | Const of int
  | Lval of lval
  | AddrOf of lval
  | Unop of unop * exp
  | Binop of binop * exp * exp

(** Lvalues. [Index] applies to an array or pointer base; [Arrow] is
    [p->f]; [Field] is [s.f]. *)
and lval =
  | Var of string
  | Deref of exp
  | Index of lval * exp
  | Field of lval * string
  | Arrow of exp * string

(** Builtin operations with runtime/synchronization semantics. These are the
    "library calls" that RELAY's lockset analysis and the recorder treat
    specially. *)
type builtin =
  | Spawn            (** [t = spawn(f, arg)]: create a thread *)
  | Join             (** [join(t)] *)
  | MutexLock        (** [lock(&m)] *)
  | MutexUnlock      (** [unlock(&m)] *)
  | BarrierInit      (** [barrier_init(&b, n)] *)
  | BarrierWait      (** [barrier_wait(&b)] *)
  | CondWait         (** [cond_wait(&c, &m)] *)
  | CondSignal       (** [cond_signal(&c)] *)
  | CondBroadcast    (** [cond_broadcast(&c)] *)
  | Input            (** [x = input()]: nondeterministic int (recorded) *)
  | Output           (** [output(x)]: append to program output *)
  | NetRead          (** [n = net_read(buf, max)]: blocking, high-latency
                         nondeterministic read (recorded) *)
  | FileRead         (** [n = file_read(buf, max)]: low-latency
                         nondeterministic read (recorded) *)
  | Malloc           (** [p = malloc(n)]: n cells *)
  | Free             (** [free(p)] *)
  | Yield            (** scheduling hint *)
  | Exit             (** terminate the whole program *)

let builtin_name = function
  | Spawn -> "spawn" | Join -> "join"
  | MutexLock -> "lock" | MutexUnlock -> "unlock"
  | BarrierInit -> "barrier_init" | BarrierWait -> "barrier_wait"
  | CondWait -> "cond_wait" | CondSignal -> "cond_signal"
  | CondBroadcast -> "cond_broadcast"
  | Input -> "input" | Output -> "output"
  | NetRead -> "net_read" | FileRead -> "file_read"
  | Malloc -> "malloc" | Free -> "free"
  | Yield -> "yield" | Exit -> "exit"

let builtin_of_name = function
  | "spawn" -> Some Spawn | "join" -> Some Join
  | "lock" -> Some MutexLock | "unlock" -> Some MutexUnlock
  | "barrier_init" -> Some BarrierInit | "barrier_wait" -> Some BarrierWait
  | "cond_wait" -> Some CondWait | "cond_signal" -> Some CondSignal
  | "cond_broadcast" -> Some CondBroadcast
  | "input" -> Some Input | "output" -> Some Output
  | "net_read" -> Some NetRead | "file_read" -> Some FileRead
  | "malloc" -> Some Malloc | "free" -> Some Free
  | "yield" -> Some Yield | "exit" -> Some Exit
  | _ -> None

(** Weak-lock region granularities, ordered coarse to fine. The runtime
    acquires function-locks before loop-locks before basic-block locks
    before instruction-locks (Section 2.3 of the paper). *)
type granularity = Gfunc | Gloop | Gbb | Ginstr

let pp_granularity ppf g =
  Fmt.string ppf
    (match g with
    | Gfunc -> "func" | Gloop -> "loop" | Gbb -> "bb" | Ginstr -> "instr")

let granularity_rank = function Gfunc -> 0 | Gloop -> 1 | Gbb -> 2 | Ginstr -> 3

(** A weak-lock identity. [wl_gran] determines acquisition order class. *)
type weak_lock = { wl_id : int; wl_gran : granularity }

let compare_weak_lock a b =
  match compare (granularity_rank a.wl_gran) (granularity_rank b.wl_gran) with
  | 0 -> compare a.wl_id b.wl_id
  | c -> c

let equal_weak_lock a b = a.wl_id = b.wl_id && a.wl_gran == b.wl_gran

let pp_weak_lock ppf w = Fmt.pf ppf "%a%d" pp_granularity w.wl_gran w.wl_id

(** One symbolic address range of a weak-lock acquisition: inclusive
    bounds plus whether the guarded code {e writes} in the range. Two
    ranges conflict only if they overlap and at least one side writes —
    concurrent readers of the same data (water's [interf] reading all
    positions) must not serialize each other. *)
type warange = { wr_lo : exp; wr_hi : exp; wr_write : bool }

(** One weak-lock acquisition request: the lock plus the symbolic address
    ranges it protects (loop-locks). Range expressions are evaluated at
    region entry. The empty list means the lock protects everything it
    guards — equivalent to the range [-inf, +inf] in Figure 4 of the
    paper, conflicting with every other acquisition of the lock. *)
type weak_acq = { wa_lock : weak_lock; wa_ranges : warange list }

type stmt = { sid : int; skind : stmt_kind; sloc : loc }

and stmt_kind =
  | Assign of lval * exp
  | Call of lval option * call_target * exp list
  | Builtin of lval option * builtin * exp list
  | If of exp * block * block
  | While of exp * block * loop_info
  | Return of exp option
  | Break
  | Continue
  (* Inserted by the instrumenter: *)
  | WeakEnter of weak_acq list  (** acquire, in canonical order *)
  | WeakExit of weak_lock list  (** release *)

and call_target = Direct of string | ViaPtr of exp

(** Loop metadata kept from the surface syntax to aid the symbolic bounds
    analysis: if the loop came from a [for], we remember the induction
    pattern. [lid] is unique per program. *)
and loop_info = {
  lid : int;
  l_induction : induction option;
  l_step : stmt option;
      (** for-loops: the increment statement (also the last statement of
          the body); [continue] must execute it before re-testing *)
}

and induction = {
  iv_var : string;   (** induction variable *)
  iv_init : exp;     (** initial value *)
  iv_limit : exp;    (** loop condition is iv < limit (or <=, per strictness) *)
  iv_strict : bool;  (** true for <, false for <= *)
  iv_step : exp;     (** increment per iteration (added) *)
}

and block = stmt list

type var_decl = { v_name : string; v_ty : ty; v_loc : loc }

type fundec = {
  f_name : string;
  f_ret : ty;
  f_params : var_decl list;
  f_locals : var_decl list;
  f_body : block;
  f_loc : loc;
}

type struct_decl = {
  s_name : string;
  s_fields : (string * ty) list;
  s_loc : loc;
}

type global = {
  g_name : string;
  g_ty : ty;
  g_init : int list option;  (** flat cell initializer *)
  g_loc : loc;
}

type program = {
  p_structs : struct_decl list;
  p_globals : global list;
  p_funs : fundec list;
}

(* ------------------------------------------------------------------ *)
(* Helpers *)

let find_fun p name = List.find_opt (fun f -> String.equal f.f_name name) p.p_funs

let find_struct p name =
  List.find_opt (fun s -> String.equal s.s_name name) p.p_structs

let find_global p name =
  List.find_opt (fun g -> String.equal g.g_name name) p.p_globals

(** Size of a type in memory cells. Ints and pointers occupy one cell. *)
let rec sizeof structs = function
  | Tvoid -> 0
  | Tint | Tptr _ | Tfun _ -> 1
  | Tarray (t, n) -> n * sizeof structs t
  | Tstruct s -> (
      match List.find_opt (fun d -> String.equal d.s_name s) structs with
      | None -> Fmt.invalid_arg "sizeof: unknown struct %s" s
      | Some d ->
          List.fold_left (fun acc (_, t) -> acc + sizeof structs t) 0 d.s_fields)

(** Cell offset of a field within its struct. *)
let field_offset structs sname fname =
  match List.find_opt (fun d -> String.equal d.s_name sname) structs with
  | None -> Fmt.invalid_arg "field_offset: unknown struct %s" sname
  | Some d ->
      let rec go off = function
        | [] -> Fmt.invalid_arg "field_offset: no field %s in %s" fname sname
        | (f, t) :: rest ->
            if String.equal f fname then (off, t)
            else go (off + sizeof structs t) rest
      in
      go 0 d.s_fields

(** Iterate over every statement in a block, recursing into nested blocks. *)
let rec iter_stmts f (b : block) =
  List.iter
    (fun s ->
      f s;
      match s.skind with
      | If (_, b1, b2) ->
          iter_stmts f b1;
          iter_stmts f b2
      | While (_, body, _) -> iter_stmts f body
      | _ -> ())
    b

let iter_program_stmts f (p : program) =
  List.iter (fun fd -> iter_stmts f fd.f_body) p.p_funs

(** Map over every statement bottom-up (children first). *)
let rec map_stmts f (b : block) : block =
  List.map
    (fun s ->
      let skind =
        match s.skind with
        | If (e, b1, b2) -> If (e, map_stmts f b1, map_stmts f b2)
        | While (e, body, li) -> While (e, map_stmts f body, li)
        | k -> k
      in
      f { s with skind })
    b

(** Rewrite each statement into a list of statements, bottom-up. Used by the
    instrumenter to wrap statements in weak-lock regions. *)
let rec concat_map_stmts (f : stmt -> stmt list) (b : block) : block =
  List.concat_map
    (fun s ->
      let skind =
        match s.skind with
        | If (e, b1, b2) -> If (e, concat_map_stmts f b1, concat_map_stmts f b2)
        | While (e, body, li) -> While (e, concat_map_stmts f body, li)
        | k -> k
      in
      f { s with skind })
    b

(** All variables read by an expression. *)
let rec exp_vars = function
  | Const _ -> []
  | Lval lv | AddrOf lv -> lval_vars lv
  | Unop (_, e) -> exp_vars e
  | Binop (_, a, b) -> exp_vars a @ exp_vars b

and lval_vars = function
  | Var v -> [ v ]
  | Deref e -> exp_vars e
  | Index (lv, e) -> lval_vars lv @ exp_vars e
  | Field (lv, _) -> lval_vars lv
  | Arrow (e, _) -> exp_vars e

(** Statement-id and loop-id generators used by the parser and the
    instrumenter. A fresh program starts its counters after the highest id
    present, via {!Fresh.reset_from}.

    The counters are {e domain-local}: a parse or instrumentation pass runs
    entirely within one domain, and per-domain counters make the ids it
    assigns a function of the source alone — concurrent pipelines on other
    domains (see [Par.Pool]) cannot perturb them. With a single domain the
    behavior is identical to the former global counters. *)
module Fresh = struct
  let counters : (int ref * int ref) Domain.DLS.key =
    Domain.DLS.new_key (fun () -> (ref 0, ref 0))

  let sid () = fst (Domain.DLS.get counters)
  let lid () = snd (Domain.DLS.get counters)
  let next_sid () = let r = sid () in incr r; !r
  let next_lid () = let r = lid () in incr r; !r

  let reset () = sid () := 0; lid () := 0

  let reset_from (p : program) =
    let max_sid = ref 0 and max_lid = ref 0 in
    iter_program_stmts
      (fun s ->
        if s.sid > !max_sid then max_sid := s.sid;
        match s.skind with
        | While (_, _, li) -> if li.lid > !max_lid then max_lid := li.lid
        | _ -> ())
      p;
    sid () := !max_sid;
    lid () := !max_lid

  let stmt ?(loc = dummy_loc) skind = { sid = next_sid (); skind; sloc = loc }
end
