(** Symbolic address-bounds analysis for racy loops (Section 5 of the
    paper, after Rugina–Rinard).

    Given a loop containing statically-racy statements, derive for every
    memory access in those statements a symbolic address range
    [lo .. hi] whose symbols are loop-invariant, so the instrumenter can
    guard the whole loop with a single loop-lock protecting just that
    range (Figure 4: [WEAK-LOCK(&rank[0] to &rank[radix-1])]).

    The analysis is intraprocedural: a loop body containing a function
    call is rejected ([Has_call]), as in the paper (Section 5.3). Offsets
    must be affine in the induction variables of the enclosing loop nest
    with loop-invariant coefficients; anything else — indices loaded from
    memory (radix's [rank[my_key]]), modulo/bitwise arithmetic — yields
    [Non_affine]/[Unbounded], the paper's two sources of imprecision
    (Section 5.2). Bounds are obtained by Fourier–Motzkin projection of
    the induction variables (our lpsolve substitute). *)

open Minic.Ast

type reason =
  | Has_call       (** loop body calls a function: intraprocedural bail-out *)
  | No_induction   (** offset depends on a loop without a recognized IV *)
  | Non_affine     (** offset not affine (loaded index, modulo, ...) *)
  | Unbounded      (** FM projection produced no finite symbolic bound *)
  | Not_invariant  (** base pointer or bound symbol assigned in the loop *)

let pp_reason ppf r =
  Fmt.string ppf
    (match r with
    | Has_call -> "has-call"
    | No_induction -> "no-induction"
    | Non_affine -> "non-affine"
    | Unbounded -> "unbounded"
    | Not_invariant -> "not-invariant")

type result =
  | Precise of warange list
      (** address ranges (inclusive, with access mode), evaluable at loop
          entry *)
  | Imprecise of reason

exception Bail of reason

(* ------------------------------------------------------------------ *)

(* variables assigned anywhere in a block (including nested) *)
let assigned_vars (b : block) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  iter_stmts
    (fun s ->
      match s.skind with
      | Assign (Var v, _) -> Hashtbl.replace tbl v ()
      | Builtin (Some (Var v), _, _) | Call (Some (Var v), _, _) ->
          Hashtbl.replace tbl v ()
      | _ -> ())
    b;
  tbl

(* variables whose *value* an expression reads (a variable under a direct
   address-of is not read) *)
let rec value_reads (e : exp) : string list =
  match e with
  | Const _ -> []
  | Lval lv -> lval_value_reads lv
  | AddrOf (Var _) -> []
  | AddrOf lv -> lval_addr_reads lv
  | Unop (_, e) -> value_reads e
  | Binop (_, a, b) -> value_reads a @ value_reads b

and lval_value_reads = function
  | Var v -> [ v ]
  | Deref e -> value_reads e
  | Index (lv, e) -> lval_addr_reads lv @ value_reads e
  | Field (lv, _) -> lval_addr_reads lv
  | Arrow (e, _) -> value_reads e

(* reads needed to compute the *address* of an lvalue *)
and lval_addr_reads = function
  | Var _ -> []
  | Deref e -> value_reads e
  | Index (lv, e) -> lval_addr_reads lv @ value_reads e
  | Field (lv, _) -> lval_addr_reads lv
  | Arrow (e, _) -> value_reads e

(* ------------------------------------------------------------------ *)

type ctx = {
  fenv : Minic.Typecheck.env;
  structs : struct_decl list;
  ivs : (string, unit) Hashtbl.t;       (* induction variables *)
  assigned : (string, unit) Hashtbl.t;  (* vars assigned in the target loop *)
  allow_masks : bool;
      (* extension beyond the paper: [e & c] (c >= 0) lies in [0, c] for
         every two's-complement e, so it can be modeled as a fresh bounded
         variable; the paper leaves masks unsupported (Section 5.2) *)
  mutable fresh_bounded : (string * int) list;
      (* fresh mask variables with their upper bounds *)
  mutable fresh_count : int;
}

let is_iv ctx v = Hashtbl.mem ctx.ivs v
let is_invariant ctx v = not (Hashtbl.mem ctx.assigned v)

(** Affine view of an integer expression over IVs and invariant symbols. *)
let rec affine ctx (e : exp) : Linexp.t =
  match e with
  | Const n -> Linexp.const n
  | Lval (Var v) ->
      if is_iv ctx v then Linexp.var v
      else if is_invariant ctx v then Linexp.var v
      else raise (Bail Not_invariant)
  | Lval _ -> raise (Bail Non_affine) (* loaded from memory *)
  | AddrOf _ -> raise (Bail Non_affine)
  | Unop (Neg, e) -> Linexp.neg (affine ctx e)
  | Unop (_, _) -> raise (Bail Non_affine)
  | Binop (Add, a, b) -> Linexp.add (affine ctx a) (affine ctx b)
  | Binop (Sub, a, b) -> Linexp.sub (affine ctx a) (affine ctx b)
  | Binop (Mul, a, b) -> (
      match Linexp.mul (affine ctx a) (affine ctx b) with
      | Some r -> r
      | None -> raise (Bail Non_affine))
  | Binop (BAnd, a, b) when ctx.allow_masks -> (
      (* mask extension: e & c is in [0, c] regardless of e *)
      let const_side =
        match (a, b) with
        | _, Const c when c >= 0 -> Some c
        | Const c, _ when c >= 0 -> Some c
        | _ -> None
      in
      match const_side with
      | Some c ->
          ctx.fresh_count <- ctx.fresh_count + 1;
          let v = Fmt.str "$mask%d" ctx.fresh_count in
          ctx.fresh_bounded <- (v, c) :: ctx.fresh_bounded;
          Hashtbl.replace ctx.ivs v ();
          Linexp.var v
      | None -> raise (Bail Non_affine))
  | Binop ((Div | Mod | BAnd | BOr | BXor | Shl | Shr), _, _) ->
      (* unsupported arithmetic: the paper's second imprecision source *)
      raise (Bail Non_affine)
  | Binop (_, _, _) -> raise (Bail Non_affine)

(* An expression that can serve as a runtime-evaluable base pointer at loop
   entry: all its value reads must be invariant. *)
let check_base_invariant ctx (e : exp) =
  List.iter
    (fun v -> if not (is_invariant ctx v) then raise (Bail Not_invariant))
    (value_reads e)

(** Decompose the address of [lv] into (base expression, affine cell
    offset). Pointer arithmetic in MiniC is cell-granular; [Index] scales
    by element size. *)
let rec addr_of_lval ctx (lv : lval) : exp * Linexp.t =
  match lv with
  | Var _ -> (AddrOf lv, Linexp.zero)
  | Field (base, f) ->
      let bexp, off = addr_of_lval ctx base in
      let sname =
        match Minic.Typecheck.type_of_lval ctx.fenv base with
        | Tstruct s -> s
        | _ -> raise (Bail Non_affine)
      in
      let foff, _ = Minic.Ast.field_offset ctx.structs sname f in
      (bexp, Linexp.add off (Linexp.const foff))
  | Arrow (e, f) ->
      check_base_invariant ctx e;
      let sname =
        match Minic.Typecheck.type_of_exp ctx.fenv e with
        | Tptr (Tstruct s) -> s
        | _ -> raise (Bail Non_affine)
      in
      let foff, _ = Minic.Ast.field_offset ctx.structs sname f in
      (e, Linexp.const foff)
  | Index (base, idx) ->
      let elem =
        match Minic.Typecheck.type_of_lval ctx.fenv base with
        | Tarray (t, _) | Tptr t -> Minic.Ast.sizeof ctx.structs t
        | _ -> 1
      in
      let scaled = Linexp.scale elem (affine ctx idx) in
      let base_is_array =
        match Minic.Typecheck.type_of_lval ctx.fenv base with
        | Tarray _ -> true
        | _ -> false
      in
      if base_is_array then begin
        let bexp, off = addr_of_lval ctx base in
        (bexp, Linexp.add off scaled)
      end
      else begin
        (* pointer base: address = value of base + idx*elem *)
        let bexp = Lval base in
        check_base_invariant ctx bexp;
        (bexp, scaled)
      end
  | Deref e -> decompose_ptr_exp ctx e

(* split a pointer-valued expression into invariant base + affine offset *)
and decompose_ptr_exp ctx (e : exp) : exp * Linexp.t =
  match e with
  | Binop (Add, a, b) -> (
      match exp_is_pointer ctx a, exp_is_pointer ctx b with
      | true, false ->
          let base, off = decompose_ptr_exp ctx a in
          (base, Linexp.add off (affine ctx b))
      | false, true ->
          let base, off = decompose_ptr_exp ctx b in
          (base, Linexp.add off (affine ctx a))
      | _ -> raise (Bail Non_affine))
  | Binop (Sub, a, b) when exp_is_pointer ctx a && not (exp_is_pointer ctx b)
    ->
      let base, off = decompose_ptr_exp ctx a in
      (base, Linexp.sub off (affine ctx b))
  | AddrOf lv -> addr_of_lval ctx lv
  | Lval _ ->
      check_base_invariant ctx e;
      (e, Linexp.zero)
  | _ -> raise (Bail Non_affine)

and exp_is_pointer ctx (e : exp) : bool =
  match Minic.Typecheck.type_of_exp ctx.fenv e with
  | Tptr _ | Tarray _ -> true
  | Tvoid | Tint | Tstruct _ | Tfun _ -> false

(* ------------------------------------------------------------------ *)

(* memory-access lvalues in a statement worth protecting, tagged with
   their access mode; reads of plain locals that never have their address
   taken are skipped (they cannot race) *)
let accesses_of_stmt ~(addr_taken : string -> bool) ~(is_local : string -> bool)
    (s : stmt) : (lval * bool) list =
  let acc = ref [] in
  let keep ~write lv =
    match lv with
    | Var v when is_local v && not (addr_taken v) -> ()
    | _ -> acc := (lv, write) :: !acc
  in
  let rec scan_exp = function
    | Const _ -> ()
    | Lval lv -> scan_lval_read lv
    | AddrOf lv -> scan_lval_addr lv
    | Unop (_, e) -> scan_exp e
    | Binop (_, a, b) -> scan_exp a; scan_exp b
  and scan_lval_read lv =
    keep ~write:false lv;
    scan_lval_addr lv
  and scan_lval_addr = function
    | Var _ -> ()
    | Deref e -> scan_exp e
    | Index (lv, e) -> scan_lval_addr lv; scan_exp e
    | Field (lv, _) -> scan_lval_addr lv
    | Arrow (e, _) -> scan_exp e
  in
  (match s.skind with
  | Assign (lv, e) ->
      keep ~write:true lv;
      scan_lval_addr lv;
      scan_exp e
  | Call (ret, _, args) | Builtin (ret, _, args) ->
      Option.iter (fun lv -> keep ~write:true lv; scan_lval_addr lv) ret;
      List.iter scan_exp args
  | If (e, _, _) | While (e, _, _) -> scan_exp e
  | Return (Some e) -> scan_exp e
  | _ -> ());
  !acc

(* address-taken locals of a function *)
let addr_taken_locals (fd : fundec) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  let rec scan_exp = function
    | AddrOf (Var v) -> Hashtbl.replace tbl v ()
    | AddrOf lv -> scan_lval lv
    | Lval lv -> scan_lval lv
    | Unop (_, e) -> scan_exp e
    | Binop (_, a, b) -> scan_exp a; scan_exp b
    | Const _ -> ()
  and scan_lval = function
    | Var _ -> ()
    | Deref e -> scan_exp e
    | Index (lv, e) -> scan_lval lv; scan_exp e
    | Field (lv, _) -> scan_lval lv
    | Arrow (e, _) -> scan_exp e
  in
  iter_stmts
    (fun s ->
      match s.skind with
      | Assign (lv, e) -> scan_lval lv; scan_exp e
      | Call (ret, _, args) | Builtin (ret, _, args) ->
          Option.iter scan_lval ret;
          List.iter scan_exp args
      | If (e, _, _) | While (e, _, _) -> scan_exp e
      | Return (Some e) -> scan_exp e
      | _ -> ())
    fd.f_body;
  tbl

(** Analyze a loop nest inside [fd]: [enclosing] is the full chain of
    [While] statements from outermost to the one directly containing the
    racy statements; [target_idx] selects the loop to be guarded (the
    instrumenter tries 0 — the outermost — first, per Section 5.3).

    Address ranges must be evaluable at the {e target} loop's entry:
    symbols are variables not assigned inside the target loop's body
    (induction variables of {e outer} loops are ordinary symbols — they
    are fixed while the target loop runs); induction variables of the
    target loop and of loops nested inside it are eliminated by
    Fourier–Motzkin using their induction constraints.

    Returns [Precise ranges] with deduplicated [(lo, hi)] MiniC address
    expressions for all memory accesses of [racy_sids], or
    [Imprecise reason]. *)
let analyze_loop (p : program) (fd : fundec) ?(target_idx = 0)
    ?(allow_masks = false) ~(enclosing : stmt list) ~(racy_sids : int list) ()
    : result =
  if enclosing = [] then invalid_arg "analyze_loop: empty loop nest";
  if target_idx < 0 || target_idx >= List.length enclosing then
    invalid_arg "analyze_loop: bad target index";
  let target = List.nth enclosing target_idx in
  (* loops from the target inward: their IVs get eliminated *)
  let inner_chain = List.filteri (fun i _ -> i >= target_idx) enclosing in
  let target_body =
    match target.skind with
    | While (_, b, _) -> b
    | _ -> invalid_arg "analyze_loop: target is not a loop"
  in
  try
    (* Intraprocedural only: no calls in the guarded loop. Builtins count
       as calls — in the paper's C they are pthread/libc functions — and
       a loop-lock held across a blocking operation would invite the
       weak-lock timeouts the paper never observes. *)
    iter_stmts
      (fun s ->
        match s.skind with
        | Call _ | Builtin _ -> raise (Bail Has_call)
        | _ -> ())
      target_body;
    let tenv = Minic.Typecheck.env_of_program p in
    let fenv = Minic.Typecheck.fun_env tenv fd in
    let assigned = assigned_vars target_body in
    let ivs = Hashtbl.create 4 in
    List.iter
      (fun (ls : stmt) ->
        match ls.skind with
        | While (_, _, { l_induction = Some ind; _ }) ->
            Hashtbl.replace ivs ind.iv_var ();
            Hashtbl.replace assigned ind.iv_var ()
        | _ -> ())
      inner_chain;
    let ctx =
      {
        fenv;
        structs = p.p_structs;
        ivs;
        assigned;
        allow_masks;
        fresh_bounded = [];
        fresh_count = 0;
      }
    in
    (* Mask extension, variable form: a local whose every assignment in the
       body is [... & c] (and which is written before it is read) always
       holds a value in [0, c] at its uses — treat it as a bounded
       variable to eliminate. This covers Figure 4's
       [my_key = key_from[j] & bb; rank[my_key]++] pattern. *)
    let mask_vars : (string * int) list =
      if not allow_masks then []
      else begin
        let bound : (string, int option) Hashtbl.t = Hashtbl.create 4 in
        iter_stmts
          (fun st ->
            match st.skind with
            | Assign (Var v, e) ->
                let b =
                  match e with
                  | Binop (BAnd, _, Const c) when c >= 0 -> Some c
                  | Binop (BAnd, Const c, _) when c >= 0 -> Some c
                  | _ -> None
                in
                let cur =
                  Option.value (Hashtbl.find_opt bound v) ~default:(Some (-1))
                in
                Hashtbl.replace bound v
                  (match (cur, b) with
                  | Some c0, Some c -> Some (max c0 c)
                  | _ -> None)
            | _ -> ())
          target_body;
        (* written-before-read, in pre-order *)
        let disqualified = Hashtbl.create 4 in
        let written = Hashtbl.create 4 in
        iter_stmts
          (fun st ->
            let reads =
              match st.skind with
              | Assign (_, e) -> value_reads e
              | Call (_, _, args) | Builtin (_, _, args) ->
                  List.concat_map value_reads args
              | If (e, _, _) | While (e, _, _) -> value_reads e
              | Return (Some e) -> value_reads e
              | _ -> []
            in
            List.iter
              (fun v ->
                if not (Hashtbl.mem written v) then
                  Hashtbl.replace disqualified v ())
              reads;
            match st.skind with
            | Assign (Var v, _) -> Hashtbl.replace written v ()
            | _ -> ())
          target_body;
        Hashtbl.fold
          (fun v b acc ->
            match b with
            | Some c when c >= 0 && not (Hashtbl.mem disqualified v) ->
                (v, c) :: acc
            | _ -> acc)
          bound []
      end
    in
    List.iter
      (fun (v, _) ->
        Hashtbl.replace ivs v ();
        Hashtbl.replace assigned v ())
      mask_vars;
    (* build the IV constraint system for the target-and-inner loops *)
    let constraints = ref [] in
    List.iter
      (fun (ls : stmt) ->
        match ls.skind with
        | While (_, _, { l_induction = Some ind; _ }) ->
            let iv = Linexp.var ind.iv_var in
            let init = affine ctx ind.iv_init in
            let limit = affine ctx ind.iv_limit in
            let step =
              match Linexp.const_value (affine ctx ind.iv_step) with
              | Some s -> s
              | None -> raise (Bail Non_affine)
            in
            if step > 0 then begin
              (* init <= iv <= limit - (strict ? 1 : 0) *)
              constraints := Linexp.sub iv init :: !constraints;
              let hi =
                if ind.iv_strict then Linexp.sub limit (Linexp.const 1)
                else limit
              in
              constraints := Linexp.sub hi iv :: !constraints
            end
            else if step < 0 then begin
              (* counting down (the surface parser only produces upward
                 inductions today, but keep the symmetric case) *)
              constraints := Linexp.sub init iv :: !constraints;
              let lo =
                if ind.iv_strict then Linexp.add limit (Linexp.const 1)
                else limit
              in
              constraints := Linexp.sub iv lo :: !constraints
            end
            else raise (Bail Non_affine)
        | _ -> ())
      inner_chain;
    (* bounded mask variables join the constraint system directly *)
    List.iter
      (fun (v, c) ->
        constraints := Linexp.var v :: !constraints;
        constraints := Linexp.sub (Linexp.const c) (Linexp.var v) :: !constraints)
      mask_vars;
    let iv_names = List.of_seq (Hashtbl.to_seq_keys ivs) in
        (* collect accesses of racy statements inside the target loop *)
        let is_local v =
          List.exists (fun d -> d.v_name = v) fd.f_locals
          || List.exists (fun d -> d.v_name = v) fd.f_params
        in
        let taken = addr_taken_locals fd in
        let accs = ref [] in
        iter_stmts
          (fun s ->
            if List.mem s.sid racy_sids then
              accs :=
                accesses_of_stmt
                  ~addr_taken:(Hashtbl.mem taken)
                  ~is_local s
                @ !accs)
          target_body;
        if !accs = [] then Precise []
        else begin
          let ranges =
            List.map
              (fun (lv, write) ->
                ctx.fresh_bounded <- [];
                let base, off = addr_of_lval ctx lv in
                check_base_invariant ctx base;
                (* if the offset mentions an IV without bounds we must
                   fail *)
                let needs_elim =
                  List.filter (fun v -> Hashtbl.mem ivs v) (Linexp.symbols off)
                in
                List.iter
                  (fun v ->
                    if not (List.exists (fun c -> Linexp.coeff_of v c <> 0) !constraints)
                    then raise (Bail No_induction))
                  needs_elim;
                (* any non-IV symbol in the offset must be invariant *)
                List.iter
                  (fun v ->
                    if (not (Hashtbl.mem ivs v)) && not (is_invariant ctx v)
                    then raise (Bail Not_invariant))
                  (Linexp.symbols off);
                let mask_constraints =
                  List.concat_map
                    (fun (v, c) ->
                      [ Linexp.var v; Linexp.sub (Linexp.const c) (Linexp.var v) ])
                    ctx.fresh_bounded
                in
                let elim = iv_names @ List.map fst ctx.fresh_bounded in
                let lowers, uppers =
                  Fm.bounds_of ~elim (mask_constraints @ !constraints) off
                in
                match (lowers, uppers) with
                | lo :: _, hi :: _ ->
                    let add_base l =
                      match Linexp.const_value l with
                      | Some 0 -> base
                      | _ -> Binop (Add, base, Linexp.to_exp l)
                    in
                    { wr_lo = add_base lo; wr_hi = add_base hi; wr_write = write }
                | _ -> raise (Bail Unbounded))
              !accs
          in
          (* structural dedup; a write range subsumes an equal read range *)
          let ranges = List.sort_uniq compare ranges in
          let ranges =
            List.filter
              (fun r ->
                r.wr_write
                || not
                     (List.exists
                        (fun r' ->
                          r'.wr_write && r'.wr_lo = r.wr_lo && r'.wr_hi = r.wr_hi)
                        ranges))
              ranges
          in
      Precise ranges
    end
  with Bail r -> Imprecise r
