(** Recursive-descent parser for MiniC.

    The grammar is a C subset: struct declarations, global variables,
    function definitions, local declarations (hoisted to the function, C89
    style, but allowed at the head of any block), structured statements
    ([if]/[while]/[for]/[return]/[break]/[continue]), assignments,
    compound assignment ([+=], [-=], [++], [--]), and calls. [for] loops
    are lowered to [while] but their induction pattern is preserved in
    {!Ast.loop_info} for the symbolic bounds analysis. *)

open Ast

exception Parse_error of string * int

type cursor = {
  mutable toks : (Lexer.token * int) list;
  file : string;
}

let err cur msg =
  let line = match cur.toks with (_, l) :: _ -> l | [] -> 0 in
  raise (Parse_error (msg, line))

let peek cur = match cur.toks with (t, _) :: _ -> t | [] -> Lexer.EOF
let peek2 cur = match cur.toks with _ :: (t, _) :: _ -> t | _ -> Lexer.EOF
let peek3 cur = match cur.toks with _ :: _ :: (t, _) :: _ -> t | _ -> Lexer.EOF
let cur_line cur = match cur.toks with (_, l) :: _ -> l | [] -> 0
let cur_loc cur = { file = cur.file; line = cur_line cur }

let advance cur =
  match cur.toks with
  | _ :: rest -> cur.toks <- rest
  | [] -> ()

let eat cur t =
  if peek cur = t then advance cur
  else
    err cur
      (Fmt.str "expected %a but found %a" Lexer.pp_token t Lexer.pp_token
         (peek cur))

let eat_ident cur =
  match peek cur with
  | Lexer.IDENT s -> advance cur; s
  | t -> err cur (Fmt.str "expected identifier, found %a" Lexer.pp_token t)

let eat_int cur =
  match peek cur with
  | Lexer.INT n -> advance cur; n
  | t -> err cur (Fmt.str "expected integer, found %a" Lexer.pp_token t)

(* ------------------------------------------------------------------ *)
(* Types and declarators *)

let is_type_start cur =
  match peek cur with
  | Lexer.KW_INT | Lexer.KW_VOID -> true
  | Lexer.KW_STRUCT -> (
      (* "struct S {" is a declaration; "struct S x" is a type use. Both
         start a type; the program-level parser disambiguates. *)
      match peek2 cur with Lexer.IDENT _ -> true | _ -> false)
  | _ -> false

let parse_base_ty cur =
  match peek cur with
  | Lexer.KW_INT -> advance cur; Tint
  | Lexer.KW_VOID -> advance cur; Tvoid
  | Lexer.KW_STRUCT ->
      advance cur;
      let name = eat_ident cur in
      Tstruct name
  | t -> err cur (Fmt.str "expected type, found %a" Lexer.pp_token t)

let rec parse_stars cur ty =
  if peek cur = Lexer.STAR then (advance cur; parse_stars cur (Tptr ty)) else ty

(** Parse a declarator after the base type: either a plain
    [name\[n\]\[m\]...] or a function-pointer [( * name)(ty, ...)] form.
    Returns (name, type). *)
let parse_declarator cur base =
  if peek cur = Lexer.LPAREN && peek2 cur = Lexer.STAR then begin
    (* function pointer: base ( * name)(args) *)
    eat cur Lexer.LPAREN;
    eat cur Lexer.STAR;
    let name = eat_ident cur in
    eat cur Lexer.RPAREN;
    eat cur Lexer.LPAREN;
    let args = ref [] in
    if peek cur <> Lexer.RPAREN then begin
      let rec loop () =
        let t = parse_stars cur (parse_base_ty cur) in
        (* parameter name in a prototype position is optional *)
        (match peek cur with Lexer.IDENT _ -> advance cur | _ -> ());
        args := t :: !args;
        if peek cur = Lexer.COMMA then (advance cur; loop ())
      in
      loop ()
    end;
    eat cur Lexer.RPAREN;
    (name, Tptr (Tfun (base, List.rev !args)))
  end
  else begin
    let name = eat_ident cur in
    let rec dims acc =
      if peek cur = Lexer.LBRACKET then begin
        advance cur;
        let n = eat_int cur in
        eat cur Lexer.RBRACKET;
        dims (n :: acc)
      end
      else acc
    in
    let ds = dims [] in
    (* int a[2][3] is array of 2 arrays of 3: fold outermost-last *)
    let ty = List.fold_left (fun t n -> Tarray (t, n)) base ds in
    (name, ty)
  end

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec parse_exp cur = parse_binop cur 0

and binop_of_token = function
  | Lexer.OROR -> Some (LOr, 1)
  | Lexer.ANDAND -> Some (LAnd, 2)
  | Lexer.PIPE -> Some (BOr, 3)
  | Lexer.CARET -> Some (BXor, 4)
  | Lexer.AMP -> Some (BAnd, 5)
  | Lexer.EQEQ -> Some (Eq, 6)
  | Lexer.NEQ -> Some (Ne, 6)
  | Lexer.LT -> Some (Lt, 7)
  | Lexer.LE -> Some (Le, 7)
  | Lexer.GT -> Some (Gt, 7)
  | Lexer.GE -> Some (Ge, 7)
  | Lexer.SHL -> Some (Shl, 8)
  | Lexer.SHR -> Some (Shr, 8)
  | Lexer.PLUS -> Some (Add, 9)
  | Lexer.MINUS -> Some (Sub, 9)
  | Lexer.STAR -> Some (Mul, 10)
  | Lexer.SLASH -> Some (Div, 10)
  | Lexer.PERCENT -> Some (Mod, 10)
  | _ -> None

and parse_binop cur min_prec =
  let lhs = ref (parse_unary cur) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (peek cur) with
    | Some (op, prec) when prec >= min_prec ->
        advance cur;
        let rhs = parse_binop cur (prec + 1) in
        lhs := Binop (op, !lhs, rhs)
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary cur =
  match peek cur with
  | Lexer.MINUS -> advance cur; Unop (Neg, parse_unary cur)
  | Lexer.BANG -> advance cur; Unop (LNot, parse_unary cur)
  | Lexer.TILDE -> advance cur; Unop (BNot, parse_unary cur)
  | Lexer.STAR ->
      advance cur;
      let e = parse_unary cur in
      Lval (Deref e)
  | Lexer.AMP ->
      advance cur;
      let e = parse_unary cur in
      (match e with
      | Lval lv -> AddrOf lv
      | _ -> err cur "& applied to a non-lvalue")
  | _ -> parse_postfix cur

and parse_postfix cur =
  let e = ref (parse_primary cur) in
  let continue_ = ref true in
  while !continue_ do
    match peek cur with
    | Lexer.LBRACKET ->
        advance cur;
        let idx = parse_exp cur in
        eat cur Lexer.RBRACKET;
        (match !e with
        | Lval lv -> e := Lval (Index (lv, idx))
        | _ -> err cur "indexing a non-lvalue")
    | Lexer.DOT ->
        advance cur;
        let f = eat_ident cur in
        (match !e with
        | Lval lv -> e := Lval (Field (lv, f))
        | _ -> err cur ". applied to a non-lvalue")
    | Lexer.ARROW ->
        advance cur;
        let f = eat_ident cur in
        e := Lval (Arrow (!e, f))
    | _ -> continue_ := false
  done;
  !e

and parse_primary cur =
  match peek cur with
  | Lexer.INT n -> advance cur; Const n
  | Lexer.IDENT v -> advance cur; Lval (Var v)
  | Lexer.LPAREN ->
      advance cur;
      let e = parse_exp cur in
      eat cur Lexer.RPAREN;
      e
  | t -> err cur (Fmt.str "unexpected token %a in expression" Lexer.pp_token t)

(* ------------------------------------------------------------------ *)
(* Statements *)

let as_lval cur = function
  | Lval lv -> lv
  | _ -> err cur "expected an lvalue"

let parse_args cur =
  eat cur Lexer.LPAREN;
  let args = ref [] in
  if peek cur <> Lexer.RPAREN then begin
    let rec loop () =
      args := parse_exp cur :: !args;
      if peek cur = Lexer.COMMA then (advance cur; loop ())
    in
    loop ()
  end;
  eat cur Lexer.RPAREN;
  List.rev !args

(** Make the call statement-kind for target name [f]: builtins are
    recognized by name, everything else is a direct call (the typechecker
    rewrites direct calls through function-pointer variables into
    [ViaPtr]). *)
let mk_call ret f args =
  match builtin_of_name f with
  | Some b -> Builtin (ret, b, args)
  | None -> Call (ret, Direct f, args)

(** A "simple" statement: assignment, compound assignment, or call.
    Does not consume the trailing semicolon. *)
let parse_simple cur : stmt_kind =
  let loc_is_call =
    match (peek cur, peek2 cur) with
    | Lexer.IDENT _, Lexer.LPAREN -> true
    | _ -> false
  in
  if loc_is_call then begin
    let f = eat_ident cur in
    let args = parse_args cur in
    mk_call None f args
  end
  else if peek cur = Lexer.LPAREN && peek2 cur = Lexer.STAR then begin
    (* function-pointer call statement *)
    eat cur Lexer.LPAREN;
    eat cur Lexer.STAR;
    let e = parse_exp cur in
    eat cur Lexer.RPAREN;
    let args = parse_args cur in
    Call (None, ViaPtr e, args)
  end
  else begin
    let lhs_e = parse_unary cur in
    let lhs = as_lval cur lhs_e in
    match peek cur with
    | Lexer.EQ -> (
        advance cur;
        (* rhs: call or expression *)
        match (peek cur, peek2 cur) with
        | Lexer.IDENT f, Lexer.LPAREN ->
            advance cur;
            let args = parse_args cur in
            mk_call (Some lhs) f args
        | Lexer.LPAREN, Lexer.STAR -> (
            (* Could be a function-pointer call or a parenthesized deref
               expression; decide by trying the call shape and
               backtracking otherwise. *)
            let saved = cur.toks in
            eat cur Lexer.LPAREN;
            eat cur Lexer.STAR;
            let e = parse_exp cur in
            if peek cur = Lexer.RPAREN && peek2 cur = Lexer.LPAREN then begin
              eat cur Lexer.RPAREN;
              let args = parse_args cur in
              Call (Some lhs, ViaPtr e, args)
            end
            else begin
              cur.toks <- saved;
              let rhs = parse_exp cur in
              Assign (lhs, rhs)
            end)
        | _ ->
            let rhs = parse_exp cur in
            Assign (lhs, rhs))
    | Lexer.PLUSEQ ->
        advance cur;
        let rhs = parse_exp cur in
        Assign (lhs, Binop (Add, Lval lhs, rhs))
    | Lexer.MINUSEQ ->
        advance cur;
        let rhs = parse_exp cur in
        Assign (lhs, Binop (Sub, Lval lhs, rhs))
    | Lexer.PLUSPLUS ->
        advance cur;
        Assign (lhs, Binop (Add, Lval lhs, Const 1))
    | Lexer.MINUSMINUS ->
        advance cur;
        Assign (lhs, Binop (Sub, Lval lhs, Const 1))
    | t -> err cur (Fmt.str "unexpected token %a in statement" Lexer.pp_token t)
  end

(** Recognize the induction pattern of a [for] loop:
    [for (i = init; i < limit; i += step)] (or [<=], [i++]). *)
let induction_of_for (init : stmt_kind option) (cond : exp option)
    (step : stmt_kind option) : induction option =
  match (init, cond, step) with
  | ( Some (Assign (Var i1, init_e)),
      Some (Binop (((Lt | Le) as cmp), Lval (Var i2), limit)),
      Some (Assign (Var i3, Binop (Add, Lval (Var i4), step_e))) )
    when i1 = i2 && i2 = i3 && i3 = i4 ->
      Some
        {
          iv_var = i1;
          iv_init = init_e;
          iv_limit = limit;
          iv_strict = (cmp = Lt);
          iv_step = step_e;
        }
  | _ -> None

let rec parse_stmt cur (locals : var_decl list ref) : stmt list =
  let loc = cur_loc cur in
  let mk skind = { sid = Fresh.next_sid (); skind; sloc = loc } in
  match peek cur with
  | Lexer.SEMI -> advance cur; []
  | Lexer.LBRACE ->
      (* naked block: flatten *)
      parse_block cur locals
  | Lexer.KW_IF ->
      advance cur;
      eat cur Lexer.LPAREN;
      let c = parse_exp cur in
      eat cur Lexer.RPAREN;
      let then_b = parse_stmt_or_block cur locals in
      let else_b =
        if peek cur = Lexer.KW_ELSE then (advance cur; parse_stmt_or_block cur locals)
        else []
      in
      [ mk (If (c, then_b, else_b)) ]
  | Lexer.KW_WHILE ->
      advance cur;
      eat cur Lexer.LPAREN;
      let c = parse_exp cur in
      eat cur Lexer.RPAREN;
      let body = parse_stmt_or_block cur locals in
      [ mk (While (c, body, { lid = Fresh.next_lid (); l_induction = None; l_step = None })) ]
  | Lexer.KW_FOR ->
      advance cur;
      eat cur Lexer.LPAREN;
      let init =
        if peek cur = Lexer.SEMI then None else Some (parse_simple cur)
      in
      eat cur Lexer.SEMI;
      let cond = if peek cur = Lexer.SEMI then None else Some (parse_exp cur) in
      eat cur Lexer.SEMI;
      let step =
        if peek cur = Lexer.RPAREN then None else Some (parse_simple cur)
      in
      eat cur Lexer.RPAREN;
      let body = parse_stmt_or_block cur locals in
      let ind = induction_of_for init cond step in
      let cond_e = Option.value cond ~default:(Const 1) in
      let step_stmt = Option.map mk step in
      let body_with_step =
        match step_stmt with None -> body | Some st -> body @ [ st ]
      in
      let while_s =
        mk
          (While
             ( cond_e,
               body_with_step,
               { lid = Fresh.next_lid (); l_induction = ind; l_step = step_stmt } ))
      in
      (match init with None -> [ while_s ] | Some sk -> [ mk sk; while_s ])
  | Lexer.KW_RETURN ->
      advance cur;
      let e = if peek cur = Lexer.SEMI then None else Some (parse_exp cur) in
      eat cur Lexer.SEMI;
      [ mk (Return e) ]
  | Lexer.KW_BREAK ->
      advance cur; eat cur Lexer.SEMI; [ mk Break ]
  | Lexer.KW_CONTINUE ->
      advance cur; eat cur Lexer.SEMI; [ mk Continue ]
  | _ when is_type_start cur ->
      (* local declaration, possibly with initializer *)
      let base = parse_stars cur (parse_base_ty cur) in
      let rec decls acc =
        let name, ty = parse_declarator cur base in
        locals := { v_name = name; v_ty = ty; v_loc = loc } :: !locals;
        let acc =
          if peek cur = Lexer.EQ then begin
            advance cur;
            match (peek cur, peek2 cur) with
            | Lexer.IDENT f, Lexer.LPAREN ->
                advance cur;
                let args = parse_args cur in
                mk (mk_call (Some (Var name)) f args) :: acc
            | _ ->
                let e = parse_exp cur in
                mk (Assign (Var name, e)) :: acc
          end
          else acc
        in
        if peek cur = Lexer.COMMA then (advance cur; decls acc) else acc
      in
      let stmts = decls [] in
      eat cur Lexer.SEMI;
      List.rev stmts
  | _ ->
      let sk = parse_simple cur in
      eat cur Lexer.SEMI;
      [ mk sk ]

and parse_stmt_or_block cur locals : block =
  if peek cur = Lexer.LBRACE then parse_block cur locals
  else parse_stmt cur locals

and parse_block cur locals : block =
  eat cur Lexer.LBRACE;
  let stmts = ref [] in
  while peek cur <> Lexer.RBRACE do
    stmts := !stmts @ parse_stmt cur locals
  done;
  eat cur Lexer.RBRACE;
  !stmts

(* ------------------------------------------------------------------ *)
(* Top level *)

let parse_struct_decl cur : struct_decl =
  let loc = cur_loc cur in
  eat cur Lexer.KW_STRUCT;
  let name = eat_ident cur in
  eat cur Lexer.LBRACE;
  let fields = ref [] in
  while peek cur <> Lexer.RBRACE do
    let base = parse_stars cur (parse_base_ty cur) in
    let fname, fty = parse_declarator cur base in
    fields := (fname, fty) :: !fields;
    eat cur Lexer.SEMI
  done;
  eat cur Lexer.RBRACE;
  eat cur Lexer.SEMI;
  { s_name = name; s_fields = List.rev !fields; s_loc = loc }

let parse_params cur : var_decl list =
  eat cur Lexer.LPAREN;
  let ps = ref [] in
  if peek cur = Lexer.KW_VOID && peek2 cur = Lexer.RPAREN then advance cur
  else if peek cur <> Lexer.RPAREN then begin
    let rec loop () =
      let loc = cur_loc cur in
      let base = parse_stars cur (parse_base_ty cur) in
      let name, ty = parse_declarator cur base in
      ps := { v_name = name; v_ty = ty; v_loc = loc } :: !ps;
      if peek cur = Lexer.COMMA then (advance cur; loop ())
    in
    loop ()
  end;
  eat cur Lexer.RPAREN;
  List.rev !ps

let parse_init cur : int list =
  if peek cur = Lexer.LBRACE then begin
    advance cur;
    let vals = ref [] in
    if peek cur <> Lexer.RBRACE then begin
      let rec loop () =
        let neg = peek cur = Lexer.MINUS in
        if neg then advance cur;
        let n = eat_int cur in
        vals := (if neg then -n else n) :: !vals;
        if peek cur = Lexer.COMMA then (advance cur; loop ())
      in
      loop ()
    end;
    eat cur Lexer.RBRACE;
    List.rev !vals
  end
  else begin
    let neg = peek cur = Lexer.MINUS in
    if neg then advance cur;
    let n = eat_int cur in
    [ (if neg then -n else n) ]
  end

(** Parse a complete program. Statement and loop ids are assigned from the
    global {!Ast.Fresh} counters, which this function resets. *)
let parse ?(file = "<string>") (src : string) : program =
  Fresh.reset ();
  let cur = { toks = Lexer.tokenize src; file } in
  let structs = ref [] in
  let globals = ref [] in
  let funs = ref [] in
  while peek cur <> Lexer.EOF do
    if peek cur = Lexer.KW_STRUCT && peek3 cur = Lexer.LBRACE then
      structs := parse_struct_decl cur :: !structs
    else begin
      let loc = cur_loc cur in
      let base = parse_stars cur (parse_base_ty cur) in
      let name, ty = parse_declarator cur base in
      if peek cur = Lexer.LPAREN then begin
        (* function definition *)
        let params = parse_params cur in
        let locals = ref [] in
        let body = parse_block cur locals in
        funs :=
          {
            f_name = name;
            f_ret = ty;
            f_params = params;
            f_locals = List.rev !locals;
            f_body = body;
            f_loc = loc;
          }
          :: !funs
      end
      else begin
        let init =
          if peek cur = Lexer.EQ then (advance cur; Some (parse_init cur))
          else None
        in
        eat cur Lexer.SEMI;
        globals := { g_name = name; g_ty = ty; g_init = init; g_loc = loc } :: !globals
      end
    end
  done;
  {
    p_structs = List.rev !structs;
    p_globals = List.rev !globals;
    p_funs = List.rev !funs;
  }
