(** Type resolution and checking for MiniC.

    Responsibilities:
    - build symbol tables (structs, globals, functions, per-function locals);
    - compute the type of every expression and lvalue (used by the
      interpreter for index scaling and field offsets, and by the
      analyses for abstract-location resolution);
    - rewrite direct calls through function-pointer variables into
      [ViaPtr] calls;
    - reject programs with unbound identifiers, ill-typed lvalues
      (dereference of a function or a struct, unknown fields),
      assignments to a function, arity mismatches on direct calls, and
      structs that have no finite size.

    {!check} is the one gate: in a program it accepts, {!type_of_lval}
    and {!type_of_exp} succeed at every lvalue and expression of every
    function (in its {!fun_env}), and [Ast.sizeof] is finite at every
    declared type and every lvalue's type. The analyses rely on this and
    carry no fallback of their own.

    Checking is deliberately C-flavoured loose about int/pointer mixing in
    arithmetic (the benchmarks use pointer arithmetic, which is also the
    documented unsoundness corner of RELAY, Section 3.2 of the paper). *)

open Ast

exception Type_error of string * loc

let terr loc fmt = Fmt.kstr (fun m -> raise (Type_error (m, loc))) fmt

type env = {
  prog : program;
  structs : (string, struct_decl) Hashtbl.t;
  globals : (string, ty) Hashtbl.t;
  funs : (string, fundec) Hashtbl.t;
  locals : (string, ty) Hashtbl.t;  (** params + locals of current function *)
  fname : string;                   (** current function *)
}

let base_env (p : program) =
  let structs = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace structs s.s_name s) p.p_structs;
  let globals = Hashtbl.create 64 in
  List.iter (fun g -> Hashtbl.replace globals g.g_name g.g_ty) p.p_globals;
  let funs = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace funs f.f_name f) p.p_funs;
  { prog = p; structs; globals; funs; locals = Hashtbl.create 16; fname = "" }

(** Environment for the body of [f]. *)
let fun_env (base : env) (f : fundec) =
  let locals = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace locals v.v_name v.v_ty) f.f_params;
  List.iter (fun v -> Hashtbl.replace locals v.v_name v.v_ty) f.f_locals;
  { base with locals; fname = f.f_name }

let env_of_program p = base_env p

let lookup_var env v : ty option =
  match Hashtbl.find_opt env.locals v with
  | Some t -> Some t
  | None -> (
      match Hashtbl.find_opt env.globals v with
      | Some t -> Some t
      | None -> (
          match Hashtbl.find_opt env.funs v with
          | Some f ->
              Some (Tfun (f.f_ret, List.map (fun p -> p.v_ty) f.f_params))
          | None -> None))

let rec type_of_lval env (lv : lval) : ty =
  match lv with
  | Var v -> (
      match lookup_var env v with
      | Some t -> t
      | None -> terr dummy_loc "unbound variable %s in %s" v env.fname)
  | Deref e -> (
      match type_of_exp env e with
      | Tptr t -> t
      | Tarray (t, _) -> t
      | Tint -> Tint (* int treated as address of int cells; loose *)
      | t -> terr dummy_loc "dereference of non-pointer (%a)" pp_ty t)
  | Index (base, _) -> (
      match type_of_lval env base with
      | Tarray (t, _) -> t
      | Tptr t -> t
      | t -> terr dummy_loc "indexing non-array (%a)" pp_ty t)
  | Field (base, f) -> (
      match type_of_lval env base with
      | Tstruct s -> field_ty env s f
      | t -> terr dummy_loc "field access on non-struct (%a)" pp_ty t)
  | Arrow (e, f) -> (
      match type_of_exp env e with
      | Tptr (Tstruct s) -> field_ty env s f
      | t -> terr dummy_loc "-> on non-struct-pointer (%a)" pp_ty t)

and field_ty env sname f =
  match Hashtbl.find_opt env.structs sname with
  | None -> terr dummy_loc "unknown struct %s" sname
  | Some d -> (
      match List.assoc_opt f d.s_fields with
      | Some t -> t
      | None -> terr dummy_loc "struct %s has no field %s" sname f)

and type_of_exp env (e : exp) : ty =
  match e with
  | Const _ -> Tint
  | Lval lv -> (
      match type_of_lval env lv with
      (* arrays decay to pointers in expression position *)
      | Tarray (t, _) -> Tptr t
      | t -> t)
  | AddrOf lv -> (
      match type_of_lval env lv with
      | Tfun _ as t -> Tptr t
      | t -> Tptr t)
  | Unop (_, e) -> type_of_exp env e
  | Binop (op, a, b) -> (
      match op with
      | Eq | Ne | Lt | Le | Gt | Ge | LAnd | LOr -> Tint
      | Add | Sub -> (
          match (type_of_exp env a, type_of_exp env b) with
          | (Tptr _ as t), _ -> t
          | _, (Tptr _ as t) -> t
          | _ -> Tint)
      | _ -> Tint)

(* ------------------------------------------------------------------ *)
(* Checking and call rewriting *)

(* the struct a value of type [t] holds by value, through any arrays *)
let rec value_struct = function
  | Tstruct s -> Some s
  | Tarray (t, _) -> value_struct t
  | Tvoid | Tint | Tptr _ | Tfun _ -> None

(* [t] has a size: a struct it holds by value is declared. Once
   [check_structs] has passed, [sizeof] is then finite at [t]. *)
let sized env loc t =
  match value_struct t with
  | Some s when not (Hashtbl.mem env.structs s) ->
      terr loc "struct %s is used by value but never declared" s
  | _ -> ()

(* Reject a struct declared twice, and a struct that contains itself by
   value: directly, through another struct or through an array. *)
let check_structs env =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen d.s_name then
        terr d.s_loc "duplicate struct %s" d.s_name;
      Hashtbl.replace seen d.s_name ())
    env.prog.p_structs;
  let finished = Hashtbl.create 16 in
  (* [path] holds the structs whose fields are being visited *)
  let rec visit path d =
    if not (Hashtbl.mem finished d.s_name) then begin
      List.iter
        (fun (_, t) ->
          sized env d.s_loc t;
          match value_struct t with
          | Some s when List.mem s path ->
              terr d.s_loc "struct %s contains itself by value (%s)" s
                (String.concat " > " (List.rev (s :: path)))
          | Some s -> visit (s :: path) (Hashtbl.find env.structs s)
          | None -> ())
        d.s_fields;
      Hashtbl.replace finished d.s_name ()
    end
  in
  List.iter (fun d -> visit [ d.s_name ] d) env.prog.p_structs

(* a type error of [f] reported at the statement's [loc] *)
let at loc f =
  try f () with Type_error (m, _) -> raise (Type_error (m, loc))

let rec check_exp env loc (e : exp) : unit =
  match e with
  | Const _ -> ()
  | Lval lv | AddrOf lv -> ignore (check_lval env loc lv)
  | Unop (_, e) -> check_exp env loc e
  | Binop (_, a, b) -> check_exp env loc a; check_exp env loc b

(* every subterm, then the lvalue itself, whose type it returns:
   [type_of_exp] does not type the operands of a comparison, so the
   recursion is what reaches them *)
and check_lval env loc (lv : lval) : ty =
  (match lv with
  | Var _ -> ()
  | Deref e | Arrow (e, _) -> check_exp env loc e
  | Index (b, e) -> ignore (check_lval env loc b); check_exp env loc e
  | Field (b, _) -> ignore (check_lval env loc b));
  let t = at loc (fun () -> type_of_lval env lv) in
  sized env loc t;
  t

(* the target of an assignment or a call's result: a function is no
   storage *)
let check_target env loc lv =
  match check_lval env loc lv with
  | Tfun _ as t -> terr loc "assignment to a function of type %a" pp_ty t
  | _ -> ()

let builtin_arity = function
  | Spawn -> (2, true) | Join -> (1, false)
  | MutexLock | MutexUnlock -> (1, false)
  | BarrierInit -> (2, false) | BarrierWait -> (1, false)
  | CondWait -> (2, false) | CondSignal | CondBroadcast -> (1, false)
  | Input -> (0, true) | Output -> (1, false)
  | NetRead | FileRead -> (2, true)
  | Malloc -> (1, true) | Free -> (1, false)
  | Yield -> (0, false) | Exit -> (1, false)

let check_stmt env (s : stmt) : stmt =
  let loc = s.sloc in
  let skind =
    match s.skind with
    | Assign (lv, e) ->
        check_target env loc lv; check_exp env loc e; s.skind
    | Call (ret, Direct f, args) -> (
        Option.iter (check_target env loc) ret;
        List.iter (check_exp env loc) args;
        match Hashtbl.find_opt env.funs f with
        | Some fd ->
            if List.length fd.f_params <> List.length args then
              terr loc "call to %s: expected %d args, got %d" f
                (List.length fd.f_params) (List.length args);
            s.skind
        | None -> (
            (* a call through a function-pointer variable *)
            match lookup_var env f with
            | Some (Tptr (Tfun _)) -> Call (ret, ViaPtr (Lval (Var f)), args)
            | Some t ->
                terr loc "call of %s which has non-function type %a" f pp_ty t
            | None -> terr loc "call to undefined function %s" f))
    | Call (ret, ViaPtr e, args) ->
        Option.iter (check_target env loc) ret;
        check_exp env loc e;
        List.iter (check_exp env loc) args;
        s.skind
    | Builtin (ret, b, args) ->
        Option.iter (check_target env loc) ret;
        List.iter (check_exp env loc) args;
        let arity, has_ret = builtin_arity b in
        if List.length args <> arity then
          terr loc "%s expects %d args, got %d" (builtin_name b) arity
            (List.length args);
        if ret <> None && not has_ret then
          terr loc "%s returns no value" (builtin_name b);
        (* spawn's first argument must denote a function *)
        (match (b, args) with
        | Spawn, f :: _ -> (
            match f with
            | Lval (Var name) | AddrOf (Var name) -> (
                match lookup_var env name with
                | Some (Tfun _) | Some (Tptr (Tfun _)) -> ()
                | _ -> terr loc "spawn of non-function %s" name)
            | _ -> () (* computed target; resolved by pointer analysis *))
        | _ -> ());
        s.skind
    | If (c, _, _) -> check_exp env loc c; s.skind
    | While (c, _, _) -> check_exp env loc c; s.skind
    | Return (Some e) -> check_exp env loc e; s.skind
    | Return None | Break | Continue | WeakEnter _ | WeakExit _ -> s.skind
  in
  { s with skind }

(** Check a program and return it with function-pointer calls resolved to
    [ViaPtr]. Raises {!Type_error}. *)
let check (p : program) : program =
  let base = base_env p in
  (* duplicate detection *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (f : fundec) ->
      if Hashtbl.mem seen f.f_name then
        terr f.f_loc "duplicate function %s" f.f_name;
      Hashtbl.replace seen f.f_name ())
    p.p_funs;
  List.iter
    (fun (g : global) ->
      if Hashtbl.mem seen g.g_name then
        terr g.g_loc "global %s collides with another toplevel name" g.g_name;
      Hashtbl.replace seen g.g_name ())
    p.p_globals;
  if not (Hashtbl.mem base.funs "main") then
    terr dummy_loc "program has no main function";
  check_structs base;
  List.iter (fun (g : global) -> sized base g.g_loc g.g_ty) p.p_globals;
  let funs =
    List.map
      (fun f ->
        let env = fun_env base f in
        (* locals must not shadow each other *)
        let lseen = Hashtbl.create 16 in
        List.iter
          (fun v ->
            if Hashtbl.mem lseen v.v_name then
              terr v.v_loc "duplicate local %s in %s" v.v_name f.f_name;
            Hashtbl.replace lseen v.v_name ();
            sized env v.v_loc v.v_ty)
          (f.f_params @ f.f_locals);
        { f with f_body = map_stmts (check_stmt env) f.f_body })
      p.p_funs
  in
  { p with p_funs = funs }

(** [parse_and_check src] is the front-end entry point used throughout the
    project. *)
let parse_and_check ?file src = check (Parser.parse ?file src)
