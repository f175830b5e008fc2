(** Tests for the MiniC front end: lexer, parser, pretty-printer
    roundtrip, typechecker, CFG/dominators/loops, call graph. *)

open Minic

let parse src = Typecheck.parse_and_check ~file:"test.mc" src

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "int x = 40 + 2; // comment\nx += 1;" in
  let kinds = List.map fst toks in
  Alcotest.(check int) "token count" 12 (List.length kinds);
  Alcotest.(check bool) "starts with int" true (List.hd kinds = Lexer.KW_INT)

let test_lexer_operators () =
  let toks = Lexer.tokenize "-> << >> == != <= >= && || ++ --" in
  let kinds = List.map fst toks in
  Alcotest.(check int) "11 operators + eof" 12 (List.length kinds);
  Alcotest.(check bool) "arrow first" true (List.hd kinds = Lexer.ARROW)

let test_lexer_comments () =
  let toks = Lexer.tokenize "/* multi \n line */ x // rest\n y" in
  Alcotest.(check int) "two idents + eof" 3 (List.length toks)

let test_lexer_line_numbers () =
  let toks = Lexer.tokenize "a\nb\n\nc" in
  let lines = List.map snd toks in
  Alcotest.(check (list int)) "line numbers" [ 1; 2; 4; 4 ] lines

let test_lexer_error () =
  Alcotest.check_raises "unexpected char"
    (Lexer.Lex_error ("unexpected character '@'", 1))
    (fun () -> ignore (Lexer.tokenize "@"))

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_minimal () =
  let p = parse "int main() { return 0; }" in
  Alcotest.(check int) "one function" 1 (List.length p.Ast.p_funs)

let test_parse_globals () =
  let p =
    parse
      "int g = 5; int arr[10]; int init[3] = {1, 2, 3};\nint main() { return g; }"
  in
  Alcotest.(check int) "three globals" 3 (List.length p.Ast.p_globals);
  let init = Option.get (Ast.find_global p "init") in
  Alcotest.(check (option (list int))) "initializer" (Some [ 1; 2; 3 ]) init.g_init

let test_parse_struct () =
  let p =
    parse
      {|struct pair { int a; int b; };
        struct pair g;
        int main() { g.a = 1; g.b = g.a + 2; return g.b; }|}
  in
  let s = Option.get (Ast.find_struct p "pair") in
  Alcotest.(check int) "two fields" 2 (List.length s.s_fields);
  Alcotest.(check int) "struct size" 2 (Ast.sizeof p.p_structs (Tstruct "pair"))

let test_parse_for_induction () =
  let p = parse "int main() { int i; int s; s = 0; for (i = 0; i < 10; i++) { s = s + i; } return s; }" in
  let main = Option.get (Ast.find_fun p "main") in
  let found = ref None in
  Ast.iter_stmts
    (fun s ->
      match s.skind with
      | While (_, _, li) -> found := li.l_induction
      | _ -> ())
    main.f_body;
  match !found with
  | Some ind ->
      Alcotest.(check string) "iv var" "i" ind.iv_var;
      Alcotest.(check bool) "strict" true ind.iv_strict
  | None -> Alcotest.fail "for loop lost its induction info"

let test_parse_fn_ptr () =
  let p =
    parse
      {|int twice(int x) { return x + x; }
        int main() { int (*fp)(int); int r; fp = twice; r = fp(21); return r; }|}
  in
  let main = Option.get (Ast.find_fun p "main") in
  (* the typechecker must rewrite fp(21) into a ViaPtr call *)
  let has_viaptr = ref false in
  Ast.iter_stmts
    (fun s ->
      match s.skind with
      | Call (_, ViaPtr _, _) -> has_viaptr := true
      | _ -> ())
    main.f_body;
  Alcotest.(check bool) "indirect call resolved" true !has_viaptr

let test_parse_precedence () =
  let p = parse "int main() { int x; x = 2 + 3 * 4; return x; }" in
  let main = Option.get (Ast.find_fun p "main") in
  let ok = ref false in
  Ast.iter_stmts
    (fun s ->
      match s.skind with
      | Assign (Var "x", Binop (Add, Const 2, Binop (Mul, Const 3, Const 4))) ->
          ok := true
      | _ -> ())
    main.f_body;
  Alcotest.(check bool) "mul binds tighter" true !ok

let test_parse_error_reports_line () =
  match Parser.parse ~file:"t" "int main() {\n  return 0\n}" with
  | exception Parser.Parse_error (_, line) ->
      Alcotest.(check int) "error line" 3 line
  | _ -> Alcotest.fail "expected parse error"

let test_unique_sids () =
  let src = (Bench_progs.Registry.by_name "radix").b_source ~workers:2 ~scale:2 in
  let p = Minic.Parser.parse src in
  let seen = Hashtbl.create 64 in
  Ast.iter_program_stmts
    (fun s ->
      Alcotest.(check bool)
        (Fmt.str "sid %d unique" s.sid)
        false (Hashtbl.mem seen s.sid);
      Hashtbl.replace seen s.sid ())
    p

(* ------------------------------------------------------------------ *)
(* Pretty-printer roundtrip *)

let roundtrip_ok src =
  let p1 = parse src in
  let printed = Pretty.program_to_string p1 in
  let p2 =
    try Typecheck.check (Parser.parse ~file:"printed" printed)
    with e ->
      Alcotest.failf "reparse failed: %s@.--- printed:@.%s" (Printexc.to_string e)
        printed
  in
  (* compare structure after erasing sids/locs *)
  let norm p = Pretty.program_to_string p in
  Alcotest.(check string) "print . parse . print stable" printed (norm p2)

let test_roundtrip_benchmarks () =
  List.iter
    (fun (b : Bench_progs.Registry.bench) ->
      roundtrip_ok (b.b_source ~workers:3 ~scale:2))
    Bench_progs.Registry.all

(* ------------------------------------------------------------------ *)
(* Typechecker *)

let test_typecheck_rejects_unbound () =
  match parse "int main() { x = 1; return 0; }" with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "unbound variable accepted"

let test_typecheck_rejects_bad_arity () =
  match
    parse "void f(int a, int b) { } int main() { f(1); return 0; }"
  with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "bad arity accepted"

let test_typecheck_rejects_missing_main () =
  match parse "int f() { return 1; }" with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "missing main accepted"

let test_typecheck_rejects_unknown_field () =
  match
    parse
      "struct s { int a; }; struct s g; int main() { g.b = 1; return 0; }"
  with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "unknown field accepted"

let test_typecheck_types () =
  let p =
    parse
      {|struct s { int a; int b; };
        struct s arr[4];
        int main() { int *p; p = &arr[1].b; return *p; }|}
  in
  let env = Typecheck.env_of_program p in
  let main = Option.get (Ast.find_fun p "main") in
  let fenv = Typecheck.fun_env env main in
  Alcotest.(check bool) "p : int*" true
    (Typecheck.type_of_lval fenv (Var "p") = Tptr Tint);
  Alcotest.(check int) "field offset b" 1
    (fst (Ast.field_offset p.p_structs "s" "b"))

(* [check] is the one gate the analyses rely on. Before it typed each
   lvalue itself, [*f] (a function) and [*s] (a struct) passed and the
   pointer analysis made up a type for them; a struct that contains
   itself by value passed, and [sizeof] then recursed without end; an
   assignment to a function passed and faulted at run time. *)
let rejects name ~line src =
  match parse src with
  | exception Typecheck.Type_error (_, loc) ->
      Alcotest.(check int) (name ^ ": error line") line loc.line
  | _ -> Alcotest.failf "%s: accepted" name

let test_typecheck_rejects_ill_typed () =
  rejects "*f of a function" ~line:3
    "int x;\nint f() { return 1; }\n\
     int main() { x = *f; output(x); return 0; }";
  rejects "*s of a struct" ~line:4
    "struct S { int a; };\nstruct S s;\nint x;\n\
     int main() { x = *s; output(x); return 0; }";
  rejects "struct that contains itself" ~line:1
    "struct S { int a; struct S s; };\nstruct S g;\n\
     int main() { output(1); return 0; }";
  rejects "structs that contain each other" ~line:2
    "struct A { int a; struct B b; };\nstruct B { int c; struct A a; };\n\
     int main() { output(1); return 0; }";
  rejects "array of the struct inside itself" ~line:1
    "struct S { int a; struct S arr[2]; };\n\
     int main() { output(1); return 0; }";
  rejects "by-value undeclared struct" ~line:1
    "struct nosuch s;\nint main() { output(1); return 0; }";
  rejects "by-value undeclared struct local" ~line:2
    "int main() {\n  struct nosuch s; output(1); return 0; }";
  rejects "assignment to a function" ~line:3
    "int f() { return 1; }\nint main() {\n  f = 3; output(1); return 0; }"

let test_typecheck_accepts_loose () =
  let accepts name src =
    match parse src with
    | _ -> ()
    | exception Typecheck.Type_error (m, _) ->
        Alcotest.failf "%s: rejected (%s)" name m
  in
  accepts "*i on an int"
    "int i; int x;\n\
     int main() { i = 0; x = 1; if (x == 0) { x = *i; } output(x); return 0; }";
  accepts "pointer to an undeclared struct"
    "struct nosuch *p;\nint main() { p = 0; output(1); return 0; }";
  accepts "break and continue inside a callee"
    "int f(int i) { if (i == 1) { continue; } if (i == 3) { break; }\n\
    \  output(i); return i; }\n\
     int main() { int i; for (i = 0; i < 10; i++) { f(i); } output(99);\n\
    \  return 0; }"

(* The invariant the analyses rely on instead of fallbacks: in a checked
   program every lvalue and expression of every function has a type in
   that function's environment, and every declared type and every
   lvalue's type has a size. Raises on a violation. *)
let typed_everywhere (p : Ast.program) =
  let env = Typecheck.env_of_program p in
  let size t = ignore (Ast.sizeof p.p_structs t) in
  List.iter (fun (g : Ast.global) -> size g.g_ty) p.p_globals;
  List.iter
    (fun (d : Ast.struct_decl) -> List.iter (fun (_, t) -> size t) d.s_fields)
    p.p_structs;
  List.iter
    (fun (f : Ast.fundec) ->
      let fenv = Typecheck.fun_env env f in
      List.iter
        (fun (v : Ast.var_decl) -> size v.v_ty)
        (f.f_params @ f.f_locals);
      let rec exp (e : Ast.exp) =
        ignore (Typecheck.type_of_exp fenv e);
        match e with
        | Const _ -> ()
        | Lval lv | AddrOf lv -> lval lv
        | Unop (_, e) -> exp e
        | Binop (_, a, b) -> exp a; exp b
      and lval (lv : Ast.lval) =
        size (Typecheck.type_of_lval fenv lv);
        match lv with
        | Var _ -> ()
        | Deref e | Arrow (e, _) -> exp e
        | Index (b, e) -> lval b; exp e
        | Field (b, _) -> lval b
      in
      Ast.iter_stmts
        (fun (s : Ast.stmt) ->
          match s.skind with
          | Assign (lv, e) -> lval lv; exp e
          | Call (ret, tgt, args) ->
              Option.iter lval ret;
              (match tgt with ViaPtr e -> exp e | Direct _ -> ());
              List.iter exp args
          | Builtin (ret, _, args) -> Option.iter lval ret; List.iter exp args
          | If (c, _, _) | While (c, _, _) | Return (Some c) -> exp c
          | Return None | Break | Continue | WeakEnter _ | WeakExit _ -> ())
        f.f_body)
    p.p_funs

let prop_typed_everywhere =
  QCheck.Test.make ~name:"typecheck: generated programs are typed everywhere"
    ~count:100
    (QCheck.oneof [ Proggen.arbitrary_program; Proggen.arbitrary_contended ])
    (fun src ->
      typed_everywhere (parse src);
      true)

(* the MiniC source literal {|...|} of each examples/*.ml that has one *)
let example_sources () =
  let dir =
    List.find_opt Sys.file_exists
      [ Filename.concat Filename.parent_dir_name "examples"; "examples" ]
  in
  let literal s =
    (* the index of [sub] in [s] at or after [from] *)
    let find sub from =
      let n = String.length sub in
      let rec go i =
        if i + n > String.length s then None
        else if String.sub s i n = sub then Some i
        else go (i + 1)
      in
      go from
    in
    match find "{|" 0 with
    | None -> None
    | Some i ->
        Option.map
          (fun j -> String.sub s (i + 2) (j - i - 2))
          (find "|}" (i + 2))
  in
  match dir with
  | None -> Alcotest.fail "examples/ not found"
  | Some dir ->
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".ml")
      |> List.filter_map (fun f ->
             literal
               (In_channel.with_open_bin (Filename.concat dir f)
                  In_channel.input_all))

let test_typed_everywhere_benches_examples () =
  List.iter
    (fun (b : Bench_progs.Registry.bench) ->
      typed_everywhere (parse (b.b_source ~workers:4 ~scale:b.b_eval_scale)))
    Bench_progs.Registry.all;
  let examples = example_sources () in
  Alcotest.(check int) "example sources" 3 (List.length examples);
  List.iter (fun src -> typed_everywhere (parse src)) examples

(* ------------------------------------------------------------------ *)
(* CFG *)

let cfg_of src fname =
  let p = parse src in
  Cfg.build (Option.get (Ast.find_fun p fname))

let test_cfg_linear () =
  let cfg = cfg_of "int main() { int x; x = 1; x = 2; return x; }" "main" in
  Alcotest.(check (list int)) "no loops" []
    (List.map fst (Cfg.loops cfg))

let test_cfg_loop_detected () =
  let cfg =
    cfg_of "int main() { int i; for (i = 0; i < 3; i++) { i = i; } return i; }"
      "main"
  in
  Alcotest.(check int) "one natural loop" 1 (List.length (Cfg.loops cfg))

let test_cfg_nested_loops () =
  let cfg =
    cfg_of
      {|int main() {
          int i; int j; int s; s = 0;
          for (i = 0; i < 3; i++) { for (j = 0; j < 3; j++) { s = s + 1; } }
          return s;
        }|}
      "main"
  in
  let loops = Cfg.loops cfg in
  Alcotest.(check int) "two natural loops" 2 (List.length loops);
  (* the outer loop body contains the inner loop's nodes *)
  let sizes = List.sort compare (List.map (fun (_, ns) -> List.length ns) loops) in
  Alcotest.(check bool) "outer strictly larger" true
    (List.nth sizes 0 < List.nth sizes 1)

let test_cfg_dominators () =
  let cfg =
    cfg_of
      {|int main() {
          int x; x = 0;
          if (x) { x = 1; } else { x = 2; }
          return x;
        }|}
      "main"
  in
  let doms = Cfg.idom cfg in
  (* entry dominates everything reachable *)
  Array.iteri
    (fun i d ->
      if d >= 0 then
        Alcotest.(check bool)
          (Fmt.str "entry dominates %d" i)
          true
          (Cfg.dominates doms cfg.c_entry i))
    doms

let test_cfg_break_exits_loop () =
  let cfg =
    cfg_of
      {|int main() {
          int i; i = 0;
          while (1) { i = i + 1; if (i > 3) { break; } }
          return i;
        }|}
      "main"
  in
  (* loop must still be found, and the exit node reachable *)
  Alcotest.(check int) "loop found" 1 (List.length (Cfg.loops cfg))

(* ------------------------------------------------------------------ *)
(* Call graph *)

let test_callgraph_direct () =
  let p =
    parse
      {|void a() { }
        void b() { a(); }
        int main() { b(); return 0; }|}
  in
  let cg = Callgraph.build p in
  Alcotest.(check (list string)) "main reaches all" [ "a"; "b"; "main" ]
    (Callgraph.reachable_from cg "main")

let test_callgraph_spawn_roots () =
  let p =
    parse
      {|void w(int *x) { *x = 1; }
        int main() { int v; int t; t = spawn(w, &v); join(t); return v; }|}
  in
  let cg = Callgraph.build p in
  Alcotest.(check (list string)) "roots" [ "main"; "w" ] cg.cg_roots;
  Alcotest.(check bool) "w spawned once" false
    (Callgraph.root_multiply_spawned cg "w")

let test_callgraph_multi_spawn () =
  let p =
    parse
      {|void w(int *x) { *x = 1; }
        int main() {
          int v; int i; int t;
          for (i = 0; i < 2; i++) { t = spawn(w, &v); }
          join(t);
          return v;
        }|}
  in
  let cg = Callgraph.build p in
  Alcotest.(check bool) "w spawned in loop" true
    (Callgraph.root_multiply_spawned cg "w")

let test_callgraph_bottom_up () =
  let p =
    parse
      {|void leaf() { }
        void mid() { leaf(); }
        int main() { mid(); return 0; }|}
  in
  let cg = Callgraph.build p in
  let order = Callgraph.bottom_up_order cg p in
  let pos f = Option.get (List.find_index (String.equal f) order) in
  Alcotest.(check bool) "leaf before mid" true (pos "leaf" < pos "mid");
  Alcotest.(check bool) "mid before main" true (pos "mid" < pos "main")

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "lexer: tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer: operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer: comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer: line numbers" `Quick test_lexer_line_numbers;
    Alcotest.test_case "lexer: error" `Quick test_lexer_error;
    Alcotest.test_case "parser: minimal" `Quick test_parse_minimal;
    Alcotest.test_case "parser: globals" `Quick test_parse_globals;
    Alcotest.test_case "parser: struct" `Quick test_parse_struct;
    Alcotest.test_case "parser: for induction" `Quick test_parse_for_induction;
    Alcotest.test_case "parser: fn pointer" `Quick test_parse_fn_ptr;
    Alcotest.test_case "parser: precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parser: error line" `Quick test_parse_error_reports_line;
    Alcotest.test_case "parser: unique sids" `Quick test_unique_sids;
    Alcotest.test_case "pretty: benchmark roundtrips" `Quick test_roundtrip_benchmarks;
    Alcotest.test_case "typecheck: unbound var" `Quick test_typecheck_rejects_unbound;
    Alcotest.test_case "typecheck: arity" `Quick test_typecheck_rejects_bad_arity;
    Alcotest.test_case "typecheck: missing main" `Quick test_typecheck_rejects_missing_main;
    Alcotest.test_case "typecheck: unknown field" `Quick test_typecheck_rejects_unknown_field;
    Alcotest.test_case "typecheck: types" `Quick test_typecheck_types;
    Alcotest.test_case "typecheck: rejects ill-typed lvalues and structs" `Quick
      test_typecheck_rejects_ill_typed;
    Alcotest.test_case "typecheck: accepts the loose cases" `Quick
      test_typecheck_accepts_loose;
    Alcotest.test_case "typecheck: benches and examples typed everywhere"
      `Quick test_typed_everywhere_benches_examples;
    QCheck_alcotest.to_alcotest ~rand:(Test_fuzz.rand ()) prop_typed_everywhere;
    Alcotest.test_case "cfg: linear" `Quick test_cfg_linear;
    Alcotest.test_case "cfg: loop detection" `Quick test_cfg_loop_detected;
    Alcotest.test_case "cfg: nested loops" `Quick test_cfg_nested_loops;
    Alcotest.test_case "cfg: dominators" `Quick test_cfg_dominators;
    Alcotest.test_case "cfg: break" `Quick test_cfg_break_exits_loop;
    Alcotest.test_case "callgraph: direct" `Quick test_callgraph_direct;
    Alcotest.test_case "callgraph: spawn roots" `Quick test_callgraph_spawn_roots;
    Alcotest.test_case "callgraph: multi spawn" `Quick test_callgraph_multi_spawn;
    Alcotest.test_case "callgraph: bottom-up order" `Quick test_callgraph_bottom_up;
  ]
