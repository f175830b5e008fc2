(** Tests for the pointer-analysis substrate: Steensgaard, Andersen, the
    query layer, and the relative precision property (Andersen's
    inclusion-based points-to sets refine Steensgaard's unification-based
    ones). *)

module A = Pointer.Absloc
module Aset = Pointer.Absloc.Set

let parse src = Minic.Typecheck.parse_and_check ~file:"test.mc" src

let run src = Pointer.Analysis.run (parse src)

let names set = List.map A.to_string (Aset.elements set) |> List.sort compare

let test_addr_of_global () =
  let pa =
    run
      {|int g;
        int *p;
        int main() { p = &g; return *p; }|}
  in
  Alcotest.(check (list string)) "p -> {g}" [ "g" ]
    (names (Pointer.Analysis.points_to pa (A.AGlobal "p")))

let test_copy_chain () =
  let pa =
    run
      {|int g;
        int *p; int *q; int *r;
        int main() { p = &g; q = p; r = q; return *r; }|}
  in
  Alcotest.(check (list string)) "r -> {g}" [ "g" ]
    (names (Pointer.Analysis.points_to pa (A.AGlobal "r")))

let test_store_load () =
  let pa =
    run
      {|int g;
        int *p; int **pp; int *q;
        int main() { p = &g; pp = &p; q = *pp; return *q; }|}
  in
  Alcotest.(check (list string)) "q -> {g} via load" [ "g" ]
    (names (Pointer.Analysis.points_to pa (A.AGlobal "q")))

let test_malloc_site () =
  let pa =
    run
      {|int *p;
        int main() { p = malloc(4); *p = 1; return *p; }|}
  in
  let pts = Pointer.Analysis.points_to pa (A.AGlobal "p") in
  Alcotest.(check bool) "p -> heap site" true
    (Aset.exists (function A.AHeap _ -> true | _ -> false) pts)

let test_param_binding () =
  let pa =
    run
      {|int g;
        void f(int *x) { *x = 1; }
        int main() { f(&g); return g; }|}
  in
  Alcotest.(check (list string)) "param x -> {g}" [ "g" ]
    (names (Pointer.Analysis.points_to pa (A.ALocal ("f", "x"))))

let test_andersen_more_precise_than_steensgaard () =
  (* two disjoint pointer chains: Steensgaard merges when flowed through a
     common variable; Andersen keeps them apart in the first chain *)
  let src =
    {|int a; int b;
      int *p; int *q; int *r;
      int main() { p = &a; q = &b; r = q; return *p + *r; }|}
  in
  let p = parse src in
  let cs = Pointer.Constr.gen p in
  let and_ = Pointer.Andersen.solve cs in
  let st = Pointer.Steensgaard.solve cs in
  let a_p = Pointer.Andersen.points_to and_ (A.AGlobal "p") in
  let s_p = Pointer.Steensgaard.points_to st (A.AGlobal "p") in
  Alcotest.(check bool) "andersen p = {a}" true
    (Aset.equal (Aset.filter A.is_memory a_p) (Aset.singleton (A.AGlobal "a")));
  Alcotest.(check bool) "andersen subset of steensgaard" true
    (Aset.subset (Aset.filter A.is_memory a_p) (Aset.filter A.is_memory s_p))

(* property: on every benchmark, for every global pointer, Andersen's
   points-to set is contained in Steensgaard's *)
let test_refinement_on_benchmarks () =
  List.iter
    (fun (b : Bench_progs.Registry.bench) ->
      let p = Minic.Parser.parse (b.b_source ~workers:2 ~scale:2) in
      let cs = Pointer.Constr.gen p in
      let and_ = Pointer.Andersen.solve cs in
      let st = Pointer.Steensgaard.solve cs in
      List.iter
        (fun (g : Minic.Ast.global) ->
          let l = A.AGlobal g.g_name in
          let a = Aset.filter A.is_memory (Pointer.Andersen.points_to and_ l) in
          let s = Aset.filter A.is_memory (Pointer.Steensgaard.points_to st l) in
          Alcotest.(check bool)
            (Fmt.str "%s: andersen(%s) within steensgaard" b.b_name g.g_name)
            true (Aset.subset a s))
        p.p_globals)
    Bench_progs.Registry.all

let test_funptr_resolution () =
  let pa =
    run
      {|int inc(int x) { return x + 1; }
        int dec(int x) { return x - 1; }
        int main() {
          int (*fp)(int); int r;
          fp = inc;
          r = fp(1);
          return r;
        }|}
  in
  Alcotest.(check (list string)) "fp resolves to inc" [ "inc" ]
    (Pointer.Analysis.resolve_funptr pa "main" (Lval (Var "fp")))

let test_lval_objects_array () =
  let pa =
    run
      {|int arr[8];
        int main() { int i; i = 3; arr[i] = 1; return arr[0]; }|}
  in
  Alcotest.(check (list string)) "arr[i] touches arr" [ "arr" ]
    (names
       (Pointer.Analysis.lval_objects pa "main"
          (Index (Var "arr", Lval (Var "i")))))

let test_lval_objects_deref () =
  let pa =
    run
      {|int g; int h;
        int *p;
        int main() { int c; c = input(); if (c) { p = &g; } else { p = &h; } *p = 1; return 0; }|}
  in
  Alcotest.(check (list string)) "*p touches {g,h}" [ "g"; "h" ]
    (names (Pointer.Analysis.lval_objects pa "main" (Deref (Lval (Var "p")))))

let test_lock_must_alias () =
  let pa =
    run
      {|int m;
        int main() { lock(&m); unlock(&m); return 0; }|}
  in
  Alcotest.(check (option string)) "lock(&m) resolves uniquely"
    (Some "m")
    (Option.map A.to_string
       (Pointer.Analysis.lock_objects pa "main" (AddrOf (Var "m"))));
  (* an ambiguous lock pointer must resolve to None (lockset soundness) *)
  let pa2 =
    run
      {|int m1; int m2;
        int *lp;
        int main() { int c; c = input(); if (c) { lp = &m1; } else { lp = &m2; } lock(lp); unlock(lp); return 0; }|}
  in
  Alcotest.(check (option string)) "ambiguous lock -> None" None
    (Option.map A.to_string
       (Pointer.Analysis.lock_objects pa2 "main" (Lval (Var "lp"))))

let test_field_insensitivity () =
  (* the documented conservative choice: struct fields share one object *)
  let pa =
    run
      {|struct s { int a; int b; };
        struct s g;
        int *p; int *q;
        int main() { p = &g.a; q = &g.b; return *p + *q; }|}
  in
  let pp = Pointer.Analysis.points_to pa (A.AGlobal "p") in
  let pq = Pointer.Analysis.points_to pa (A.AGlobal "q") in
  Alcotest.(check bool) "fields alias" false (Aset.is_empty (Aset.inter pp pq))

let suite =
  [
    Alcotest.test_case "addr-of global" `Quick test_addr_of_global;
    Alcotest.test_case "copy chain" `Quick test_copy_chain;
    Alcotest.test_case "store/load" `Quick test_store_load;
    Alcotest.test_case "malloc site" `Quick test_malloc_site;
    Alcotest.test_case "param binding" `Quick test_param_binding;
    Alcotest.test_case "andersen refines steensgaard" `Quick
      test_andersen_more_precise_than_steensgaard;
    Alcotest.test_case "refinement on all benchmarks" `Slow
      test_refinement_on_benchmarks;
    Alcotest.test_case "function pointer resolution" `Quick test_funptr_resolution;
    Alcotest.test_case "lval objects: array" `Quick test_lval_objects_array;
    Alcotest.test_case "lval objects: deref" `Quick test_lval_objects_deref;
    Alcotest.test_case "lock must-alias" `Quick test_lock_must_alias;
    Alcotest.test_case "field insensitivity" `Quick test_field_insensitivity;
  ]
