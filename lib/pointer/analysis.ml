(** Combined pointer-analysis driver and query interface.

    Mirrors RELAY's use of pointer analysis (Section 6.2 of the paper):
    Andersen's inclusion-based analysis resolves function pointers (with
    an on-the-fly fixpoint: resolving targets can add constraints that
    reveal more targets) and answers the object and aliasing queries.
    ({!Steensgaard} stays as the coarser reference Andersen is tested
    against.) Queries used downstream:

    - {!lval_objects}: the abstract objects an lvalue access may touch —
      RELAY's overestimated shared-object sets;
    - {!lock_objects}: the abstract lock a [lock(&m)] argument denotes,
      kept only when it resolves to exactly one object (must-alias), which
      is the sound direction for locksets (underestimate);
    - {!resolve_funptr}: candidate targets of an indirect call/spawn. *)

open Minic.Ast
module A = Absloc

type t = { prog : program; tenv : Minic.Typecheck.env; andersen : Andersen.t }

let rec run (p : program) : t =
  let tenv = Minic.Typecheck.env_of_program p in
  (* round 0: syntactic resolution *)
  let resolve0 _ e =
    match Minic.Callgraph.syntactic_targets p e with
    | Some ts -> ts
    | None -> Minic.Callgraph.address_taken_funs p
  in
  let constraints = Constr.gen ~resolve:resolve0 p in
  let andersen = Andersen.solve constraints in
  (* refinement rounds: use current solution to resolve pointers *)
  let fixpoint = ref { prog = p; tenv; andersen } in
  let changed = ref true in
  let round = ref 0 in
  while !changed && !round < 4 do
    incr round;
    changed := false;
    let cur = !fixpoint in
    let resolve fname e =
      let ts = resolve_funptr cur fname e in
      if ts = [] then resolve0 fname e else ts
    in
    let constraints' = Constr.gen ~resolve p in
    let andersen' = Andersen.solve constraints' in
    (* detect change in fn-ptr knowledge by comparing AFun points-to *)
    let funs_of st =
      Hashtbl.fold
        (fun k r acc ->
          A.Set.fold
            (fun l acc -> match l with A.AFun f -> (k, f) :: acc | _ -> acc)
            !r acc)
        st.Andersen.pts []
      |> List.sort_uniq compare
    in
    if funs_of andersen' <> funs_of cur.andersen then changed := true;
    fixpoint := { prog = p; tenv; andersen = andersen' }
  done;
  !fixpoint

(** Andersen points-to set of an abstract location, restricted to
    memory locations and functions. *)
and points_to (t : t) (l : A.t) : A.Set.t =
  let s = Andersen.points_to t.andersen l in
  A.Set.filter (fun l -> A.is_memory l || match l with A.AFun _ -> true | _ -> false) s

and var_loc (t : t) (fname : string) (v : string) : A.t =
  Constr.var_loc t.prog fname v

(* the values read from the objects [objs]: their points-to sets *)
and contents (t : t) (objs : A.Set.t) : A.Set.t =
  A.Set.fold (fun o acc -> A.Set.union (points_to t o) acc) objs A.Set.empty

(* the typing environment of function [fname]'s body *)
and fun_env (t : t) (fname : string) : Minic.Typecheck.env =
  Minic.Typecheck.fun_env t.tenv (Hashtbl.find t.tenv.funs fname)

(** Objects that reading/writing lvalue [lv] (evaluated in [fname]) may
    touch. *)
and lval_objects (t : t) (fname : string) (lv : lval) : A.Set.t =
  let fenv = fun_env t fname in
  let rec go lv =
    match lv with
    | Var v -> A.Set.singleton (var_loc t fname v)
    | Deref e -> ptr_values e
    | Index (base, _) ->
        if Constr.decays fenv base then go base
        else
          (* p[i] = *(p+i): the contents of p *)
          contents t (go base)
    | Field (base, _) -> go base
    | Arrow (e, _) -> ptr_values e
  and ptr_values (e : exp) : A.Set.t =
    match e with
    | Const _ -> A.Set.empty
    | AddrOf lv -> go lv
    | Lval lv ->
        if Constr.decays fenv lv then go lv else contents t (go lv)
    | Unop (_, e) -> ptr_values e
    | Binop (_, a, b) -> A.Set.union (ptr_values a) (ptr_values b)
  in
  A.Set.filter A.is_memory (go lv)

(** Pointer values an expression can evaluate to (used to resolve lock
    arguments and spawn args). *)
and exp_objects (t : t) (fname : string) (e : exp) : A.Set.t =
  match e with
  | AddrOf lv -> lval_objects t fname lv
  | Lval lv ->
      (* a decaying lvalue's value is the object's address *)
      if Constr.decays (fun_env t fname) lv then lval_objects t fname lv
      else contents t (lval_objects t fname lv)
  | Unop (_, e) -> exp_objects t fname e
  | Binop (_, a, b) -> A.Set.union (exp_objects t fname a) (exp_objects t fname b)
  | Const _ -> A.Set.empty

(** The lock object denoted by a [lock(e)] argument, if it resolves to a
    single must-alias object. Locksets must underestimate to stay sound. *)
and lock_objects (t : t) (fname : string) (e : exp) : A.t option =
  let objs = A.Set.filter A.is_memory (exp_objects t fname e) in
  match A.Set.elements objs with [ l ] -> Some l | _ -> None

(** Candidate function targets of an indirect call through [e]. *)
and resolve_funptr (t : t) (fname : string) (e : exp) : string list =
  match Minic.Callgraph.syntactic_targets t.prog e with
  | Some ts -> ts
  | None ->
      let vals =
        match e with
        | Lval lv -> contents t (lval_objects t fname lv)
        | _ -> exp_objects t fname e
      in
      A.Set.fold
        (fun l acc -> match l with A.AFun f -> f :: acc | _ -> acc)
        vals []
      |> List.sort_uniq compare

(** Call graph built with pointer-based resolution of indirect calls. *)
let callgraph (t : t) : Minic.Callgraph.t =
  Minic.Callgraph.build ~resolve:(resolve_funptr t) t.prog
