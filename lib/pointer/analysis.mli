(** Combined pointer-analysis driver and query interface, mirroring
    RELAY's use of pointer analysis (paper Section 6.2): Andersen
    resolves function pointers with an on-the-fly fixpoint and answers
    the object and aliasing queries. *)

type t = {
  prog : Minic.Ast.program;
  tenv : Minic.Typecheck.env;
  andersen : Andersen.t;
}

(** Run the analysis, iterating constraint generation and function-pointer
    resolution to a fixpoint (at most 4 refinement rounds). *)
val run : Minic.Ast.program -> t

(** Andersen points-to set, restricted to memory locations and
    functions. *)
val points_to : t -> Absloc.t -> Absloc.Set.t

(** The abstract location of variable [v] as seen from function
    [fname]. *)
val var_loc : t -> string -> string -> Absloc.t

(** Objects a read/write of the lvalue (evaluated in the named function)
    may touch — RELAY's overestimated shared-object sets. *)
val lval_objects : t -> string -> Minic.Ast.lval -> Absloc.Set.t

(** Pointer values an expression can evaluate to (lock arguments, spawn
    args). *)
val exp_objects : t -> string -> Minic.Ast.exp -> Absloc.Set.t

(** The lock object denoted by a [lock(e)] argument, only when it
    resolves to a single must-alias object (locksets must
    under-approximate to stay sound). *)
val lock_objects : t -> string -> Minic.Ast.exp -> Absloc.t option

(** Candidate targets of an indirect call through the expression. *)
val resolve_funptr : t -> string -> Minic.Ast.exp -> string list

(** Call graph built with pointer-based resolution of indirect calls. *)
val callgraph : t -> Minic.Callgraph.t
