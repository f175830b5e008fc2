(** Inclusion-constraint generation from MiniC programs.

    The four classic constraint forms over abstract locations; nested
    lvalues are normalized with fresh temporaries. Field- and element-
    insensitive, and pointer arithmetic preserves the pointed-to object —
    the conservative assumptions RELAY inherits (paper Sections 3.2/5.1)
    and the source of imprecision Chimera's bounds analysis compensates
    for. *)

type t =
  | Addr of Absloc.t * Absloc.t   (** pts(d) ⊇ \{a\} *)
  | Copy of Absloc.t * Absloc.t   (** pts(d) ⊇ pts(s) *)
  | Load of Absloc.t * Absloc.t   (** pts(d) ⊇ pts(o) for o ∈ pts(s) *)
  | Store of Absloc.t * Absloc.t  (** pts(o) ⊇ pts(s) for o ∈ pts(d) *)

val pp : t Fmt.t

(** The abstract location of variable [v] as seen from function [fname]
    ([var_loc prog fname v]): a local or parameter of the function, a
    global, or a function constant. *)
val var_loc : Minic.Ast.program -> string -> string -> Absloc.t

(** Whether the lvalue, typed in its function's environment, names an
    array or a function: in expression position it stands for its own
    address, and indexing it stays within it. Both halves of the
    analysis (constraint generation and {!Analysis}'s queries) ask this
    one question. The program must have passed
    {!Minic.Typecheck.check}. *)
val decays : Minic.Typecheck.env -> Minic.Ast.lval -> bool

(** Synthetic location holding a function's return value. *)
val ret_loc : string -> Absloc.t

(** Generate all constraints for a program; [resolve] maps an indirect
    call/spawn target expression (in the named function) to candidate
    callees. *)
val gen :
  ?resolve:(string -> Minic.Ast.exp -> string list) ->
  Minic.Ast.program ->
  t list
