(** Type resolution and checking for MiniC: builds symbol tables,
    types every expression (needed by the interpreter for index scaling
    and by the analyses for object resolution), rewrites direct calls
    through function-pointer variables into [ViaPtr], and rejects
    unbound names, ill-typed lvalues, assignments to a function, bad
    arities, duplicate definitions, a missing [main], and structs
    without a finite size. *)

open Ast

exception Type_error of string * loc

type env = {
  prog : program;
  structs : (string, struct_decl) Hashtbl.t;
  globals : (string, ty) Hashtbl.t;
  funs : (string, fundec) Hashtbl.t;
  locals : (string, ty) Hashtbl.t;  (** current function's params+locals *)
  fname : string;
}

val env_of_program : program -> env

(** Environment for a function body (params + locals in scope). *)
val fun_env : env -> fundec -> env

val lookup_var : env -> string -> ty option
val type_of_lval : env -> lval -> ty
val type_of_exp : env -> exp -> ty

(** Check and rewrite a program. Raises {!Type_error}. In a program it
    returns, {!type_of_lval} and {!type_of_exp} succeed at every lvalue
    and expression of every function (in its {!fun_env}), and
    [Ast.sizeof] is finite at every declared type and at every lvalue's
    type. *)
val check : program -> program

(** [parse_and_check src] — the front-end entry point. *)
val parse_and_check : ?file:string -> string -> program
