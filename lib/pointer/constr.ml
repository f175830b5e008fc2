(** Inclusion-constraint generation from MiniC programs.

    Produces the classic four constraint forms over abstract locations:

    - [Addr (d, a)]  : the address of object [a] flows into [d]
                       (pts(d) ⊇ \{a\})
    - [Copy (d, s)]  : pts(d) ⊇ pts(s)
    - [Load (d, s)]  : pts(d) ⊇ pts(o) for every o ∈ pts(s)     (d = star-s)
    - [Store (d, s)] : pts(o) ⊇ pts(s) for every o ∈ pts(d)     (star-d = s)

    Nested lvalues are normalized with fresh temporaries. The analysis is
    field- and element-insensitive: a struct or array is one object, and
    pointer arithmetic does not change the pointed-to object — exactly the
    conservative assumption RELAY inherits from Steensgaard/Andersen
    (Section 3.2 / 5.1 of the paper), and the source of the imprecision
    Chimera's symbolic bounds analysis compensates for. *)

open Minic.Ast
module A = Absloc

type t =
  | Addr of A.t * A.t
  | Copy of A.t * A.t
  | Load of A.t * A.t
  | Store of A.t * A.t

let pp ppf = function
  | Addr (d, s) -> Fmt.pf ppf "%a >= {%a}" A.pp d A.pp s
  | Copy (d, s) -> Fmt.pf ppf "%a >= %a" A.pp d A.pp s
  | Load (d, s) -> Fmt.pf ppf "%a >= *%a" A.pp d A.pp s
  | Store (d, s) -> Fmt.pf ppf "*%a >= %a" A.pp d A.pp s

type genv = {
  prog : program;
  tenv : Minic.Typecheck.env;
  mutable temp : int;
  mutable acc : t list;
}

let fresh g =
  g.temp <- g.temp + 1;
  A.ATemp g.temp

let emit g c = g.acc <- c :: g.acc

(** The abstract location for variable [v] as seen from function [fname]:
    a local/param of the function, a global, or a function constant. *)
let var_loc (prog : program) fname v : A.t =
  let is_local =
    match Minic.Ast.find_fun prog fname with
    | Some f ->
        List.exists (fun d -> d.v_name = v) f.f_params
        || List.exists (fun d -> d.v_name = v) f.f_locals
    | None -> false
  in
  if is_local then A.ALocal (fname, v)
  else if Minic.Ast.find_fun prog v <> None then A.AFun v
  else A.AGlobal v

(** Whether lvalue [lv], typed in [tenv] (its function's environment),
    names an array or a function. Such an lvalue stands for its own
    address in expression position, not for its contents, and [lv\[i\]]
    stays within it. {!Minic.Typecheck.check} guarantees the type. *)
let decays tenv lv =
  match Minic.Typecheck.type_of_lval tenv lv with
  | Tarray _ | Tfun _ -> true
  | Tvoid | Tint | Tptr _ | Tstruct _ -> false

(** Where an lvalue lives: the object itself, or the objects designated by
    a pointer temporary. *)
type place = PDirect of A.t | PDeref of A.t

(* [trans_exp g fname e dst] emits constraints making pts(dst) include all
   pointer values of [e]. *)
let rec trans_exp g fname (e : exp) (dst : A.t) : unit =
  match e with
  | Const _ -> ()
  | Lval lv -> (
      (* reading the lvalue's contents, unless it decays *)
      let decays = decays g.tenv lv in
      match place_of_lval g fname lv with
      | PDirect a -> if decays then emit g (Addr (dst, a)) else emit g (Copy (dst, a))
      | PDeref t -> if decays then emit g (Copy (dst, t)) else emit g (Load (dst, t)))
  | AddrOf lv -> (
      match place_of_lval g fname lv with
      | PDirect a -> emit g (Addr (dst, a))
      | PDeref t -> emit g (Copy (dst, t)))
  | Unop (_, e) -> trans_exp g fname e dst
  | Binop (_, a, b) ->
      (* pointer arithmetic: result may point wherever either side points *)
      trans_exp g fname a dst;
      trans_exp g fname b dst

and place_of_lval g fname (lv : lval) : place =
  match lv with
  | Var v -> PDirect (var_loc g.prog fname v)
  | Deref e ->
      let t = fresh g in
      trans_exp g fname e t;
      PDeref t
  | Index (base, _) -> (
      (* a[i] stays within object a when a is an array; p[i] dereferences
         p when p is a pointer *)
      if decays g.tenv base then place_of_lval g fname base
      else
        match place_of_lval g fname base with
        | PDirect p ->
            let t = fresh g in
            emit g (Copy (t, p));
            PDeref t
        | PDeref t ->
            let t2 = fresh g in
            emit g (Load (t2, t));
            PDeref t2)
  | Field (base, _) -> place_of_lval g fname base
  | Arrow (e, _) ->
      let t = fresh g in
      trans_exp g fname e t;
      PDeref t

(* assignment of expression [e] into place [pl] *)
let assign_into g fname pl (e : exp) : unit =
  match pl with
  | PDirect a -> trans_exp g fname e a
  | PDeref t ->
      let t2 = fresh g in
      trans_exp g fname e t2;
      emit g (Store (t, t2))

(* copy contents of absloc [src] into place [pl] (used for call returns) *)
let copy_into g pl (src : A.t) : unit =
  match pl with
  | PDirect a -> emit g (Copy (a, src))
  | PDeref t -> emit g (Store (t, src))

(** Synthetic location holding function [f]'s return value. *)
let ret_loc f = A.AGlobal ("$ret." ^ f)


(* bind arguments to the parameters of callee [callee] *)
let bind_args g fname (callee : fundec) (args : exp list) : unit =
  List.iteri
    (fun i (p : var_decl) ->
      match List.nth_opt args i with
      | Some a -> trans_exp g fname a (A.ALocal (callee.f_name, p.v_name))
      | None -> ())
    callee.f_params

let trans_stmt g (fname : string) (s : stmt)
    ~(resolve : string -> exp -> string list) : unit =
  match s.skind with
  | Assign (lv, e) -> assign_into g fname (place_of_lval g fname lv) e
  | Call (ret, tgt, args) ->
      let callees =
        match tgt with
        | Direct f -> [ f ]
        | ViaPtr e -> resolve fname e
      in
      List.iter
        (fun cname ->
          match Minic.Ast.find_fun g.prog cname with
          | None -> ()
          | Some callee ->
              bind_args g fname callee args;
              Option.iter
                (fun lv ->
                  copy_into g (place_of_lval g fname lv) (ret_loc cname))
                ret)
        callees
  | Builtin (ret, b, args) -> (
      match (b, args) with
      | Spawn, target :: rest ->
          let tgts =
            match Minic.Callgraph.syntactic_targets g.prog target with
            | Some ts -> ts
            | None -> resolve fname target
          in
          List.iter
            (fun tname ->
              match Minic.Ast.find_fun g.prog tname with
              | Some callee -> bind_args g fname callee rest
              | None -> ())
            tgts
      | Malloc, _ ->
          (* the heap object's address flows into wherever malloc's result
             is stored: pts(ret) ⊇ {heap site} *)
          (match ret with
          | Some lv -> (
              match place_of_lval g fname lv with
              | PDirect a -> emit g (Addr (a, A.AHeap s.sid))
              | PDeref t ->
                  let t2 = fresh g in
                  emit g (Addr (t2, A.AHeap s.sid));
                  emit g (Store (t, t2)))
          | None -> ())
      | (NetRead | FileRead), _buf :: _ -> ()
      | _ -> ())
  | Return (Some e) -> trans_exp g fname e (ret_loc fname)
  | _ -> ()

(** Generate all constraints for [p], resolving indirect calls/spawns with
    [resolve]. *)
let gen ?(resolve : (string -> exp -> string list) option) (p : program) :
    t list =
  let tenv = Minic.Typecheck.env_of_program p in
  let default_resolve _ e =
    match Minic.Callgraph.syntactic_targets p e with
    | Some ts -> ts
    | None -> Minic.Callgraph.address_taken_funs p
  in
  let resolve = Option.value resolve ~default:default_resolve in
  List.concat_map
    (fun (fd : fundec) ->
      let g =
        {
          prog = p;
          tenv = Minic.Typecheck.fun_env tenv fd;
          temp = 0;
          acc = [];
        }
      in
      (* temps must be globally unique: offset by function hash *)
      g.temp <- Hashtbl.hash fd.f_name land 0xffff * 100000;
      Minic.Ast.iter_stmts (fun s -> trans_stmt g fd.f_name s ~resolve) fd.f_body;
      g.acc)
    p.p_funs
