(** Source-to-source weak-lock instrumentation (the CIL pass of Section
    6.1): rewrite the program so that every region in the plan is
    bracketed by [WeakEnter]/[WeakExit] statements.

    Nesting is structural: statement regions sit inside basic-block
    regions inside loop regions inside function regions; at run time the
    engine's region stack suspends outer locks around inner regions and
    reacquires them on exit (Section 2.3), and unwinds regions on
    [return].

    Call statements need care: the racy memory operations of a call are
    its argument loads and its return-value store — in CIL's
    three-address form these are separate instructions around the call.
    Wrapping the whole call statement would hold the weak lock across the
    entire callee (which may block on barriers or I/O), so the racy
    argument reads are hoisted into fresh temporaries guarded by the
    region, the call itself runs unguarded, and a guarded epilogue stores
    the hoisted return value. *)

open Minic.Ast

let locks_of (acqs : weak_acq list) : weak_lock list =
  List.map (fun a -> a.wa_lock) acqs

(* must mirror the run definition in {!Plan.build_index}: only plain
   assignments form multi-statement basic blocks *)
let is_simple (s : stmt) =
  match s.skind with Assign _ -> true | _ -> false

let merge_acqs (a : weak_acq list) (b : weak_acq list) : weak_acq list =
  let extra =
    List.filter
      (fun x -> not (List.exists (fun y -> y.wa_lock = x.wa_lock) a))
      b
  in
  List.sort (fun x y -> compare_weak_lock x.wa_lock y.wa_lock) (a @ extra)

type fctx = {
  fenv : Minic.Typecheck.env;
  mutable new_locals : var_decl list;
  mutable tmp : int;
}

let fresh_tmp (fx : fctx) (ty : ty) : string =
  fx.tmp <- fx.tmp + 1;
  let name = Fmt.str "__wt%d" fx.tmp in
  fx.new_locals <- { v_name = name; v_ty = ty; v_loc = dummy_loc } :: fx.new_locals;
  name

(* does evaluating [e] read memory at all (so that guarding it matters)? *)
let rec reads_memory (e : exp) : bool =
  match e with
  | Const _ -> false
  | Lval _ -> true
  | AddrOf lv -> addr_reads lv
  | Unop (_, e) -> reads_memory e
  | Binop (_, a, b) -> reads_memory a || reads_memory b

and addr_reads (lv : lval) : bool =
  match lv with
  | Var _ -> false
  | Deref e -> reads_memory e
  | Index (lv, e) -> addr_reads lv || reads_memory e
  | Field (lv, _) -> addr_reads lv
  | Arrow (e, _) -> reads_memory e

(* is [e] a direct function reference (spawn targets must stay
   syntactic)? *)
let is_fun_ref env (e : exp) : bool =
  match e with
  | Lval (Var v) | AddrOf (Var v) -> (
      match Minic.Typecheck.lookup_var env v with
      | Some (Tfun _) -> true
      | _ -> false)
  | _ -> false

(** Rewrite a call/builtin statement guarded by [acqs] into hoisted form.
    Returns the replacement statement list. [tag] is applied to every
    emitted [WeakEnter] (provenance recording for {!apply_mapped}). *)
let hoist_call ?(tag = fun (s : stmt) -> s) (fx : fctx) (s : stmt)
    (acqs : weak_acq list) : stmt list =
  let loc = s.sloc in
  let enter () = tag (Fresh.stmt ~loc (WeakEnter acqs)) in
  let exit_ () = Fresh.stmt ~loc (WeakExit (locks_of acqs)) in
  let hoist_args args =
    let pre = ref [] in
    let args' =
      List.map
        (fun a ->
          if reads_memory a && not (is_fun_ref fx.fenv a) then begin
            match Minic.Typecheck.type_of_exp fx.fenv a with
            | Tfun _ -> a
            | ty ->
                let name = fresh_tmp fx ty in
                pre := Fresh.stmt ~loc (Assign (Var name, a)) :: !pre;
                Lval (Var name)
          end
          else a)
        args
    in
    (List.rev !pre, args')
  in
  let hoist_ret ret =
    match ret with
    | None -> (None, [])
    | Some lv ->
        let name = fresh_tmp fx (Minic.Typecheck.type_of_lval fx.fenv lv) in
        (Some (Var name), [ Fresh.stmt ~loc (Assign (lv, Lval (Var name))) ])
  in
  match s.skind with
  | Call (ret, tgt, args) ->
      let pre, args' = hoist_args args in
      let tgt', pre =
        match tgt with
        | Direct f -> (Direct f, pre)
        | ViaPtr e ->
            if reads_memory e then begin
              let name = fresh_tmp fx (Minic.Typecheck.type_of_exp fx.fenv e) in
              (ViaPtr (Lval (Var name)),
               pre @ [ Fresh.stmt ~loc (Assign (Var name, e)) ])
            end
            else (ViaPtr e, pre)
      in
      let ret', post = hoist_ret ret in
      let call = { s with skind = Call (ret', tgt', args') } in
      (if pre = [] then []
       else (enter () :: pre) @ [ exit_ () ])
      @ [ call ]
      @ (if post = [] then [] else (enter () :: post) @ [ exit_ () ])
  | Builtin (ret, b, args) ->
      (* keep spawn's target argument syntactic *)
      let pre, args' =
        match (b, args) with
        | Spawn, target :: rest ->
            let pre, rest' = hoist_args rest in
            (pre, target :: rest')
        | _ -> hoist_args args
      in
      let ret', post = hoist_ret ret in
      let call = { s with skind = Builtin (ret', b, args') } in
      (if pre = [] then [] else (enter () :: pre) @ [ exit_ () ])
      @ [ call ]
      @ (if post = [] then [] else (enter () :: post) @ [ exit_ () ])
  | _ -> assert false

(** Instrument [p] according to [plan], also returning a map from each
    emitted [WeakEnter]'s sid to the plan region(s) whose acquisitions it
    performs (two regions when a statement- and a run-level region share
    one enter). Fresh statement ids continue after the highest existing
    id. *)
let apply_mapped (p : program) (plan : Plan.t) :
    program * (int, Plan.region list) Hashtbl.t =
  Fresh.reset_from p;
  let origin : (int, Plan.region list) Hashtbl.t = Hashtbl.create 64 in
  let tag_with regions (s : stmt) =
    if regions <> [] then Hashtbl.replace origin s.sid regions;
    s
  in
  let tenv = Minic.Typecheck.env_of_program p in
  let enter ?(loc = dummy_loc) ~regions acqs =
    tag_with regions (Fresh.stmt ~loc (WeakEnter acqs))
  in
  let exit_ ?(loc = dummy_loc) acqs =
    Fresh.stmt ~loc (WeakExit (locks_of acqs))
  in
  let rewrite_fun (fd : fundec) : fundec =
    let fx =
      { fenv = Minic.Typecheck.fun_env tenv fd; new_locals = []; tmp = 0 }
    in
    let rec rewrite_block (b : block) : block =
      let groups =
        let rec go acc cur = function
          | [] -> List.rev (if cur = [] then acc else `Run (List.rev cur) :: acc)
          | s :: rest ->
              if is_simple s then go acc (s :: cur) rest
              else
                let acc = if cur = [] then acc else `Run (List.rev cur) :: acc in
                go (`Ctrl s :: acc) [] rest
        in
        go [] [] b
      in
      List.concat_map
        (fun group ->
          match group with
          | `Run (stmts : stmt list) -> (
              let head = (List.hd stmts).sid in
              (* per-statement (instr) regions first *)
              let inner =
                List.concat_map
                  (fun (s : stmt) ->
                    match Hashtbl.find_opt plan.Plan.pl_stmt s.sid with
                    | Some acqs when acqs <> [] ->
                        [
                          enter ~loc:s.sloc ~regions:[ Plan.RStmt s.sid ] acqs;
                          s;
                          exit_ ~loc:s.sloc acqs;
                        ]
                    | _ -> [ s ])
                  stmts
              in
              match Hashtbl.find_opt plan.Plan.pl_run head with
              | Some acqs when acqs <> [] ->
                  let loc = (List.hd stmts).sloc in
                  (enter ~loc ~regions:[ Plan.RRun (fd.f_name, head) ] acqs
                  :: inner)
                  @ [ exit_ ~loc acqs ]
              | _ -> inner)
          | `Ctrl s -> (
              let s =
                match s.skind with
                | If (c, b1, b2) ->
                    { s with skind = If (c, rewrite_block b1, rewrite_block b2) }
                | While (c, body, li) ->
                    { s with skind = While (c, rewrite_block body, li) }
                | _ -> s
              in
              (* regions targeting this statement: merge the statement- and
                 run-level assignments *)
              let own_acqs =
                merge_acqs
                  (Option.value (Hashtbl.find_opt plan.Plan.pl_stmt s.sid)
                     ~default:[])
                  (Option.value (Hashtbl.find_opt plan.Plan.pl_run s.sid)
                     ~default:[])
              in
              let own_regions =
                (match Hashtbl.find_opt plan.Plan.pl_stmt s.sid with
                | Some a when a <> [] -> [ Plan.RStmt s.sid ]
                | _ -> [])
                @
                match Hashtbl.find_opt plan.Plan.pl_run s.sid with
                | Some a when a <> [] -> [ Plan.RRun (fd.f_name, s.sid) ]
                | _ -> []
              in
              match s.skind with
              | While (cond, body, li) -> (
                  let wrap_loop inner =
                    match Hashtbl.find_opt plan.Plan.pl_loop li.lid with
                    | Some acqs when acqs <> [] ->
                        (enter ~loc:s.sloc
                           ~regions:[ Plan.RLoop (fd.f_name, li.lid) ]
                           acqs
                        :: inner)
                        @ [ exit_ ~loc:s.sloc acqs ]
                    | _ -> inner
                  in
                  match own_acqs with
                  | [] -> wrap_loop [ s ]
                  | acqs ->
                      (* A racy loop condition. Guarding the whole [while]
                         would hold the lock across every iteration
                         (including blocking operations in the body), so
                         restructure: evaluate the condition into a guarded
                         temporary at the top of each iteration.
                           while (1) {
                             [enter] t = cond; [exit]
                             if (!t) break;
                             body (original step still last, so continue
                                   increments and re-tests)
                           } *)
                      let loc = s.sloc in
                      let t = fresh_tmp fx Tint in
                      let eval_cond =
                        [
                          enter ~loc ~regions:own_regions acqs;
                          Fresh.stmt ~loc (Assign (Var t, cond));
                          exit_ ~loc acqs;
                          Fresh.stmt ~loc
                            (If (Unop (LNot, Lval (Var t)), [ Fresh.stmt ~loc Break ], []));
                        ]
                      in
                      let li' =
                        {
                          lid = li.lid;
                          l_induction = None;
                          l_step = li.l_step;
                        }
                      in
                      let s' =
                        { s with skind = While (Const 1, eval_cond @ body, li') }
                      in
                      wrap_loop [ s' ])
              | Call _ | Builtin _ when own_acqs <> [] ->
                  hoist_call ~tag:(tag_with own_regions) fx s own_acqs
              | If (c, b1, b2) when own_acqs <> [] ->
                  (* A racy branch condition: wrapping the whole [if] would
                     nest around any regions inside the branches (suspend /
                     reacquire churn); hoist the condition instead. *)
                  let loc = s.sloc in
                  let t = fresh_tmp fx Tint in
                  [
                    enter ~loc ~regions:own_regions own_acqs;
                    Fresh.stmt ~loc (Assign (Var t, c));
                    exit_ ~loc own_acqs;
                    { s with skind = If (Lval (Var t), b1, b2) };
                  ]
              | _ when own_acqs <> [] ->
                  (enter ~loc:s.sloc ~regions:own_regions own_acqs :: [ s ])
                  @ [ exit_ ~loc:s.sloc own_acqs ]
              | _ -> [ s ]))
        groups
    in
    let body = rewrite_block fd.f_body in
    let body =
      match Hashtbl.find_opt plan.Plan.pl_func fd.f_name with
      | Some acqs when acqs <> [] ->
          (enter ~loc:fd.f_loc ~regions:[ Plan.RFunc fd.f_name ] acqs :: body)
          @ [ exit_ ~loc:fd.f_loc acqs ]
      | _ -> body
    in
    { fd with f_body = body; f_locals = fd.f_locals @ List.rev fx.new_locals }
  in
  ({ p with p_funs = List.map rewrite_fun p.p_funs }, origin)

(** Instrument [p] according to [plan]. Fresh statement ids continue after
    the highest existing id. *)
let apply (p : program) (plan : Plan.t) : program = fst (apply_mapped p plan)

(** Count instrumentation sites by granularity (static, for reporting). *)
let site_counts (plan : Plan.t) : int * int * int * int =
  ( Hashtbl.length plan.Plan.pl_func,
    Hashtbl.length plan.Plan.pl_loop,
    Hashtbl.length plan.Plan.pl_run,
    Hashtbl.length plan.Plan.pl_stmt )
