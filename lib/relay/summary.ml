(** RELAY-style function summaries (Voung, Jhala, Lerner — FSE 2007).

    For every function we compute, flow-sensitively over the structured
    body, the set of {e guarded accesses}: (statement, abstract object,
    read/write, relative lockset). Locksets are {e relative} to the
    function's entry: [ga_held] are locks acquired within the function (or
    its callees) and still held at the access; [ga_released] are locks the
    function released that it did not itself acquire (i.e. entry locks it
    dropped). Summaries compose bottom-up over the call graph, so the
    summary of a thread root carries absolute locksets.

    Soundness choices (Section 3 of the paper):
    - locksets must {e under}-approximate: a [lock(e)] whose argument does
      not resolve to a single must-alias object acquires nothing;
    - object sets {e over}-approximate via Andersen points-to;
    - non-mutex synchronization (fork/join, barriers, condition variables)
      contributes no happens-before — deliberately, as in RELAY; this is
      the paper's first source of false positives, later recovered by
      profiling. *)

open Minic.Ast
module A = Pointer.Absloc
module Aset = Pointer.Absloc.Set

type gaccess = {
  ga_sid : int;
  ga_fname : string;  (** function containing the statement *)
  ga_line : int;
  ga_obj : A.t;
  ga_write : bool;
  ga_held : Aset.t;
  ga_released : Aset.t;
}

let pp_gaccess ppf a =
  Fmt.pf ppf "%s:%d %s %a held=%a" a.ga_fname a.ga_line
    (if a.ga_write then "W" else "R")
    A.pp a.ga_obj A.pp_set a.ga_held

type summary = {
  sm_accesses : gaccess list;
  sm_acquired : Aset.t;  (** locks held at exit that were not held at entry *)
  sm_released : Aset.t;  (** entry locks released by the function *)
}

let empty_summary =
  { sm_accesses = []; sm_acquired = Aset.empty; sm_released = Aset.empty }

type t = {
  summaries : (string, summary) Hashtbl.t;
  prog : program;
  pa : Pointer.Analysis.t;
  cg : Minic.Callgraph.t;
}

(* ------------------------------------------------------------------ *)

type state = { held : Aset.t; released : Aset.t }

let entry_state = { held = Aset.empty; released = Aset.empty }

let join_state a b =
  { held = Aset.inter a.held b.held; released = Aset.union a.released b.released }

let equal_state a b = Aset.equal a.held b.held && Aset.equal a.released b.released

(* access dedup/merge: same (sid, obj, write) merges by intersecting held
   (sound: the lock is only guaranteed held if held on every path) *)
module AccKey = struct
  type t = int * A.t * bool
  let compare = compare
end

module AccMap = Map.Make (AccKey)

let merge_access m (a : gaccess) =
  let key = (a.ga_sid, a.ga_obj, a.ga_write) in
  match AccMap.find_opt key m with
  | None -> AccMap.add key a m
  | Some b ->
      AccMap.add key
        {
          b with
          ga_held = Aset.inter b.ga_held a.ga_held;
          ga_released = Aset.union b.ga_released a.ga_released;
        }
        m

(* ------------------------------------------------------------------ *)

type ctx = {
  prog : program;
  pa : Pointer.Analysis.t;
  lookup : string -> summary option;
  fname : string;
  sid_index : (int, int) Hashtbl.t;  (* sid -> line *)
  mutable accs : gaccess AccMap.t;
}

(* objects an lvalue touches, filtered to those that could possibly be
   shared (globals, heap, locals of other functions, or locals whose
   address is taken somewhere) *)
let shareable _ctx (l : A.t) : bool =
  match l with
  | A.AGlobal n -> not (String.length n > 0 && n.[0] = '$')
  | A.AHeap _ -> true
  | A.ALocal _ -> true (* refined by the escape filter at detection time *)
  | A.AFun _ | A.ATemp _ -> false

let record ctx (st : state) (s : stmt) ~(write : bool) (objs : Aset.t) : unit =
  Aset.iter
    (fun o ->
      if shareable ctx o then
        ctx.accs <-
          merge_access ctx.accs
            {
              ga_sid = s.sid;
              ga_fname = ctx.fname;
              ga_line = s.sloc.line;
              ga_obj = o;
              ga_write = write;
              ga_held = st.held;
              ga_released = st.released;
            })
    objs

let lval_objs ctx lv = Pointer.Analysis.lval_objects ctx.pa ctx.fname lv

(* record all reads embedded in an expression *)
let rec record_exp ctx st s (e : exp) : unit =
  match e with
  | Const _ -> ()
  | Lval lv ->
      record ctx st s ~write:false (lval_objs ctx lv);
      record_lval_addr ctx st s lv
  | AddrOf lv -> record_lval_addr ctx st s lv
  | Unop (_, e) -> record_exp ctx st s e
  | Binop (_, a, b) -> record_exp ctx st s a; record_exp ctx st s b

(* reads performed to *compute the address* of an lvalue *)
and record_lval_addr ctx st s (lv : lval) : unit =
  match lv with
  | Var _ -> ()
  | Deref e -> record_exp ctx st s e
  | Index (lv, e) -> record_lval_addr ctx st s lv; record_exp ctx st s e
  | Field (lv, _) -> record_lval_addr ctx st s lv
  | Arrow (e, _) -> record_exp ctx st s e

(* apply callee summary at a call site *)
let apply_summary ctx (st : state) (sm : summary) : state =
  List.iter
    (fun (a : gaccess) ->
      let held = Aset.union a.ga_held (Aset.diff st.held a.ga_released) in
      let released =
        Aset.union st.released (Aset.diff a.ga_released st.held)
      in
      ctx.accs <-
        merge_access ctx.accs { a with ga_held = held; ga_released = released })
    sm.sm_accesses;
  {
    held = Aset.union (Aset.diff st.held sm.sm_released) sm.sm_acquired;
    released = Aset.union st.released (Aset.diff sm.sm_released st.held);
  }

let summary_of ctx f = Option.value (ctx.lookup f) ~default:empty_summary

let rec walk_block ctx (st : state) (b : block) : state =
  List.fold_left (fun st s -> walk_stmt ctx st s) st b

and walk_stmt ctx (st : state) (s : stmt) : state =
  match s.skind with
  | Assign (lv, e) ->
      record_exp ctx st s e;
      record_lval_addr ctx st s lv;
      record ctx st s ~write:true (lval_objs ctx lv);
      st
  | Call (ret, tgt, args) ->
      List.iter (record_exp ctx st s) args;
      Option.iter
        (fun lv ->
          record_lval_addr ctx st s lv;
          record ctx st s ~write:true (lval_objs ctx lv))
        ret;
      let callees =
        match tgt with
        | Direct f -> [ f ]
        | ViaPtr e -> Pointer.Analysis.resolve_funptr ctx.pa ctx.fname e
      in
      (* conservative over indirect targets: resulting state must be sound
         whichever callee ran -> join *)
      let states =
        List.filter_map
          (fun f ->
            if Minic.Ast.find_fun ctx.prog f = None then None
            else Some (apply_summary ctx st (summary_of ctx f)))
          callees
      in
      (match states with
      | [] -> st
      | s0 :: rest -> List.fold_left join_state s0 rest)
  | Builtin (ret, b, args) -> (
      List.iter (record_exp ctx st s) args;
      Option.iter
        (fun lv ->
          record_lval_addr ctx st s lv;
          record ctx st s ~write:true (lval_objs ctx lv))
        ret;
      match (b, args) with
      | MutexLock, [ e ] -> (
          match Pointer.Analysis.lock_objects ctx.pa ctx.fname e with
          | Some l -> { st with held = Aset.add l st.held }
          | None -> st (* unknown lock acquires nothing: underestimate *))
      | MutexUnlock, [ e ] -> (
          match Pointer.Analysis.lock_objects ctx.pa ctx.fname e with
          | Some l ->
              if Aset.mem l st.held then
                { st with held = Aset.remove l st.held }
              else { st with released = Aset.add l st.released }
          | None ->
              (* unknown unlock might release anything we hold: drop all
                 (sound direction: underestimate held locks) *)
              {
                held = Aset.empty;
                released = Aset.union st.released st.held;
              })
      | (NetRead | FileRead), buf :: _ ->
          (* the runtime writes into the buffer *)
          let objs = Pointer.Analysis.exp_objects ctx.pa ctx.fname buf in
          record ctx st s ~write:true objs;
          st
      | Spawn, _ :: rest ->
          List.iter (record_exp ctx st s) rest;
          st
      | _ -> st)
  | If (c, b1, b2) ->
      record_exp ctx st s c;
      let s1 = walk_block ctx st b1 in
      let s2 = walk_block ctx st b2 in
      join_state s1 s2
  | While (c, body, _) ->
      record_exp ctx st s c;
      (* fixpoint: held can only shrink, released only grow *)
      let cur = ref st in
      let stable = ref false in
      while not !stable do
        let after = walk_block ctx !cur body in
        let joined = join_state !cur after in
        if equal_state joined !cur then stable := true else cur := joined
      done;
      !cur
  | Return (Some e) ->
      record_exp ctx st s e;
      st
  | Return None | Break | Continue -> st
  | WeakEnter _ | WeakExit _ -> st

let analyze_fun prog pa lookup (fd : fundec) : summary =
  let ctx =
    { prog; pa; lookup; fname = fd.f_name; sid_index = Hashtbl.create 1; accs = AccMap.empty }
  in
  let final = walk_block ctx entry_state fd.f_body in
  {
    sm_accesses = List.map snd (AccMap.bindings ctx.accs);
    sm_acquired = final.held;
    sm_released = final.released;
  }

let equal_summary (a : summary) (b : summary) =
  Aset.equal a.sm_acquired b.sm_acquired
  && Aset.equal a.sm_released b.sm_released
  && List.length a.sm_accesses = List.length b.sm_accesses
  && List.for_all2
       (fun (x : gaccess) (y : gaccess) ->
         x.ga_sid = y.ga_sid && A.equal x.ga_obj y.ga_obj
         && x.ga_write = y.ga_write
         && Aset.equal x.ga_held y.ga_held
         && Aset.equal x.ga_released y.ga_released)
       a.sm_accesses b.sm_accesses

(** Compute summaries bottom-up over the call-graph condensation. SCCs
    are scheduled level by level: all components in a level depend only
    on strictly earlier levels, so with [pool] they are solved
    concurrently, each against a read-only view of the completed
    levels. Each component runs its own local fixpoint (recursion
    iterates; bounded: locksets shrink, access sets are bounded by
    program size). Results merge into the shared table serially in
    level/component order, so the final table — and everything derived
    from it — is identical with or without a pool. *)
let compute ?(pool : Par.Pool.t option) (p : program) (pa : Pointer.Analysis.t)
    : t =
  let cg = Pointer.Analysis.callgraph pa in
  let summaries = Hashtbl.create 64 in
  let solve_scc comp =
    (* overlay: this component's in-progress summaries shadow the shared
       table, which holds only completed lower levels during a level *)
    let local = Hashtbl.create (List.length comp) in
    let lookup f =
      match Hashtbl.find_opt local f with
      | Some _ as sm -> sm
      | None -> Hashtbl.find_opt summaries f
    in
    let members = List.filter_map (Minic.Ast.find_fun p) comp in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 10 do
      incr rounds;
      changed := false;
      List.iter
        (fun (fd : fundec) ->
          let sm = analyze_fun p pa lookup fd in
          let prev =
            Option.value (Hashtbl.find_opt local fd.f_name)
              ~default:empty_summary
          in
          if not (equal_summary prev sm) then begin
            changed := true;
            Hashtbl.replace local fd.f_name sm
          end)
        members;
      (* non-recursive singleton: the one pass is exact, skip the
         confirmation round *)
      (match comp with
      | [ f ] when not (List.mem f (Minic.Callgraph.callees cg f)) ->
          changed := false
      | _ -> ())
    done;
    List.filter_map
      (fun (fd : fundec) ->
        Option.map (fun sm -> (fd.f_name, sm)) (Hashtbl.find_opt local fd.f_name))
      members
  in
  List.iter
    (fun level ->
      Par.Pool.map_opt pool solve_scc level
      |> List.iter (List.iter (fun (f, sm) -> Hashtbl.replace summaries f sm)))
    (Minic.Callgraph.scc_levels cg p);
  { summaries; prog = p; pa; cg }

let summary (t : t) (f : string) : summary =
  Option.value (Hashtbl.find_opt t.summaries f) ~default:empty_summary
