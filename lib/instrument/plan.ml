(** Granularity selection: turning RELAY race pairs plus profile and
    symbolic-bounds information into a weak-lock instrumentation plan
    (Sections 2.2, 4, 5.3 of the paper).

    For each race pair, each side gets a region:

    - if the two containing functions were never concurrent in any
      profile run: both sides use the {e function} region, sharing the
      clique's function-lock;
    - else if the side's statement is inside a loop: the {e outermost}
      enclosing loop with precise symbolic bounds becomes a loop region
      with the derived address ranges; with no precise loop, a small loop
      body (below the loop-body threshold, measured by profiling) is
      serialized whole (total-claim loop-lock), and a large one falls
      back to the basic-block level;
    - else the {e basic block} (maximal run of simple statements); if the
      run contains a function call, the single {e statement}.

    Each non-function-lock pair gets one fresh weak lock shared by both
    sides; its granularity class is the coarser of the two sides (lock
    ordering classes: func < loop < bb < instr). Finally, every lock a
    statement needs is attached to the {e innermost} instrumented region
    containing that statement — inner regions suspend outer locks, so
    attaching to an outer region only would leave the access unprotected
    while a nested region runs. *)

open Minic.Ast

(* ------------------------------------------------------------------ *)
(* Program index: where every statement lives *)

type site_info = {
  si_fname : string;
  si_loops : stmt list;  (** enclosing While statements, outermost first *)
  si_run : int;          (** head sid of the enclosing simple-stmt run *)
  si_run_call : bool;    (** the run contains a function call *)
}

type index = {
  ix_sites : (int, site_info) Hashtbl.t;
  ix_loop_stmt : (int, string * stmt list) Hashtbl.t;
      (** lid -> fname, loop chain ending at that loop *)
}

let build_index (p : program) : index =
  let ix =
    { ix_sites = Hashtbl.create 256; ix_loop_stmt = Hashtbl.create 32 }
  in
  (* Runs (our basic blocks) contain only plain assignments: calls,
     builtins (pthread/syscall surface) and control flow end a block, as
     calls do in CIL. A call/builtin statement forms its own
     single-statement region. *)
  let is_simple (s : stmt) =
    match s.skind with Assign _ -> true | _ -> false
  in
  List.iter
    (fun (fd : fundec) ->
      let rec walk (loops : stmt list) (b : block) =
        (* split into runs of simple statements *)
        let rec runs acc cur = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | s :: rest ->
              if is_simple s then runs acc (s :: cur) rest
              else
                let acc = if cur = [] then acc else List.rev cur :: acc in
                runs ([ s ] :: acc) [] rest
        in
        List.iter
          (fun run ->
            match run with
            | [] -> ()
            | first :: _ ->
                if is_simple first then begin
                  let has_call =
                    List.exists
                      (fun s ->
                        match s.skind with Call _ -> true | _ -> false)
                      run
                  in
                  List.iter
                    (fun (s : stmt) ->
                      Hashtbl.replace ix.ix_sites s.sid
                        {
                          si_fname = fd.f_name;
                          si_loops = List.rev loops;
                          si_run = first.sid;
                          si_run_call = has_call;
                        })
                    run
                end
                else
                  List.iter
                    (fun (s : stmt) ->
                      Hashtbl.replace ix.ix_sites s.sid
                        {
                          si_fname = fd.f_name;
                          si_loops = List.rev loops;
                          si_run = s.sid;
                          si_run_call =
                            (match s.skind with Call _ -> true | _ -> false);
                        };
                      match s.skind with
                      | If (_, b1, b2) -> walk loops b1; walk loops b2
                      | While (_, body, li) ->
                          Hashtbl.replace ix.ix_loop_stmt li.lid
                            (fd.f_name, List.rev (s :: loops));
                          walk (s :: loops) body
                      | _ -> ())
                    run)
          (runs [] [] b)
      in
      walk [] fd.f_body)
    p.p_funs;
  ix

(* ------------------------------------------------------------------ *)
(* Regions and decisions *)

type region =
  | RFunc of string
  | RLoop of string * int          (** fname, lid *)
  | RRun of string * int           (** fname, head sid *)
  | RStmt of int                   (** sid *)

let region_gran = function
  | RFunc _ -> Gfunc
  | RLoop _ -> Gloop
  | RRun _ -> Gbb
  | RStmt _ -> Ginstr

let pp_region ppf = function
  | RFunc f -> Fmt.pf ppf "func(%s)" f
  | RLoop (f, l) -> Fmt.pf ppf "loop(%s,%d)" f l
  | RRun (f, s) -> Fmt.pf ppf "bb(%s,%d)" f s
  | RStmt s -> Fmt.pf ppf "stmt(%d)" s

type side_decision = {
  sd_region : region;
  sd_ranges : warange list;  (** loop-lock ranges; empty = total *)
  sd_reason : string;        (** human-readable justification *)
}

type pair_decision = {
  pd_pair : Relay.Detect.race_pair;
  pd_lock : weak_lock;
  pd_s1 : side_decision;
  pd_s2 : side_decision;
}

type t = {
  pl_func : (string, weak_acq list) Hashtbl.t;
  pl_loop : (int, weak_acq list) Hashtbl.t;
  pl_run : (int, weak_acq list) Hashtbl.t;   (** keyed by run-head sid *)
  pl_stmt : (int, weak_acq list) Hashtbl.t;
  pl_decisions : pair_decision list;
  pl_cliques : Clique.t;
  pl_n_locks : int;
  pl_static_pairs : int;  (** RELAY candidate pairs before MHP pruning *)
  pl_pruned_pairs : int;  (** pairs the MHP pass removed statically *)
}

type options = {
  opt_funcs : bool;   (** enable profile-guided function-locks (Section 4) *)
  opt_loops : bool;   (** enable symbolic-bounds loop-locks (Section 5) *)
  opt_bb : bool;      (** enable basic-block coarsening *)
  opt_masks : bool;
      (** extension beyond the paper: model [e & c] as the range [0, c]
          in the bounds analysis (the paper treats bitwise masks as
          unsupported — Section 5.2 — yielding -INF..+INF loop-locks);
          used by the ablation benchmark *)
  loop_body_threshold : float;
}

let all_opts =
  {
    opt_funcs = true;
    opt_loops = true;
    opt_bb = true;
    opt_masks = false;
    loop_body_threshold = 40.;
  }

(** The extension configuration: everything plus mask ranges. *)
let with_masks = { all_opts with opt_masks = true }

(** The paper's Figure 5 configurations. *)
let naive = { all_opts with opt_funcs = false; opt_loops = false; opt_bb = false }
let funcs_only = { naive with opt_funcs = true }
let loops_only = { naive with opt_loops = true }

(* ------------------------------------------------------------------ *)

let decide_side (p : program) (ix : index) (prof : Profiling.Profile.t)
    (opts : options) (site : Relay.Detect.site) : side_decision =
  let info =
    match Hashtbl.find_opt ix.ix_sites site.st_sid with
    | Some i -> i
    | None ->
        {
          si_fname = site.st_fname;
          si_loops = [];
          si_run = site.st_sid;
          si_run_call = false;
        }
  in
  let fd = Option.get (Minic.Ast.find_fun p info.si_fname) in
  let bb_or_instr reason =
    if opts.opt_bb && not info.si_run_call then
      { sd_region = RRun (info.si_fname, info.si_run); sd_ranges = []; sd_reason = reason ^ "; bb" }
    else
      { sd_region = RStmt site.st_sid; sd_ranges = []; sd_reason = reason ^ "; instr" }
  in
  if not (opts.opt_loops && info.si_loops <> []) then
    bb_or_instr (if info.si_loops = [] then "straight-line" else "loops-disabled")
  else begin
    (* outermost enclosing loop with precise bounds (Section 5.3) *)
    let rec try_target k =
      if k >= List.length info.si_loops then None
      else
        match
          Symbolic.Bounds.analyze_loop p fd ~target_idx:k
            ~allow_masks:opts.opt_masks ~enclosing:info.si_loops
            ~racy_sids:[ site.st_sid ] ()
        with
        | Symbolic.Bounds.Precise ranges ->
            let target = List.nth info.si_loops k in
            let lid =
              match target.skind with
              | While (_, _, li) -> li.lid
              | _ -> assert false
            in
            Some (lid, ranges)
        | Symbolic.Bounds.Imprecise _ -> try_target (k + 1)
    in
    match try_target 0 with
    | Some (lid, ranges) ->
        {
          sd_region = RLoop (info.si_fname, lid);
          sd_ranges = ranges;
          sd_reason = "precise symbolic bounds";
        }
    | None -> (
        (* imprecise everywhere: loop-body-threshold decision on the
           innermost loop — but never serialize a loop whose body performs
           calls or blocking operations (a loop-lock held across a
           blocking call invites timeouts) *)
        let innermost = List.nth info.si_loops (List.length info.si_loops - 1) in
        let body, lid =
          match innermost.skind with
          | While (_, b, li) -> (b, li.lid)
          | _ -> assert false
        in
        let has_call = ref false in
        iter_stmts
          (fun s ->
            match s.skind with
            | Call _ | Builtin _ -> has_call := true
            | _ -> ())
          body;
        if !has_call then bb_or_instr "imprecise bounds, loop has calls"
        else
          match Profiling.Profile.avg_loop_body prof lid with
          | Some avg when avg >= opts.loop_body_threshold ->
              bb_or_instr "imprecise bounds, large body"
          | _ ->
              (* small (or never-profiled) body: serialize the whole loop *)
              {
                sd_region = RLoop (info.si_fname, lid);
                sd_ranges = [];
                sd_reason = "imprecise bounds, small body: total loop lock";
              })
  end

(** What {!compute} reads of a profile: the concurrent pairs (through
    [Profile.concurrent]) and which loops reach the loop-body threshold.
    Profiles with equal views yield equal plans, so profiling can stop
    once the view is stable (see [Profile.profile_many]). *)
type profile_view = (string * string) list * int list

let profile_view (opts : options) (prof : Profiling.Profile.t) : profile_view =
  let large =
    Hashtbl.fold
      (fun lid _ acc ->
        match Profiling.Profile.avg_loop_body prof lid with
        | Some avg when avg >= opts.loop_body_threshold -> lid :: acc
        | _ -> acc)
      prof.loop_insns []
  in
  ( Profiling.Profile.Pairset.elements prof.concurrent_pairs,
    List.sort compare large )

(** Compute the instrumentation plan. *)
let compute ?(opts = all_opts) (p : program) (report : Relay.Detect.report)
    (prof : Profiling.Profile.t) : t =
  let ix = build_index p in
  (* 1. cliques over non-concurrent racy function pairs *)
  let racy_fun_pairs = report.racy_fun_pairs in
  (* a function-lock serializes every live instance of its functions, so
     clique members must also be non-concurrent with *themselves* (a
     worker spawned in N threads must not carry a function-lock) *)
  let self_ok f = not (Profiling.Profile.concurrent prof f f) in
  let non_concurrent =
    List.filter
      (fun (f, g) ->
        (not (Profiling.Profile.concurrent prof f g)) && self_ok f && self_ok g)
      racy_fun_pairs
  in
  let cliques =
    if opts.opt_funcs then
      Clique.compute ~non_concurrent ~racy:racy_fun_pairs
    else Clique.compute ~non_concurrent:[] ~racy:[]
  in
  (* 2. per-pair decisions *)
  let next_id = ref (Clique.n_cliques cliques) in
  let pair_locks : (region * region, weak_lock) Hashtbl.t = Hashtbl.create 64 in
  let decisions =
    List.map
      (fun (rp : Relay.Detect.race_pair) ->
        let f1 = rp.rp_s1.st_fname and f2 = rp.rp_s2.st_fname in
        let use_func_lock =
          opts.opt_funcs
          && Clique.clique_of cliques (f1, f2) <> None
        in
        if use_func_lock then begin
          let ci = Option.get (Clique.clique_of cliques (f1, f2)) in
          let lock = { wl_id = ci; wl_gran = Gfunc } in
          let mk f =
            {
              sd_region = RFunc f;
              sd_ranges = [];
              sd_reason = Fmt.str "non-concurrent functions; clique %d" ci;
            }
          in
          { pd_pair = rp; pd_lock = lock; pd_s1 = mk f1; pd_s2 = mk f2 }
        end
        else begin
          let s1 = decide_side p ix prof opts rp.rp_s1 in
          let s2 = decide_side p ix prof opts rp.rp_s2 in
          let key =
            if compare s1.sd_region s2.sd_region <= 0 then
              (s1.sd_region, s2.sd_region)
            else (s2.sd_region, s1.sd_region)
          in
          let lock =
            match Hashtbl.find_opt pair_locks key with
            | Some l -> l
            | None ->
                let gran =
                  (* coarser side classifies the lock *)
                  let g1 = region_gran s1.sd_region
                  and g2 = region_gran s2.sd_region in
                  if granularity_rank g1 <= granularity_rank g2 then g1 else g2
                in
                let l = { wl_id = !next_id; wl_gran = gran } in
                incr next_id;
                Hashtbl.replace pair_locks key l;
                l
          in
          { pd_pair = rp; pd_lock = lock; pd_s1 = s1; pd_s2 = s2 }
        end)
      report.races
  in
  (* 3. attach acquisitions to regions; remember (sid, acq, region) *)
  let func : (string, weak_acq list) Hashtbl.t = Hashtbl.create 16 in
  let loop : (int, weak_acq list) Hashtbl.t = Hashtbl.create 16 in
  let run : (int, weak_acq list) Hashtbl.t = Hashtbl.create 16 in
  let stmt : (int, weak_acq list) Hashtbl.t = Hashtbl.create 16 in
  (* the same lock may be attached to one region by several race pairs,
     each bringing the ranges of its own racy statement: claims must
     MERGE (a total claim absorbs everything) or an access protected by a
     dropped range would escape the lock's mutual exclusion *)
  let attach_tbl tbl key (acq : weak_acq) =
    let cur = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
    match List.partition (fun a -> a.wa_lock = acq.wa_lock) cur with
    | [], _ -> Hashtbl.replace tbl key (acq :: cur)
    | existing :: _, rest ->
        let merged =
          if existing.wa_ranges = [] || acq.wa_ranges = [] then []
          else
            List.sort_uniq compare (existing.wa_ranges @ acq.wa_ranges)
        in
        Hashtbl.replace tbl key
          ({ wa_lock = acq.wa_lock; wa_ranges = merged } :: rest)
  in
  let attach (r : region) (acq : weak_acq) =
    match r with
    | RFunc f -> attach_tbl func f acq
    | RLoop (_, lid) -> attach_tbl loop lid acq
    | RRun (_, head) -> attach_tbl run head acq
    | RStmt sid -> attach_tbl stmt sid acq
  in
  let per_sid : (int, (region * weak_acq) list) Hashtbl.t = Hashtbl.create 64 in
  let note sid r acq =
    let cur = Option.value (Hashtbl.find_opt per_sid sid) ~default:[] in
    Hashtbl.replace per_sid sid ((r, acq) :: cur)
  in
  List.iter
    (fun pd ->
      let acq1 = { wa_lock = pd.pd_lock; wa_ranges = pd.pd_s1.sd_ranges } in
      let acq2 = { wa_lock = pd.pd_lock; wa_ranges = pd.pd_s2.sd_ranges } in
      attach pd.pd_s1.sd_region acq1;
      attach pd.pd_s2.sd_region acq2;
      note pd.pd_pair.rp_s1.st_sid pd.pd_s1.sd_region acq1;
      note pd.pd_pair.rp_s2.st_sid pd.pd_s2.sd_region acq2)
    decisions;
  (* 4. innermost-region correction: if a sid's lock is attached to an
     outer region but a finer instrumented region contains the sid, the
     inner region must also acquire the lock (inner regions suspend outer
     ones) *)
  let innermost_of sid : region option =
    match Hashtbl.find_opt ix.ix_sites sid with
    | None -> None
    | Some info ->
        if Hashtbl.mem stmt sid then Some (RStmt sid)
        else if Hashtbl.mem run info.si_run then
          Some (RRun (info.si_fname, info.si_run))
        else
          let rec from_inner = function
            | [] -> None
            | (l : stmt) :: rest -> (
                match l.skind with
                | While (_, _, li) when Hashtbl.mem loop li.lid ->
                    Some (RLoop (info.si_fname, li.lid))
                | _ -> from_inner rest)
          in
          let r = from_inner (List.rev info.si_loops) in
          if r <> None then r
          else if Hashtbl.mem func info.si_fname then Some (RFunc info.si_fname)
          else None
  in
  Hashtbl.iter
    (fun sid attached ->
      match innermost_of sid with
      | None -> ()
      | Some inner ->
          List.iter
            (fun (r, acq) -> if r <> inner then attach inner acq)
            attached)
    per_sid;
  (* canonical ordering inside each region *)
  let sort_tbl tbl =
    Hashtbl.iter
      (fun k v ->
        Hashtbl.replace tbl k
          (List.sort (fun a b -> compare_weak_lock a.wa_lock b.wa_lock) v))
      tbl
  in
  (* Hashtbl.iter + replace on the same table is unsafe; snapshot first *)
  let snapshot_sort tbl =
    let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    List.iter
      (fun (k, v) ->
        Hashtbl.replace tbl k
          (List.sort (fun a b -> compare_weak_lock a.wa_lock b.wa_lock) v))
      entries
  in
  ignore sort_tbl;
  snapshot_sort func;
  snapshot_sort loop;
  snapshot_sort run;
  snapshot_sort stmt;
  {
    pl_func = func;
    pl_loop = loop;
    pl_run = run;
    pl_stmt = stmt;
    pl_decisions = decisions;
    pl_cliques = cliques;
    pl_n_locks = !next_id;
    pl_static_pairs = report.Relay.Detect.n_candidates;
    pl_pruned_pairs = List.length report.Relay.Detect.pruned;
  }

(** Total number of lock acquisitions the plan's regions perform (static
    count over all region tables; the quantity the {!Lockopt} pass
    shrinks). *)
let n_acquisitions (t : t) : int =
  let sum tbl = Hashtbl.fold (fun _ acqs acc -> acc + List.length acqs) tbl 0 in
  sum t.pl_func + sum t.pl_loop + sum t.pl_run + sum t.pl_stmt

let pp_summary ppf (t : t) =
  let count tbl = Hashtbl.length tbl in
  Fmt.pf ppf
    "plan: %d locks, %d func regions, %d loop regions, %d bb regions, %d \
     instr regions (%d static pairs, %d pruned)"
    t.pl_n_locks (count t.pl_func) (count t.pl_loop) (count t.pl_run)
    (count t.pl_stmt) t.pl_static_pairs t.pl_pruned_pairs
