(** Corpus-driven plan refinement (the ROADMAP's replay-fed loop; the
    replay-based detection of Ronsse & De Bosschere turned into an
    optimizer). The paper's §4 profiling decides lock {e granularity}
    from a handful of profiling runs; this pass decides lock
    {e existence} from fleet evidence — every distinct recording of a
    stress corpus is replayed with the vector-clock detector attached
    and weak locks invisible to it, so a race report names exactly the
    pairs whose weak locks are load-bearing, and silence over enough
    distinct schedules licenses dropping the lock.

    Soundness is layered, never traded: dropped pairs stay in the RELAY
    report (refinement narrows instrumentation, not detection), and
    {!validate} re-records the corpus under the refined plan with weak
    locks {e counted} as synchronization — any dynamic race is a typed
    violation that rejects the plan. *)

open Interp
module Plan = Instrument.Plan

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let gran_name g = Fmt.str "%a" Minic.Ast.pp_granularity g

let gran_of_name = function
  | "func" -> Some Minic.Ast.Gfunc
  | "loop" -> Some Minic.Ast.Gloop
  | "bb" -> Some Minic.Ast.Gbb
  | "instr" -> Some Minic.Ast.Ginstr
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Corpus manifest *)

module Corpus = struct
  exception Bad of string

  type recording = {
    cr_seed : int;
    cr_strategy : Engine.strategy;
    cr_digest : string;
    cr_ticks : int;
    cr_input : string;
    cr_order : string;
  }

  type kind = Kbench | Ksrc

  type entry = {
    ce_name : string;
    ce_kind : kind;
    ce_source : string option;
    ce_io_seed : int;
    ce_cores : int;
    ce_plan_digest : string;
    ce_recordings : recording list;
  }

  type t = { co_dir : string; co_entries : entry list }

  let manifest = "corpus.json"
  let schema = "chimera-corpus/1"

  let save (t : t) =
    let recording r =
      Bjson.Obj
        [ ("seed", Bjson.int r.cr_seed);
          ("strategy", Str (Engine.strategy_name r.cr_strategy));
          ("digest", Str r.cr_digest); ("ticks", Bjson.int r.cr_ticks);
          ("input", Str r.cr_input); ("order", Str r.cr_order) ]
    in
    let entry e =
      Bjson.Obj
        [ ("name", Str e.ce_name);
          ("kind", Str (match e.ce_kind with Kbench -> "bench" | Ksrc -> "src"));
          ( "source",
            Option.fold ~none:Bjson.Null ~some:(fun s -> Bjson.Str s) e.ce_source );
          ("io_seed", Bjson.int e.ce_io_seed); ("cores", Bjson.int e.ce_cores);
          ("plan_digest", Str e.ce_plan_digest);
          ("recordings", List (List.map recording e.ce_recordings)) ]
    in
    let programs = Bjson.List (List.map entry t.co_entries) in
    write_file (Filename.concat t.co_dir manifest)
      (Bjson.to_string (Obj [ ("schema", Str schema); ("programs", programs) ]) ^ "\n")

  let load ~dir : t =
    let path = Filename.concat dir manifest in
    let doc =
      match Bjson.load_file path with
      | j -> j
      | exception Sys_error m -> raise (Bad ("cannot read manifest: " ^ m))
      | exception Bjson.Bad m ->
          raise (Bad (Fmt.str "malformed manifest %s: %s" path m))
    in
    let field what get j =
      match get j with
      | v -> v
      | exception Bjson.Bad m ->
          raise (Bad (Fmt.str "malformed manifest %s: %s (%s)" path m what))
    in
    let s = field "schema" (fun j -> Bjson.str_exn "schema" (Bjson.mem "schema" j)) doc in
    if s <> schema then
      raise (Bad (Fmt.str "unsupported corpus schema %S (want %S)" s schema));
    let entry j =
      let str k = field k (fun j -> Bjson.str_exn k (Bjson.mem k j)) j in
      let num k = int_of_float (field k (fun j -> Bjson.num_exn k (Bjson.mem k j)) j) in
      let recording rj =
        let rstr k = field k (fun j -> Bjson.str_exn k (Bjson.mem k j)) rj in
        let rnum k =
          int_of_float (field k (fun j -> Bjson.num_exn k (Bjson.mem k j)) rj)
        in
        let sname = rstr "strategy" in
        let strategy =
          match Engine.strategy_of_string sname with
          | Some st -> st
          | None -> raise (Bad (Fmt.str "unknown strategy %S in manifest" sname))
        in
        {
          cr_seed = rnum "seed";
          cr_strategy = strategy;
          cr_digest = rstr "digest";
          cr_ticks = rnum "ticks";
          cr_input = rstr "input";
          cr_order = rstr "order";
        }
      in
      {
        ce_name = str "name";
        ce_kind =
          (match str "kind" with
          | "bench" -> Kbench
          | "src" -> Ksrc
          | k -> raise (Bad (Fmt.str "unknown program kind %S" k)));
        ce_source =
          (match Bjson.mem "source" j with
          | Some (Bjson.Str s) -> Some s
          | _ -> None);
        ce_io_seed = num "io_seed";
        ce_cores = num "cores";
        ce_plan_digest = str "plan_digest";
        ce_recordings =
          List.map recording
            (field "recordings" (fun j -> Bjson.list_exn "recordings" (Bjson.mem "recordings" j)) j);
      }
    in
    {
      co_dir = dir;
      co_entries =
        List.map entry
          (field "programs" (fun j -> Bjson.list_exn "programs" (Bjson.mem "programs" j)) doc);
    }

  let load_log (t : t) (e : entry) (r : recording) : Replay.Log.t =
    let read rel =
      let path = Filename.concat t.co_dir rel in
      match read_file path with
      | s -> s
      | exception Sys_error m ->
          raise (Bad (Fmt.str "cannot read corpus log %s: %s" path m))
    in
    let input = read r.cr_input and order = read r.cr_order in
    let log =
      match Replay.Log.decode input order with
      | l -> l
      | exception Replay.Log.Corrupt m ->
          raise (Bad (Fmt.str "corrupt corpus log %s/%s: %s" e.ce_name r.cr_input m))
    in
    if Chimera.Stress.log_digest ~input ~order <> r.cr_digest then
      raise
        (Bad
           (Fmt.str "corpus log %s/%s drifted from its content address" e.ce_name
              r.cr_input));
    log

  let rec mkdir_p d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end

  let of_stress ~dir ~cores ~meta (rp : Chimera.Stress.report) : t =
    mkdir_p dir;
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let live =
      List.filter
        (fun (jr : Chimera.Stress.job_result) ->
          (not jr.jr_recorded.Chimera.Runner.rc_outcome.Engine.o_timed_out)
          &&
          let key = jr.jr_job.jb_prog.sp_name ^ "/" ^ jr.jr_digest in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            true
          end)
        rp.rp_results
    in
    let entries =
      List.filter_map
        (fun (name, (kind, source, io_seed, plan_digest)) ->
          let recs =
            List.filter_map
              (fun (jr : Chimera.Stress.job_result) ->
                let j = jr.jr_job in
                if j.jb_prog.sp_name <> name then None
                else begin
                  let base =
                    Fmt.str "%s.%s.%d" name
                      (Engine.strategy_name j.jb_strategy)
                      j.jb_seed
                  in
                  let input = base ^ ".input.log"
                  and order = base ^ ".order.log" in
                  let r = jr.jr_recorded in
                  write_file (Filename.concat dir input) r.Chimera.Runner.rc_input;
                  write_file (Filename.concat dir order) r.rc_order;
                  Some
                    {
                      cr_seed = j.jb_seed;
                      cr_strategy = j.jb_strategy;
                      cr_digest = jr.jr_digest;
                      cr_ticks = jr.jr_ticks;
                      cr_input = input;
                      cr_order = order;
                    }
                end)
              live
          in
          if recs = [] then None
          else
            Some
              {
                ce_name = name;
                ce_kind = kind;
                ce_source = source;
                ce_io_seed = io_seed;
                ce_cores = cores;
                ce_plan_digest = plan_digest;
                ce_recordings = recs;
              })
        meta
    in
    { co_dir = dir; co_entries = entries }
end

(* ------------------------------------------------------------------ *)
(* Evidence *)

type witness = {
  wt_sid1 : int;
  wt_sid2 : int;
  wt_addr : string;
  wt_seed : int;
  wt_strategy : string;
  wt_exact : bool;
}

type pair_evidence = {
  pe_runs : int;
  pe_both : int;
  pe_overlap : int;
  pe_witness : witness option;
}

type observation = {
  ob_seed : int;
  ob_strategy : Engine.strategy;
  ob_races : Dynrace.race list;
  ob_reached : (int, unit) Hashtbl.t;
  ob_addrs : (int, (Runtime.Key.addr, unit) Hashtbl.t) Hashtbl.t;
  ob_checks : int;
}

(** Replay one recording with the detector attached and weak locks
    invisible to it ([track_weak:false]): the execution order is the
    recorded one, so a race in the report means the recorded order ran
    the pair concurrently with nothing but a weak lock between them —
    and silence means real synchronization ordered the pair in this
    schedule. The on_mem probe additionally tracks, per statically racy
    sid, whether it executed and which addresses it touched (the
    coverage half of the evidence lattice). *)
let observe ~(config : Engine.config) ~(io : Iomodel.t)
    ~(instrumented : Minic.Ast.program) ~(racy_sids : (int, unit) Hashtbl.t)
    ~seed ~strategy (log : Replay.Log.t) : observation =
  let det = Dynrace.create ~track_weak:false () in
  let hooks = Dynrace.attach det (Engine.no_hooks ()) in
  let reached : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let addrs : (int, (Runtime.Key.addr, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let det_mem =
    match hooks.Engine.on_mem with Some f -> f | None -> assert false
  in
  hooks.Engine.on_mem <-
    Some
      (fun tid addr ~write ~sid ->
        det_mem tid addr ~write ~sid;
        if Hashtbl.mem racy_sids sid then begin
          Hashtbl.replace reached sid ();
          let tbl =
            match Hashtbl.find_opt addrs sid with
            | Some t -> t
            | None ->
                let t = Hashtbl.create 16 in
                Hashtbl.add addrs sid t;
                t
          in
          Hashtbl.replace tbl addr ()
        end);
  ignore (Chimera.Runner.replay ~config ~hooks ~io instrumented log);
  {
    ob_seed = seed;
    ob_strategy = strategy;
    ob_races = Dynrace.races det;
    ob_reached = reached;
    ob_addrs = addrs;
    ob_checks = Dynrace.n_checks det;
  }

let observe_recordings ?pool ?(replay_seed_delta = 7919) ~cores ~io
    ~instrumented ~racy_sids recs : observation list =
  Par.Pool.map_opt pool
    (fun ((seed, strategy), log) ->
      let config =
        {
          Engine.default_config with
          seed = seed + replay_seed_delta;
          cores;
          strategy;
        }
      in
      observe ~config ~io ~instrumented ~racy_sids ~seed ~strategy log)
    recs

let corpus_observations ?pool ?replay_seed_delta ~cores ~io ~instrumented
    ~racy_sids ~jobs () : observation list =
  let recorded =
    Par.Pool.map_opt pool
      (fun (seed, strategy) ->
        let config =
          { Engine.default_config with seed; cores; strategy }
        in
        ((seed, strategy), Chimera.Runner.record ~config ~io instrumented))
      jobs
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let distinct =
    List.filter_map
      (fun (key, (r : Chimera.Runner.recorded)) ->
        let d = Chimera.Stress.log_digest ~input:r.rc_input ~order:r.rc_order in
        if Hashtbl.mem seen d then None
        else begin
          Hashtbl.replace seen d ();
          Some (key, r.rc_log)
        end)
      recorded
  in
  observe_recordings ?pool ?replay_seed_delta ~cores ~io ~instrumented
    ~racy_sids distinct

let observe_corpus ?pool ?replay_seed_delta ~io ~instrumented ~racy_sids
    (t : Corpus.t) (e : Corpus.entry) : observation list =
  let recs =
    List.map
      (fun (r : Corpus.recording) ->
        ((r.cr_seed, r.cr_strategy), Corpus.load_log t e r))
      e.ce_recordings
  in
  observe_recordings ?pool ?replay_seed_delta ~cores:e.ce_cores ~io
    ~instrumented ~racy_sids recs

(* ------------------------------------------------------------------ *)
(* Refinement *)

type prov = Dropped_never_racy | Kept_witnessed | Kept_unexercised | Kept_shared

let prov_name = function
  | Dropped_never_racy -> "dropped:never-racy"
  | Kept_witnessed -> "kept:witnessed"
  | Kept_unexercised -> "kept:unexercised"
  | Kept_shared -> "kept"

type pair_result = {
  pr_decision : Plan.pair_decision;
  pr_evidence : pair_evidence;
  pr_prov : prov;
}

let pp_pair_result ppf (pr : pair_result) =
  let pd = pr.pr_decision in
  let ev = pr.pr_evidence in
  Fmt.pf ppf "%a@.  lock %a  %s (both %d/%d, overlap %d%a)"
    Relay.Detect.pp_race_pair pd.pd_pair Minic.Ast.pp_weak_lock pd.pd_lock
    (prov_name pr.pr_prov) ev.pe_both ev.pe_runs ev.pe_overlap
    (fun ppf -> function
      | None -> ()
      | Some w ->
          Fmt.pf ppf ", witness %d/%d @@ %s seed=%d strategy=%s%s" w.wt_sid1
            w.wt_sid2 w.wt_addr w.wt_seed w.wt_strategy
            (if w.wt_exact then "" else " (one-sided)"))
    ev.pe_witness

type t = {
  rf_pairs : pair_result list;
  rf_dropped : Minic.Ast.weak_lock list;
  rf_plan : Plan.t;
  rf_min_coverage : int;
  rf_base_acqs : int;
  rf_refined_acqs : int;
}

let pair_sids (pd : Plan.pair_decision) =
  (pd.pd_pair.rp_s1.st_sid, pd.pd_pair.rp_s2.st_sid)

(** Aggregate observations into per-pair evidence, in [pl_decisions]
    order. A witness is the first race (in observation order, then race
    order) touching the pair; exact two-sided matches are preferred over
    one-sided ones. One race can witness several pairs — a race touching
    a sid disqualifies every pair that sid belongs to, conservatively. *)
let evidence ~(plan : Plan.t) (obs : observation list) :
    (Plan.pair_decision * pair_evidence) list =
  let runs = List.length obs in
  List.map
    (fun (pd : Plan.pair_decision) ->
      let s1, s2 = pair_sids pd in
      let both =
        List.length
          (List.filter
             (fun ob -> Hashtbl.mem ob.ob_reached s1 && Hashtbl.mem ob.ob_reached s2)
             obs)
      in
      let overlap =
        List.length
          (List.filter
             (fun ob ->
               match (Hashtbl.find_opt ob.ob_addrs s1, Hashtbl.find_opt ob.ob_addrs s2) with
               | Some a1, Some a2 ->
                   let small, big =
                     if Hashtbl.length a1 <= Hashtbl.length a2 then (a1, a2)
                     else (a2, a1)
                   in
                   Hashtbl.fold
                     (fun addr () acc -> acc || Hashtbl.mem big addr)
                     small false
               | _ -> false)
             obs)
      in
      let witness_in ~exact =
        List.find_map
          (fun ob ->
            List.find_map
              (fun (r : Dynrace.race) ->
                let hit =
                  if exact then
                    (r.dr_sid1 = s1 && r.dr_sid2 = s2)
                    || (r.dr_sid1 = s2 && r.dr_sid2 = s1)
                  else r.dr_sid1 = s1 || r.dr_sid1 = s2 || r.dr_sid2 = s1 || r.dr_sid2 = s2
                in
                if hit then
                  Some
                    {
                      wt_sid1 = r.dr_sid1;
                      wt_sid2 = r.dr_sid2;
                      wt_addr = Fmt.str "%a" Runtime.Key.pp_addr r.dr_addr;
                      wt_seed = ob.ob_seed;
                      wt_strategy = Engine.strategy_name ob.ob_strategy;
                      wt_exact = exact;
                    }
                else None)
              ob.ob_races)
          obs
      in
      let witness =
        match witness_in ~exact:true with
        | Some w -> Some w
        | None -> witness_in ~exact:false
      in
      (pd, { pe_runs = runs; pe_both = both; pe_overlap = overlap; pe_witness = witness }))
    plan.pl_decisions

(* lock identity: granularities allocate ids independently *)
let lock_key (l : Minic.Ast.weak_lock) =
  (Minic.Ast.granularity_rank l.wl_gran, l.wl_id)

let drop_locks (plan : Plan.t) (dropped : (int * int, unit) Hashtbl.t) : Plan.t =
  let filter_tbl :
      'k.
      ('k, Minic.Ast.weak_acq list) Hashtbl.t ->
      ('k, Minic.Ast.weak_acq list) Hashtbl.t =
   fun tbl ->
    let out = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter
      (fun k acqs ->
        match
          List.filter
            (fun (a : Minic.Ast.weak_acq) ->
              not (Hashtbl.mem dropped (lock_key a.wa_lock)))
            acqs
        with
        | [] -> ()
        | acqs -> Hashtbl.replace out k acqs)
      tbl;
    out
  in
  {
    plan with
    Plan.pl_func = filter_tbl plan.pl_func;
    pl_loop = filter_tbl plan.pl_loop;
    pl_run = filter_tbl plan.pl_run;
    pl_stmt = filter_tbl plan.pl_stmt;
  }

let refine ?(min_coverage = 2) ~(plan : Plan.t) (obs : observation list) : t =
  let ev = evidence ~plan obs in
  (* a pair qualifies for dropping on its own evidence; its lock drops
     only if every pair the lock guards qualifies (cliques and shared
     region-pair locks make one lock guard many pairs) *)
  let qualifies (_, e) = e.pe_witness = None && e.pe_both >= min_coverage in
  let lock_blocked : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ((pd : Plan.pair_decision), _ as pe) ->
      if not (qualifies pe) then
        Hashtbl.replace lock_blocked (lock_key pd.pd_lock) ())
    ev;
  let dropped : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ((pd : Plan.pair_decision), _ as pe) ->
      if qualifies pe && not (Hashtbl.mem lock_blocked (lock_key pd.pd_lock))
      then Hashtbl.replace dropped (lock_key pd.pd_lock) ())
    ev;
  let pairs =
    List.map
      (fun ((pd : Plan.pair_decision), e) ->
        let prov =
          match e.pe_witness with
          | Some _ -> Kept_witnessed
          | None ->
              if e.pe_both < min_coverage then Kept_unexercised
              else if Hashtbl.mem dropped (lock_key pd.pd_lock) then
                Dropped_never_racy
              else Kept_shared
        in
        { pr_decision = pd; pr_evidence = e; pr_prov = prov })
      ev
  in
  let dropped_locks =
    List.sort_uniq Minic.Ast.compare_weak_lock
      (List.filter_map
         (fun pr ->
           if pr.pr_prov = Dropped_never_racy then Some pr.pr_decision.pd_lock
           else None)
         pairs)
  in
  let refined = drop_locks plan dropped in
  {
    rf_pairs = pairs;
    rf_dropped = dropped_locks;
    rf_plan = refined;
    rf_min_coverage = min_coverage;
    rf_base_acqs = Plan.n_acquisitions plan;
    rf_refined_acqs = Plan.n_acquisitions refined;
  }

let pp_summary ppf (t : t) =
  let count p = List.length (List.filter (fun pr -> pr.pr_prov = p) t.rf_pairs) in
  Fmt.pf ppf
    "%d pairs: %d dropped (never-racy @@ coverage>=%d), %d witnessed, %d \
     unexercised, %d kept (shared lock); locks dropped %d; static \
     acquisitions %d -> %d"
    (List.length t.rf_pairs)
    (count Dropped_never_racy)
    t.rf_min_coverage (count Kept_witnessed) (count Kept_unexercised)
    (count Kept_shared)
    (List.length t.rf_dropped)
    t.rf_base_acqs t.rf_refined_acqs

(* ------------------------------------------------------------------ *)
(* Deployment plans *)

(** Order-independent content address of a plan's region tables: the
    four tables are folded to sorted association lists (hashtable
    iteration order must not leak into the digest) and hashed together
    with the lock count. *)
let plan_digest (p : Plan.t) : string =
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( sorted p.Plan.pl_func,
            sorted p.pl_loop,
            sorted p.pl_run,
            sorted p.pl_stmt,
            p.pl_n_locks )
          []))

exception Bad_plan of string

type deployment = {
  dp_program : string;
  dp_plan_digest : string;
  dp_min_coverage : int;
  dp_dropped : Minic.Ast.weak_lock list;
  dp_pairs : (int * int * string) list;
}

let deployment_schema = "chimera-refined-plan/1"

let deployment_of ~program ~(base : Plan.t) (t : t) : deployment =
  {
    dp_program = program;
    dp_plan_digest = plan_digest base;
    dp_min_coverage = t.rf_min_coverage;
    dp_dropped = t.rf_dropped;
    dp_pairs =
      List.map
        (fun pr ->
          let s1, s2 = pair_sids pr.pr_decision in
          (s1, s2, prov_name pr.pr_prov))
        t.rf_pairs;
  }

let deployment_json (d : deployment) : string =
  let lock (l : Minic.Ast.weak_lock) =
    Bjson.Obj [ ("gran", Str (gran_name l.wl_gran)); ("id", Bjson.int l.wl_id) ]
  in
  let pair (s1, s2, prov) =
    Bjson.Obj [ ("sid1", Bjson.int s1); ("sid2", Bjson.int s2); ("prov", Str prov) ]
  in
  Bjson.to_string
    (Obj
       [ ("schema", Str deployment_schema); ("program", Str d.dp_program);
         ("plan_digest", Str d.dp_plan_digest);
         ("min_coverage", Bjson.int d.dp_min_coverage);
         ("dropped", List (List.map lock d.dp_dropped));
         ("pairs", List (List.map pair d.dp_pairs)) ])
  ^ "\n"

let deployment_of_json (s : string) : deployment =
  let doc =
    match Bjson.parse s with
    | j -> j
    | exception Bjson.Bad m -> raise (Bad_plan ("malformed plan JSON: " ^ m))
  in
  let str k =
    match Bjson.str_exn k (Bjson.mem k doc) with
    | v -> v
    | exception Bjson.Bad m -> raise (Bad_plan m)
  in
  let sc = str "schema" in
  if sc <> deployment_schema then
    raise
      (Bad_plan (Fmt.str "unsupported plan schema %S (want %S)" sc deployment_schema));
  let lock j =
    match (Bjson.mem "gran" j, Bjson.mem "id" j) with
    | Some (Bjson.Str g), Some (Bjson.Num id) -> (
        match gran_of_name g with
        | Some gran -> { Minic.Ast.wl_id = int_of_float id; wl_gran = gran }
        | None -> raise (Bad_plan (Fmt.str "unknown granularity %S" g)))
    | _ -> raise (Bad_plan "malformed dropped-lock entry")
  in
  let pair j =
    match (Bjson.mem "sid1" j, Bjson.mem "sid2" j, Bjson.mem "prov" j) with
    | Some (Bjson.Num a), Some (Bjson.Num b), Some (Bjson.Str p) ->
        (int_of_float a, int_of_float b, p)
    | _ -> raise (Bad_plan "malformed pair entry")
  in
  let list k f =
    match Bjson.list_exn k (Bjson.mem k doc) with
    | l -> List.map f l
    | exception Bjson.Bad m -> raise (Bad_plan m)
  in
  {
    dp_program = str "program";
    dp_plan_digest = str "plan_digest";
    dp_min_coverage =
      (match Bjson.mem "min_coverage" doc with
      | Some (Bjson.Num f) -> int_of_float f
      | _ -> raise (Bad_plan "missing number min_coverage"));
    dp_dropped = list "dropped" lock;
    dp_pairs = list "pairs" pair;
  }

let load_deployment path : deployment =
  match read_file path with
  | s -> deployment_of_json s
  | exception Sys_error m -> raise (Bad_plan ("cannot read plan: " ^ m))

type deploy_error =
  | Digest_mismatch of { de_expected : string; de_got : string }
  | Unknown_lock of Minic.Ast.weak_lock

let pp_deploy_error ppf = function
  | Digest_mismatch { de_expected; de_got } ->
      Fmt.pf ppf
        "plan digest mismatch: deployment refines %s but the computed plan \
         is %s (stale corpus or different analysis options?)"
        de_expected de_got
  | Unknown_lock l ->
      Fmt.pf ppf "dropped lock %a does not exist in the plan"
        Minic.Ast.pp_weak_lock l

let plan_locks (p : Plan.t) : (int * int, unit) Hashtbl.t =
  let locks = Hashtbl.create 64 in
  let scan_tbl tbl =
    Hashtbl.iter
      (fun _ acqs ->
        List.iter
          (fun (a : Minic.Ast.weak_acq) ->
            Hashtbl.replace locks (lock_key a.wa_lock) ())
          acqs)
      tbl
  in
  scan_tbl p.Plan.pl_func;
  scan_tbl p.pl_loop;
  scan_tbl p.pl_run;
  scan_tbl p.pl_stmt;
  locks

let apply_deployment ~(plan : Plan.t) (d : deployment) :
    (Plan.t, deploy_error) result =
  let got = plan_digest plan in
  if got <> d.dp_plan_digest then
    Error (Digest_mismatch { de_expected = d.dp_plan_digest; de_got = got })
  else begin
    let known = plan_locks plan in
    match
      List.find_opt (fun l -> not (Hashtbl.mem known (lock_key l))) d.dp_dropped
    with
    | Some l -> Error (Unknown_lock l)
    | None ->
        let dropped = Hashtbl.create 16 in
        List.iter (fun l -> Hashtbl.replace dropped (lock_key l) ()) d.dp_dropped;
        Ok (drop_locks plan dropped)
  end

(* ------------------------------------------------------------------ *)
(* Safety valve *)

type violation =
  | Uncovered of { vu_seed : int; vu_strategy : string; vu_race : Dynrace.race }
  | Reintroduced of {
      vr_seed : int;
      vr_strategy : string;
      vr_race : Dynrace.race;
    }
  | Diverged of {
      vd_seed : int;
      vd_strategy : string;
      vd_div : Chimera.Runner.divergence;
    }

let pp_violation ppf = function
  | Uncovered { vu_seed; vu_strategy; vu_race } ->
      Fmt.pf ppf
        "UNCOVERED dynamic race (not in the static report) under refined \
         plan [seed=%d strategy=%s]: %a"
        vu_seed vu_strategy Dynrace.pp_race vu_race
  | Reintroduced { vr_seed; vr_strategy; vr_race } ->
      Fmt.pf ppf
        "reintroduced race (a dropped lock was load-bearing) under refined \
         plan [seed=%d strategy=%s]: %a"
        vr_seed vr_strategy Dynrace.pp_race vr_race
  | Diverged { vd_seed; vd_strategy; vd_div } ->
      Fmt.pf ppf "replay diverged under refined plan [seed=%d strategy=%s]: %a"
        vd_seed vd_strategy Chimera.Runner.pp_divergence vd_div

type validation = {
  va_jobs : int;
  va_races_checked : int;
  va_violations : violation list;
}

(** The proof obligation of a refined plan: re-record every corpus cell
    under the refined instrumentation with the detector counting weak
    locks as synchronization. Zero races means the refined program is
    still dynamically race-free on the corpus schedules — exactly the
    property record/replay determinism rests on. Each race is classified
    against the static report ([Uncovered] breaks the soundness floor;
    [Reintroduced] convicts a dropped lock), and each cell's recording
    must still replay to the same execution. *)
let validate ?pool ?(replay_seed_delta = 7919) ~cores ~(io : Iomodel.t)
    ~(report : Relay.Detect.report) ~(refined : Minic.Ast.program)
    ~(jobs : (int * Engine.strategy) list) () : validation =
  let cells =
    Par.Pool.map_opt pool
      (fun (seed, strategy) ->
        let config = { Engine.default_config with seed; cores; strategy } in
        let det = Dynrace.create ~track_weak:true () in
        let hooks = Dynrace.attach det (Engine.no_hooks ()) in
        let r = Chimera.Runner.record ~config ~hooks ~io refined in
        let sname = Engine.strategy_name strategy in
        let race_violations =
          List.map
            (fun (race : Dynrace.race) ->
              let covered =
                Hashtbl.mem report.racy_sids race.dr_sid1
                && Hashtbl.mem report.racy_sids race.dr_sid2
              in
              if covered then
                Reintroduced { vr_seed = seed; vr_strategy = sname; vr_race = race }
              else
                Uncovered { vu_seed = seed; vu_strategy = sname; vu_race = race })
            (Dynrace.races det)
        in
        let replay_violations =
          let o =
            Chimera.Runner.replay
              ~config:{ config with seed = seed + replay_seed_delta }
              ~io refined r.rc_log
          in
          match Chimera.Runner.same_execution r.rc_outcome o with
          | Ok () -> []
          | Error d ->
              [ Diverged { vd_seed = seed; vd_strategy = sname; vd_div = d } ]
        in
        (List.length (Dynrace.races det), race_violations @ replay_violations))
      jobs
  in
  {
    va_jobs = List.length jobs;
    va_races_checked = List.fold_left (fun acc (n, _) -> acc + n) 0 cells;
    va_violations = List.concat_map snd cells;
  }

let runtime_weak_acqs (o : Engine.outcome) : int =
  Array.fold_left ( + ) 0 o.o_stats.n_weak_acq
