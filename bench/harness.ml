(** Shared machinery for the experiment harness: per-benchmark pipeline
    runs with caching, multi-trial averaging, and the measurement record
    each table/figure selects from. *)

type measurement = {
  m_name : string;
  m_kind : Bench_progs.Registry.kind;
  m_workers : int;
  (* static *)
  m_races : int;          (* pairs kept after MHP pruning *)
  m_static_pairs : int;   (* RELAY candidate pairs before pruning *)
  m_pruned_pairs : int;   (* pairs removed by the MHP pass *)
  m_plan_acqs : int;      (* static acquisitions before lockopt elision *)
  m_elided_acqs : int;    (* acquisitions the must-lockset pass removed *)
  m_loc : int;
  (* DRF logs (Table 2 left) *)
  m_syscalls : float;
  m_syncops : float;
  (* weak-lock logs by granularity: func, loop, bb, instr *)
  m_weak : float array;
  (* performance *)
  m_native : float;
  m_record : float;
  m_replay : float;
  (* log sizes, compressed bytes *)
  m_input_log : float;
  m_order_log : float;
  (* dynamic memory operations + weak ops (Fig. 6) *)
  m_memops : float;
  (* cost decomposition (Fig. 7), in ticks *)
  m_weak_op_ticks : float;
  m_log_ticks : float;
  m_contention : float array;  (* blocked ticks per granularity *)
  m_forced : int;
  (* handoff outcomes after timeout-preemptions, summed over trials *)
  m_handoff_served : int;
  m_handoff_expired : int;
  (* contention metrics from a traced record run (only with ~traced) *)
  m_trace : Trace.summary option;
}

(** Total block events across locks in the traced run (0 untraced). *)
let block_events (m : measurement) =
  match m.m_trace with
  | None -> 0
  | Some su ->
      List.fold_left (fun a lm -> a + lm.Trace.lm_blocks) 0 su.Trace.su_locks

(** Mean waiter-queue depth over all block events (0 if none). *)
let mean_queue_depth (m : measurement) =
  match m.m_trace with
  | None -> 0.
  | Some su ->
      let blocks, qsum =
        List.fold_left
          (fun (b, q) lm -> (b + lm.Trace.lm_blocks, q + lm.Trace.lm_queue_sum))
          (0, 0) su.Trace.su_locks
      in
      if blocks = 0 then 0. else float_of_int qsum /. float_of_int blocks

let record_ov (m : measurement) = m.m_record /. m.m_native
let replay_ov (m : measurement) = m.m_replay /. m.m_native

(** Mean weak-lock acquisitions per recorded run, all granularities. *)
let weak_total (m : measurement) = Array.fold_left ( +. ) 0. m.m_weak

(** Alias for the bench JSON: the runtime cost the pruning saves. *)
let runtime_acquisitions = weak_total

(* ------------------------------------------------------------------ *)
(* Domain-parallel execution: the harness fans per-benchmark (and
   per-config) pipeline runs out across a shared Par.Pool (bench main's
   -j flag). Experiments compute their measurements through par_map and
   print afterwards, so -j N output is byte-identical to -j 1. *)

let jobs_pool : Par.Pool.t option ref = ref None

(** Install the pool the experiments fan out on (none = serial). *)
let set_pool (p : Par.Pool.t) =
  jobs_pool := if Par.Pool.size p > 1 then Some p else None

let pool () = !jobs_pool

(** Parallel [List.map] on the harness pool; plain [List.map] at -j 1.
    Result order (and any exception) depends only on the input list. *)
let par_map f xs =
  match !jobs_pool with
  | Some p -> Par.Pool.map_list p f xs
  | None -> List.map f xs

(* Analysis memo: (bench, workers, scale, opts-tag) -> analysis, computed
   once. Concurrent trials that want the same key neither duplicate the
   analysis nor see a half-built one: the first caller installs
   [Computing] and runs the pipeline; the rest wait on the condition
   variable until the cell is [Ready]. A computation never blocks on the
   pool (its profile runs are serial), so every [Computing] cell has an
   owner making progress and waiters cannot deadlock. *)
type cache_cell = Computing | Ready of Chimera.Pipeline.analysis

let cache_lock = Mutex.create ()
let cache_cond = Condition.create ()

let analysis_cache : (string, cache_cell) Hashtbl.t = Hashtbl.create 32

let opts_tag (o : Instrument.Plan.options) =
  Fmt.str "%b%b%b%b" o.opt_funcs o.opt_loops o.opt_bb o.opt_masks

let analyze ?(lockopt = true) (b : Bench_progs.Registry.bench) ~opts ~workers
    ~scale =
  let key =
    Fmt.str "%s/%d/%d/%s%s" b.b_name workers scale (opts_tag opts)
      (if lockopt then "" else "/nolockopt")
  in
  let compute () =
    let src = b.b_source ~workers ~scale in
    Chimera.Pipeline.analyze ~opts ~profile_runs:12 ~lockopt
      ~profile_io:(fun i -> b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
      (Minic.Parser.parse ~file:b.b_name src)
  in
  Mutex.lock cache_lock;
  let rec get () =
    match Hashtbl.find_opt analysis_cache key with
    | Some (Ready an) ->
        Mutex.unlock cache_lock;
        an
    | Some Computing ->
        Condition.wait cache_cond cache_lock;
        get ()
    | None ->
        Hashtbl.replace analysis_cache key Computing;
        Mutex.unlock cache_lock;
        let finish cell =
          Mutex.lock cache_lock;
          (match cell with
          | Some an -> Hashtbl.replace analysis_cache key (Ready an)
          | None -> Hashtbl.remove analysis_cache key);
          Condition.broadcast cache_cond;
          Mutex.unlock cache_lock
        in
        let an =
          try compute ()
          with e ->
            finish None;
            raise e
        in
        finish (Some an);
        an
  in
  get ()

(** Measure one benchmark: [trials] seeds, averaged (the paper reports the
    mean of five trials, Section 7.1). Trials run concurrently on the
    harness pool; each is a pure function of its trial index, so the
    averages are bit-identical to the serial ones. *)
let measure ?(opts = Instrument.Plan.all_opts) ?(workers = 4) ?(cores = 4)
    ?(scale = -1) ?(trials = 3) ?lockopt ?(traced = false)
    ?(strategy = Interp.Engine.Sdefault) (b : Bench_progs.Registry.bench) :
    measurement =
  let scale = if scale < 0 then b.b_eval_scale else scale in
  let an = analyze ?lockopt b ~opts ~workers ~scale in
  let io = b.b_io ~seed:42 ~scale in
  let acc =
    try
      Chimera.Runner.run_trials ?pool:(pool ()) ~trials
        ~config_of:(fun t ->
          {
            Interp.Engine.default_config with
            seed = 1 + (t * 13);
            cores;
            strategy;
          })
        ~io_of:(fun _ -> io)
        ~original:an.an_prog ~instrumented:an.an_instrumented ()
    with Chimera.Runner.Trial_diverged tf ->
      Fmt.failwith "%s: replay diverged during benchmarking: %a" b.b_name
        Chimera.Runner.pp_trial_failure tf
  in
  let n = float_of_int trials in
  let avg f = List.fold_left (fun a x -> a +. f x) 0. acc /. n in
  let s_of (tr : Chimera.Runner.trial) = tr.tr_recorded.rc_outcome.o_stats in
  (* contention metrics come from one extra record run with a sink
     installed (trial-1 configuration), so the measured trials themselves
     stay trace-free and their timings untouched *)
  let m_trace =
    if not traced then None
    else begin
      let sink = Trace.Sink.create () in
      let config =
        { Interp.Engine.default_config with seed = 1 + 13; cores }
      in
      ignore (Chimera.Runner.record ~config ~sink ~io an.an_instrumented);
      Some
        (Trace.summarize ~dropped:(Trace.Sink.dropped sink)
           ~dropped_by_thread:(Trace.Sink.dropped_by_thread sink)
           (Trace.Sink.events sink))
    end
  in
  {
    m_name = b.b_name;
    m_kind = b.b_kind;
    m_workers = workers;
    m_races = List.length an.an_report.races;
    m_static_pairs = an.an_report.n_candidates;
    m_pruned_pairs = List.length an.an_report.pruned;
    m_plan_acqs = an.an_lockopt.Lockopt.lo_plan_acqs;
    m_elided_acqs = an.an_lockopt.Lockopt.lo_elided_acqs;
    m_loc = Bench_progs.Registry.loc b ~workers;
    m_syscalls = avg (fun x -> float_of_int (s_of x).n_syscalls);
    m_syncops = avg (fun x -> float_of_int (s_of x).n_sync_ops);
    m_weak =
      Array.init 4 (fun i -> avg (fun x -> float_of_int (s_of x).n_weak_acq.(i)));
    m_native = avg (fun tr -> float_of_int tr.Chimera.Runner.tr_native.o_ticks);
    m_record =
      avg (fun tr -> float_of_int tr.Chimera.Runner.tr_recorded.rc_outcome.o_ticks);
    m_replay = avg (fun tr -> float_of_int tr.Chimera.Runner.tr_replay.o_ticks);
    m_input_log =
      avg (fun tr -> float_of_int tr.Chimera.Runner.tr_recorded.rc_input_log_z);
    m_order_log =
      avg (fun tr -> float_of_int tr.Chimera.Runner.tr_recorded.rc_order_log_z);
    m_memops = avg (fun x -> float_of_int (s_of x).n_mem_ops);
    m_weak_op_ticks = avg (fun x -> float_of_int (s_of x).weak_op_ticks);
    m_log_ticks =
      avg (fun x ->
          float_of_int
            ((s_of x).log_ticks_sync + (s_of x).log_ticks_weak
            + (s_of x).log_ticks_input));
    m_contention =
      Array.init 4 (fun i ->
          avg (fun x -> float_of_int (s_of x).weak_block_ticks.(i)));
    m_forced =
      List.fold_left (fun a x -> a + (s_of x).n_forced) 0 acc;
    m_handoff_served =
      List.fold_left (fun a x -> a + (s_of x).n_handoff_served) 0 acc;
    m_handoff_expired =
      List.fold_left (fun a x -> a + (s_of x).n_handoff_expired) 0 acc;
    m_trace;
  }

(* ------------------------------------------------------------------ *)
(* JSON emission: the machine-readable outputs (the `json` experiment,
   the wall and sustained benches) are Bjson values, so the writer that
   [parse (to_string v) = v] is proven for spells every document. *)

(** Print [doc] to stdout, compact, with one trailing newline. *)
let emit_json (doc : Bjson.t) : unit = print_endline (Bjson.to_string doc)

(* ------------------------------------------------------------------ *)
(* table formatting *)

let hr width = print_endline (String.make width '-')

let section title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

let fnum ppf v =
  if Float.abs v >= 1000. then Fmt.pf ppf "%.0f" v else Fmt.pf ppf "%.4g" v
