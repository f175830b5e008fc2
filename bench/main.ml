(** The experiment harness: regenerates every table and figure of the
    paper's evaluation (Section 7).

      dune exec bench/main.exe                 — everything
      dune exec bench/main.exe -- table2       — a single experiment
      dune exec bench/main.exe -- json -j 4    — 4 domains

    Experiments: table1 table2 fig5 fig6 fig7 fig8 sensitivity ablation
    micro. Numbers are simulated-makespan ratios (see DESIGN.md): absolute
    values differ from the authors' Xeon; the shapes are the reproduction
    target and EXPERIMENTS.md records paper-vs-measured for each.

    [-j N] fans the per-benchmark / per-config measurements out across N
    domains (default [Domain.recommended_domain_count ()]). Every
    experiment computes its rows first and prints afterwards, and each
    row is a pure function of its benchmark and configuration, so the
    output is byte-identical for every N (the parallel≡serial tier-1
    test pins this). *)

open Harness

let benches = Bench_progs.Registry.all

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: benchmarks, LOC, profile and evaluation environments";
  Fmt.pr "%-10s %-11s %5s  %-34s %s@." "app" "class" "LOC" "profile env"
    "evaluation env";
  hr 108;
  List.iter
    (fun (b : Bench_progs.Registry.bench) ->
      let profile_env =
        Fmt.str "2 workers, 12 runs, scale %d" b.b_profile_scale
      in
      let eval_env = Fmt.str "2,4,8 workers, scale %d" b.b_eval_scale in
      Fmt.pr "%-10s %-11s %5d  %-34s %s@." b.b_name
        (Fmt.str "%a" Bench_progs.Registry.pp_kind b.b_kind)
        (Bench_progs.Registry.loc b ~workers:4)
        profile_env eval_env)
    benches;
  Fmt.pr "(LOC measured on the MiniC front-end representation, 4 workers, \
          libc included)@."

let table2 () =
  let rows = par_map (fun b -> measure b) benches in
  section
    "Table 2: record and replay performance (4 workers, mean of 3 trials)";
  Fmt.pr "%-10s | %9s %9s | %6s %6s %6s %6s | %7s %7s | %8s %8s@." "app"
    "syscalls" "syncops" "instr" "bb" "loop" "func" "rec-ov" "rep-ov"
    "in-log B" "ord-logB";
  hr 112;
  List.iter
    (fun m ->
      Fmt.pr
        "%-10s | %9.0f %9.0f | %6.0f %6.0f %6.0f %6.0f | %6.2fx %6.2fx | %8.0f %8.0f@."
        m.m_name m.m_syscalls m.m_syncops m.m_weak.(3) m.m_weak.(2)
        m.m_weak.(1) m.m_weak.(0) (record_ov m) (replay_ov m) m.m_input_log
        m.m_order_log)
    rows;
  Fmt.pr "@.(paper: desktop/server 1.01-1.04x record; apache 2.40x on the \
          paper's heavier request mix; scientific 1.21-2.40x; average \
          1.40x)@."

(* Figure 5 / 6 share the per-configuration sweep. Smaller inputs keep the
   naive (instruction-granularity) configuration tractable — its overhead
   ratio is scale-insensitive because every racy statement pays the same
   per-statement price. *)
let fig_configs =
  [
    ("instr", Instrument.Plan.naive);
    ("inst+func", Instrument.Plan.funcs_only);
    ("inst+loop", Instrument.Plan.loops_only);
    ("inst+bb+loop+func", Instrument.Plan.all_opts);
  ]

let fig5 () =
  let rows =
    par_map
      (fun (b : Bench_progs.Registry.bench) ->
        ( b.b_name,
          List.map
            (fun (_, opts) ->
              record_ov (measure b ~opts ~scale:b.b_profile_scale ~trials:1))
            fig_configs ))
      benches
  in
  section "Figure 5: normalized recording overhead per optimization set";
  Fmt.pr "%-10s" "app";
  List.iter (fun (n, _) -> Fmt.pr " %18s" n) fig_configs;
  Fmt.pr "@.";
  hr 90;
  let sums = Array.make (List.length fig_configs) 0. in
  List.iter
    (fun (name, ovs) ->
      Fmt.pr "%-10s" name;
      List.iteri
        (fun i ov ->
          sums.(i) <- sums.(i) +. ov;
          Fmt.pr " %17.2fx" ov)
        ovs;
      Fmt.pr "@.")
    rows;
  hr 90;
  Fmt.pr "%-10s" "mean";
  Array.iter
    (fun s -> Fmt.pr " %17.2fx" (s /. float_of_int (List.length benches)))
    sums;
  Fmt.pr "@.(paper: instr 53x -> inst+func 27x -> inst+loop 33x -> all \
          1.39x)@."

let fig6 () =
  let rows =
    par_map
      (fun (b : Bench_progs.Registry.bench) ->
        ( b.b_name,
          List.map
            (fun (_, opts) ->
              let m = measure b ~opts ~scale:b.b_profile_scale ~trials:1 in
              100. *. weak_total m /. m.m_memops)
            fig_configs ))
      benches
  in
  section "Figure 6: weak-lock operations as % of dynamic memory operations";
  Fmt.pr "%-10s %10s" "app" "dyn-detect";
  List.iter (fun (n, _) -> Fmt.pr " %18s" n) fig_configs;
  Fmt.pr "@.";
  hr 100;
  List.iter
    (fun (name, pcts) ->
      Fmt.pr "%-10s %9.0f%%" name 100.;
      List.iter (fun pct -> Fmt.pr " %17.3f%%" pct) pcts;
      Fmt.pr "@.")
    rows;
  Fmt.pr "(paper: naive ~14%% of memory ops; all optimizations ~0.02%%; a \
          dynamic detector instruments 100%%)@."

let fig7 () =
  let rows = par_map (fun b -> measure b) benches in
  section "Figure 7: sources of recording overhead (fraction of native time)";
  Fmt.pr "%-10s %8s %9s %9s %11s %11s %8s@." "app" "base" "weak-ops"
    "logging" "loop-cont." "other-cont." "total";
  hr 76;
  List.iter
    (fun m ->
      let per_thread v = v /. float_of_int m.m_workers /. m.m_native in
      Fmt.pr "%-10s %7.2fx %8.2fx %8.2fx %10.2fx %10.2fx %7.2fx@." m.m_name
        1.0
        (per_thread m.m_weak_op_ticks)
        (per_thread m.m_log_ticks)
        (per_thread m.m_contention.(1))
        (per_thread
           (m.m_contention.(0) +. m.m_contention.(2) +. m.m_contention.(3)))
        (record_ov m))
    rows;
  Fmt.pr
    "(weak-op / logging / contention ticks are per-thread sums divided by \
     worker count; as in the paper's Fig. 7, loop-lock contention dominates \
     the scientific applications)@."

let fig8 () =
  let rows =
    par_map
      (fun (b : Bench_progs.Registry.bench) ->
        ( b.b_name,
          List.map
            (fun w -> record_ov (measure b ~workers:w ~cores:w ~trials:1))
            [ 2; 4; 8 ] ))
      benches
  in
  section "Figure 8: scalability — recording overhead at 2, 4, 8 threads";
  Fmt.pr "%-10s %12s %12s %12s@." "app" "2 threads" "4 threads" "8 threads";
  hr 52;
  List.iter
    (fun (name, ovs) ->
      Fmt.pr "%-10s" name;
      List.iter (fun ov -> Fmt.pr " %11.2fx" ov) ovs;
      Fmt.pr "@.")
    rows;
  Fmt.pr "(paper: overhead grows with threads for loop-lock-contended \
          scientific apps)@."

let sensitivity () =
  let apps = [ "pfscan"; "water" ] in
  let rows =
    par_map
      (fun runs ->
        ( runs,
          List.map
            (fun name ->
              let b = Bench_progs.Registry.by_name name in
              let prof =
                Profiling.Profile.profile_many
                  ~io_of:(fun i ->
                    b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
                  ~runs
                  (Minic.Typecheck.parse_and_check
                     (b.b_source ~workers:4 ~scale:b.b_profile_scale))
              in
              Profiling.Profile.n_concurrent_pairs prof)
            apps ))
      [ 1; 2; 3; 5; 8; 12; 16; 20 ]
  in
  section
    "Profile sensitivity (Sec 7.3): concurrent pairs vs number of profile runs";
  Fmt.pr "%-10s" "runs";
  List.iter (fun a -> Fmt.pr " %8s" a) apps;
  Fmt.pr "@.";
  hr 30;
  List.iter
    (fun (runs, pairs) ->
      Fmt.pr "%-10d" runs;
      List.iter (fun n -> Fmt.pr " %8d" n) pairs;
      Fmt.pr "@.")
    rows;
  Fmt.pr "(paper: saturates after ~5 runs for pfscan, ~3 for water)@."

let ablation () =
  section
    "Ablation (extension beyond the paper): mask ranges in the bounds \
     analysis";
  Fmt.pr
    "The paper treats bitwise masks as unsupported arithmetic (Sec 5.2), so \
     radix's counting loop gets a -INF..+INF loop-lock (Fig 4). Modeling \
     [e & c] as the range [0, c] instead:@.@.";
  Fmt.pr "%-10s %14s %14s@." "app" "paper rules" "with masks";
  hr 42;
  List.iter
    (fun (name, ov1, ov2) -> Fmt.pr "%-10s %13.2fx %13.2fx@." name ov1 ov2)
    (par_map
       (fun name ->
         let b = Bench_progs.Registry.by_name name in
         let m1 = measure b ~trials:1 in
         let m2 = measure b ~opts:Instrument.Plan.with_masks ~trials:1 in
         (name, record_ov m1, record_ov m2))
       [ "radix"; "fft"; "ocean"; "water" ]);
  Fmt.pr "@."

let timeout_ablation () =
  section "Weak-lock timeout sensitivity (Section 2.3's trade-off)";
  Fmt.pr
    "A weak lock held across program synchronization deadlocks against its \
     waiters until the timeout preempts the owner (forced release + \
     reacquire). Shorter timeouts resolve such stalls faster but preempt \
     more; every choice must still replay deterministically. Workload: two \
     workers whose shared function-lock spans a mutex critical section \
     (3 trials).@.@.";
  let src =
    {|int g0; int g1; int a0[16]; int a1[16]; int m0; int ids[2];
void w0(int *idp) {
  int t0; int t1; int id;
  id = *idp;
  t1 = a1[(id & 15)];
  t1 = ((t1 | 0) | (9 * 2));
  lock(&m0); g1 = t0; a0[(id & 15)] = (8 - 0); unlock(&m0);
  g0 = (g1 * 5);
}
int main() { int t[2]; int i0; int t0;
  for (i0 = 0; i0 < 16; i0++) { a0[i0] = i0 * 3; }
  for (i0 = 0; i0 < 16; i0++) { a1[i0] = i0 * 4; }
  ids[0] = 1; t[0] = spawn(w0, &ids[0]);
  ids[1] = 2; t[1] = spawn(w0, &ids[1]);
  join(t[0]); join(t[1]);
  output(g0); output(g1);
  t0 = 0; for (i0 = 0; i0 < 16; i0++) { t0 = t0 + a0[i0]; } output(t0);
  return 0; }|}
  in
  let an =
    Chimera.Pipeline.analyze ~profile_runs:4
      ~profile_io:(fun i -> Interp.Iomodel.random ~seed:(700 + i))
      (Minic.Parser.parse ~file:"timeout.mc" src)
  in
  let io = Interp.Iomodel.random ~seed:42 in
  Fmt.pr "%-12s %10s %12s %14s@." "timeout" "rec-ov" "forced/run" "ord-log B";
  hr 52;
  List.iter
    (fun (wt, rec_ov, forced_per_run, log_per_run) ->
      Fmt.pr "%-12d %9.2fx %12.1f %14d@." wt rec_ov forced_per_run log_per_run)
    (par_map
       (fun wt ->
         let trials = 3 in
         let acc =
           try
             Chimera.Runner.run_trials ?pool:(Harness.pool ()) ~trials
               ~config_of:(fun t ->
                 {
                   Interp.Engine.default_config with
                   seed = 1 + (t * 13);
                   cores = 4;
                   weak_timeout = wt;
                 })
               ~io_of:(fun _ -> io)
               ~original:an.an_prog ~instrumented:an.an_instrumented ()
           with Chimera.Runner.Trial_diverged tf ->
             Fmt.failwith "timeout ablation: replay diverged (wt=%d): %a" wt
               Chimera.Runner.pp_trial_failure tf
         in
         let sum f = List.fold_left (fun a tr -> a + f tr) 0 acc in
         let tot_native = sum (fun tr -> tr.Chimera.Runner.tr_native.o_ticks) in
         let tot_rec =
           sum (fun tr -> tr.Chimera.Runner.tr_recorded.rc_outcome.o_ticks)
         in
         let tot_forced =
           sum (fun tr ->
               tr.Chimera.Runner.tr_recorded.rc_outcome.o_stats.n_forced)
         in
         let tot_log =
           sum (fun tr -> tr.Chimera.Runner.tr_recorded.rc_order_log_z)
         in
         ( wt,
           float_of_int tot_rec /. float_of_int tot_native,
           float_of_int tot_forced /. float_of_int trials,
           tot_log / trials ))
       [ 500; 2_000; 10_000; 50_000; 100_000 ]);
  Fmt.pr
    "(every row replays deterministically; the paper picks a fixed timeout \
     and reports zero timeouts on its benchmarks — the trade-off only \
     appears when a weak lock spans blocking synchronization)@."

let detexec () =
  section
    "Deterministic execution (extension; the paper's future-work \
     direction)";
  Fmt.pr
    "The transformed program is data-race-free, so Kendo-style logical-time \
     arbitration of synchronization makes execution a function of program + \
     inputs alone — no recording. Outcomes across 4 scheduler seeds:@.@.";
  Fmt.pr "%-10s %22s %22s@." "app" "original (native)" "transformed (det)";
  hr 58;
  List.iter
    (fun (name, orig, det) ->
      Fmt.pr "%-10s %15d outcomes %15d outcome%s@." name orig det
        (if det = 1 then "" else "s"))
    (par_map
       (fun (b : Bench_progs.Registry.bench) ->
         let an =
           analyze b ~opts:Instrument.Plan.all_opts ~workers:4
             ~scale:b.b_profile_scale
         in
         let io = b.b_io ~seed:42 ~scale:b.b_profile_scale in
         let outcomes mode prog =
           List.map
             (fun seed ->
               let o =
                 Interp.Engine.run
                   ~config:{ Interp.Engine.default_config with seed; cores = 4 }
                   ~mode ~io prog
               in
               ( o.Interp.Engine.o_timed_out,
                 List.map snd o.o_outputs,
                 o.o_final_hash ))
             [ 1; 7; 19; 42 ]
           |> List.sort_uniq compare |> List.length
         in
         let orig = outcomes Interp.Engine.Native an.Chimera.Pipeline.an_prog in
         let det = outcomes Interp.Engine.Deterministic an.an_instrumented in
         (b.b_name, orig, det))
       benches);
  Fmt.pr "(1 outcome = deterministic; the racy originals may vary)@."

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock microbenchmarks of the pipeline stages *)

let micro () =
  section "Microbenchmarks (Bechamel, wall-clock)";
  let open Bechamel in
  let b = Bench_progs.Registry.by_name "radix" in
  let src = b.b_source ~workers:4 ~scale:2 in
  let prog = Minic.Typecheck.parse_and_check src in
  let an =
    Chimera.Pipeline.analyze ~profile_runs:2
      ~profile_io:(fun i -> b.b_io ~seed:(100 + i) ~scale:2)
      (Minic.Parser.parse src)
  in
  let io = b.b_io ~seed:42 ~scale:2 in
  let config = { Interp.Engine.default_config with seed = 1; cores = 4 } in
  let tests =
    Test.make_grouped ~name:"chimera"
      [
        Test.make ~name:"parse+typecheck-radix"
          (Staged.stage (fun () ->
               ignore (Minic.Typecheck.parse_and_check src)));
        Test.make ~name:"andersen"
          (Staged.stage (fun () ->
               ignore (Pointer.Andersen.solve (Pointer.Constr.gen prog))));
        Test.make ~name:"steensgaard"
          (Staged.stage (fun () ->
               ignore (Pointer.Steensgaard.solve (Pointer.Constr.gen prog))));
        Test.make ~name:"relay-races"
          (Staged.stage (fun () -> ignore (Relay.Detect.analyze prog)));
        Test.make ~name:"simulate-native"
          (Staged.stage (fun () ->
               ignore
                 (Interp.Engine.run ~config ~mode:Interp.Engine.Native ~io
                    an.an_prog)));
        Test.make ~name:"simulate-record"
          (Staged.stage (fun () ->
               ignore
                 (Interp.Engine.run ~config ~mode:Interp.Engine.Record ~io
                    an.an_instrumented)));
      ]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw =
    Benchmark.all
      (Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ())
      [ clock ] tests
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
      clock raw
  in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Bechamel.Analyze.OLS.estimates r with
      | Some [ est ] -> Fmt.pr "%-36s %14.0f ns/run@." name est
      | _ -> Fmt.pr "%-36s (no estimate)@." name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

(** Machine-readable counters for tracking the MHP pruning win across
    PRs: candidate race pairs, statically pruned pairs, and the weak-lock
    acquisitions the surviving pairs cost at record time. One compact
    {!Bjson} document on stdout, one object per benchmark. *)
let json () =
  let one (b : Bench_progs.Registry.bench) =
    let m = measure ~trials:1 ~traced:true b in
    let trace_events, trace_dropped, dropped_by_thread =
      match m.m_trace with
      | Some su ->
          (su.Trace.su_events, su.Trace.su_dropped, su.Trace.su_dropped_by_thread)
      | None -> (0, 0, [])
    in
    let int = Bjson.int in
    Bjson.Obj
      [ ("name", Str m.m_name); ("workers", int m.m_workers);
        ("static_pairs", int m.m_static_pairs); ("pruned_pairs", int m.m_pruned_pairs);
        ("kept_pairs", int m.m_races); ("plan_acquisitions", int m.m_plan_acqs);
        ("elided_acquisitions", int m.m_elided_acqs);
        ("runtime_acquisitions", Num (runtime_acquisitions m));
        ("record_overhead", Num (record_ov m)); ("forced_releases", int m.m_forced);
        ("handoffs_served", int m.m_handoff_served);
        ("handoffs_expired", int m.m_handoff_expired);
        ("block_events", int (block_events m));
        ("mean_queue_depth", Num (mean_queue_depth m));
        ("trace_events", int trace_events); ("trace_dropped", int trace_dropped);
        (* per-thread ring-overflow losses, keyed by the stable tid_path;
           an empty object certifies the trace aggregates above are
           complete *)
        ( "trace_dropped_by_thread",
          Obj
            (List.map
               (fun (tp, d) -> (Fmt.str "%a" Runtime.Key.pp_tid_path tp, int d))
               dropped_by_thread) ) ]
  in
  emit_json (Obj [ ("benches", List (par_map one benches)) ])

(** The lockopt gate (make lockopt-check): run every benchmark with the
    must-lockset elision on and off, diffing each configuration's replay
    digest against its own recording — the elided plan must record and
    replay as faithfully as the raw one — and requiring that elision
    strictly reduces runtime weak-lock acquisitions wherever it removed a
    static acquisition. Exits nonzero on any violation. *)
let lockopt_check () =
  section "Lockopt: must-lockset elision vs the raw plan";
  let rows =
    par_map
      (fun (b : Bench_progs.Registry.bench) ->
        let scale = b.b_eval_scale in
        let an_on = analyze b ~opts:Instrument.Plan.all_opts ~workers:4 ~scale in
        let an_off =
          analyze ~lockopt:false b ~opts:Instrument.Plan.all_opts ~workers:4
            ~scale
        in
        let io = b.b_io ~seed:42 ~scale in
        let config = { Interp.Engine.default_config with seed = 1; cores = 4 } in
        let run_one prog =
          let r = Chimera.Runner.record ~config ~io prog in
          let rep = Chimera.Runner.replay ~config ~io prog r.Chimera.Runner.rc_log in
          (r.Chimera.Runner.rc_outcome, Chimera.Runner.same_execution r.rc_outcome rep)
        in
        let o_on, det_on = run_one an_on.an_instrumented in
        let o_off, det_off = run_one an_off.an_instrumented in
        let weak (o : Interp.Engine.outcome) =
          Array.fold_left ( + ) 0 o.o_stats.n_weak_acq
        in
        let lo = an_on.an_lockopt in
        ( b.b_name,
          lo.Lockopt.lo_plan_acqs,
          lo.Lockopt.lo_elided_acqs,
          weak o_off,
          weak o_on,
          det_off,
          det_on ))
      benches
  in
  Fmt.pr "%-10s %10s %8s | %12s %12s | %10s %10s@." "app" "plan-acqs"
    "elided" "rt-acq off" "rt-acq on" "replay off" "replay on";
  hr 88;
  let failed = ref false in
  List.iter
    (fun (name, plan_acqs, elided, w_off, w_on, det_off, det_on) ->
      let det_str = function Ok () -> "ok" | Error _ -> "DIVERGED" in
      let shrink_ok = elided = 0 || w_on < w_off in
      if det_off <> Ok () || det_on <> Ok () || not shrink_ok then
        failed := true;
      Fmt.pr "%-10s %10d %8d | %12d %12d | %10s %10s%s@." name plan_acqs
        elided w_off w_on (det_str det_off) (det_str det_on)
        (if shrink_ok then "" else "  ACQUISITIONS DID NOT DROP");
      (match det_off with
      | Error d -> Fmt.pr "  off: %a@." Chimera.Runner.pp_divergence d
      | Ok () -> ());
      match det_on with
      | Error d -> Fmt.pr "  on: %a@." Chimera.Runner.pp_divergence d
      | Ok () -> ())
    rows;
  Fmt.pr
    "(each column's replay is diffed against its own recording; elision \
     must never change what a recording replays to)@.";
  if !failed then exit 1

(** The refinement experiment: build an in-memory stress corpus per
    benchmark (seeds x all strategies), refine the lockopt plan on its
    evidence, validate the refined plan over the same cells, and compare
    runtime weak-lock acquisitions and replay determinism of the lockopt
    vs refined instrumentation. Gates: zero safety-valve violations,
    refined acquisitions never above lockopt with a strict drop on at
    least two benchmarks, and record==replay under both plans. Exits
    nonzero on any violation. *)
let refine_check () =
  section "Refine: corpus-driven lock dropping vs the lockopt plan";
  let seeds = [ 1; 2; 3 ] in
  let jobs =
    List.concat_map
      (fun strat -> List.map (fun s -> (s, strat)) seeds)
      Interp.Engine.all_strategies
  in
  let rows =
    par_map
      (fun (b : Bench_progs.Registry.bench) ->
        let scale = b.b_eval_scale in
        let an = analyze b ~opts:Instrument.Plan.all_opts ~workers:4 ~scale in
        let io = b.b_io ~seed:42 ~scale in
        let obs =
          Refine.corpus_observations ~cores:4 ~io
            ~instrumented:an.Chimera.Pipeline.an_instrumented
            ~racy_sids:an.an_report.racy_sids ~jobs ()
        in
        let rf = Refine.refine ~plan:an.an_plan obs in
        let refined = Instrument.Transform.apply an.an_prog rf.rf_plan in
        let va =
          Refine.validate ~cores:4 ~io ~report:an.an_report ~refined ~jobs ()
        in
        let config =
          { Interp.Engine.default_config with seed = 1; cores = 4 }
        in
        let run_one prog =
          let r = Chimera.Runner.record ~config ~io prog in
          let rep =
            Chimera.Runner.replay ~config ~io prog r.Chimera.Runner.rc_log
          in
          ( r.Chimera.Runner.rc_outcome,
            Chimera.Runner.same_execution r.rc_outcome rep )
        in
        let o_base, det_base = run_one an.an_instrumented in
        let o_ref, det_ref = run_one refined in
        ( b.b_name,
          rf,
          va,
          Refine.runtime_weak_acqs o_base,
          Refine.runtime_weak_acqs o_ref,
          det_base,
          det_ref ))
      benches
  in
  Fmt.pr "%-10s %14s %7s %10s | %11s %11s | %9s %9s@." "app"
    "static-acqs" "locks-" "violations" "rt-acq lock" "rt-acq ref"
    "replay lk" "replay rf";
  hr 96;
  let failed = ref false in
  let strict = ref 0 in
  List.iter
    (fun (name, (rf : Refine.t), (va : Refine.validation), w_base, w_ref,
          det_base, det_ref) ->
      let det_str = function Ok () -> "ok" | Error _ -> "DIVERGED" in
      let nv = List.length va.va_violations in
      if w_ref < w_base then incr strict;
      let grew = w_ref > w_base in
      if nv > 0 || grew || det_base <> Ok () || det_ref <> Ok () then
        failed := true;
      Fmt.pr "%-10s %6d -> %4d %7d %10d | %11d %11d | %9s %9s%s@." name
        rf.rf_base_acqs rf.rf_refined_acqs
        (List.length rf.rf_dropped)
        nv w_base w_ref (det_str det_base) (det_str det_ref)
        (if grew then "  ACQUISITIONS GREW" else "");
      List.iter
        (fun v -> Fmt.pr "  %a@." Refine.pp_violation v)
        va.va_violations)
    rows;
  Fmt.pr
    "(corpus: seeds %s x default,pct,storm; refined plans validated by \
     re-recording every cell with the detector attached)@."
    (String.concat "," (List.map string_of_int seeds));
  if !strict < 2 then begin
    Fmt.pr
      "refine: runtime acquisitions dropped strictly on only %d \
       benchmark(s) (need >= 2)@."
      !strict;
    failed := true
  end;
  if !failed then exit 1

let all () =
  table1 ();
  table2 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  sensitivity ();
  ablation ();
  timeout_ablation ();
  detexec ()

(* ------------------------------------------------------------------ *)
(* Wall-clock harness entry points (see Wall): `wall` emits the
   chimera-wall-bench JSON, `wallcmp BASE FRESH` gates regressions. *)

let wall_cmd args =
  let reps = ref 3 in
  let flame = ref None in
  let rec parse = function
    | [] -> ()
    | "--reps" :: n :: rest -> (
        match int_of_string_opt n with
        | Some r when r >= 1 ->
            reps := r;
            parse rest
        | _ ->
            Fmt.epr "wall: bad --reps value %S@." n;
            exit 1)
    | "--flame" :: file :: rest ->
        flame := Some file;
        parse rest
    | a :: _ ->
        Fmt.epr
          "wall: unknown argument %s (usage: wall [--reps N] [--flame \
           FILE.json])@."
          a;
        exit 1
  in
  parse args;
  Wall.run ?flame:!flame ~reps:!reps ()

let wallcmp_cmd args =
  let max_ratio = ref 2.0 in
  let min_warm = ref 10.0 in
  let max_sched = ref 0.35 in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--max-ratio" :: r :: rest -> (
        match float_of_string_opt r with
        | Some f when f > 0. ->
            max_ratio := f;
            parse rest
        | _ ->
            Fmt.epr "wallcmp: bad --max-ratio value %S@." r;
            exit 1)
    | "--min-warm-speedup" :: r :: rest -> (
        match float_of_string_opt r with
        | Some f when f >= 0. ->
            min_warm := f;
            parse rest
        | _ ->
            Fmt.epr "wallcmp: bad --min-warm-speedup value %S@." r;
            exit 1)
    | "--max-sched-share" :: r :: rest -> (
        match float_of_string_opt r with
        | Some f when f > 0. && f <= 1. ->
            max_sched := f;
            parse rest
        | _ ->
            Fmt.epr "wallcmp: bad --max-sched-share value %S@." r;
            exit 1)
    | a :: rest ->
        files := a :: !files;
        parse rest
  in
  parse args;
  match List.rev !files with
  | [ baseline; fresh ] ->
      Wall.compare ~min_warm_speedup:!min_warm ~max_sched_share:!max_sched
        ~baseline ~fresh ~max_ratio:!max_ratio ()
  | _ ->
      Fmt.epr
        "wallcmp: usage: wallcmp BASELINE.json FRESH.json [--max-ratio R] \
         [--min-warm-speedup S] [--max-sched-share F]@.";
      exit 1

let () =
  let experiments =
    [
      ("table1", table1); ("table2", table2); ("fig5", fig5); ("fig6", fig6);
      ("fig7", fig7); ("fig8", fig8); ("sensitivity", sensitivity);
      ("ablation", ablation); ("timeout", timeout_ablation);
      ("detexec", detexec); ("micro", micro); ("json", json);
      ("lockopt", lockopt_check); ("refine", refine_check);
      ("sustained", (fun () -> Wall.sustained ())); ("all", all);
    ]
  in
  (* split off -j N / -jN; remaining args name experiments *)
  let rec split names jobs = function
    | [] -> (List.rev names, jobs)
    | "-j" :: n :: rest -> split names (Some n) rest
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
        split names (Some (String.sub a 2 (String.length a - 2))) rest
    | a :: rest -> split (a :: names) jobs rest
  in
  let names, jobs = split [] None (List.tl (Array.to_list Sys.argv)) in
  let jobs =
    match jobs with
    | None -> Par.Pool.default_jobs ()
    | Some n -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> j
        | _ ->
            Fmt.epr "bad -j value %S (want a positive integer)@." n;
            exit 1)
  in
  let pool = Par.Pool.create ~domains:jobs () in
  Harness.set_pool pool;
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      match names with
      | [] -> all ()
      (* wall / wallcmp take their own arguments, so they consume the
         whole remaining command line *)
      | "wall" :: rest -> wall_cmd rest
      | "wallcmp" :: rest -> wallcmp_cmd rest
      | names ->
          List.iter
            (fun a ->
              match List.assoc_opt a experiments with
              | Some f -> f ()
              | None ->
                  Fmt.epr "unknown experiment %s (have: %s)@." a
                    (String.concat " "
                       ("wall" :: "wallcmp" :: List.map fst experiments));
                  exit 1)
            names)
