(** The {!Par.Pool} work-stealing pool, and the determinism contract the
    whole parallel harness rests on: running the pipeline across domains
    is {e observationally identical} to running it serially. The
    par≡serial property compares full digests — race reports, the
    instrumented source, every measurement field of every trial, and the
    encoded replay logs byte-for-byte — between a no-pool run and a
    4-domain run of the same benchmarks and fuzz programs. *)

module P = Par.Pool

(* ------------------------------------------------------------------ *)
(* pool unit tests *)

let test_map_order () =
  P.with_pool ~clamp:false ~domains:4 (fun p ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "map_list preserves input order"
        (List.map (fun x -> x * x) xs)
        (P.map_list p (fun x -> x * x) xs);
      Alcotest.(check (list int))
        "mapi_list passes matching indices"
        (List.init 20 (fun i -> 3 * i))
        (P.mapi_list p (fun i x -> i + (2 * x)) (List.init 20 Fun.id)))

let test_inline_pool () =
  let p = P.create ~domains:1 () in
  Alcotest.(check int) "j<=1 pool has size 1" 1 (P.size p);
  (* inline pools run at submit: side effects happen immediately *)
  let hit = ref false in
  let fut = P.submit p (fun () -> hit := true) in
  Alcotest.(check bool) "inline task ran at submit" true !hit;
  P.await p fut;
  Alcotest.(check (list int))
    "inline map_list" [ 2; 4; 6 ]
    (P.map_list p (fun x -> 2 * x) [ 1; 2; 3 ]);
  P.shutdown p

let test_exception_order () =
  (* map_list must re-raise the first exception in *input* order even
     when a later element fails first on another domain *)
  P.with_pool ~clamp:false ~domains:4 (fun p ->
      (* element 3 sleeps before failing; elements 4 and 5 fail
         immediately, likely first in wall-clock order *)
      let spin = ref 0 in
      Alcotest.check_raises "first input-order failure wins"
        (Failure "boom:3") (fun () ->
          ignore
            (P.map_list p
               (fun x ->
                 if x >= 3 then (
                   if x = 3 then
                     for _ = 1 to 2_000_000 do
                       incr spin
                     done;
                   failwith (Fmt.str "boom:%d" x));
                 x)
               [ 0; 1; 2; 3; 4; 5 ])))

let test_nested_await () =
  (* tasks submitting and awaiting sub-tasks must not deadlock: await
     helps by running queued work.  Binary-tree sum, depth 8 => 255
     nested submits on a 2-domain pool. *)
  P.with_pool ~clamp:false ~domains:2 (fun p ->
      let rec sum lo hi =
        if hi - lo <= 1 then lo
        else
          let mid = (lo + hi) / 2 in
          let left = P.submit p (fun () -> sum lo mid) in
          let right = sum mid hi in
          P.await p left + right
      in
      Alcotest.(check int) "nested tree sum" (128 * 127 / 2) (sum 0 128))

let test_shutdown () =
  let p = P.create ~domains:3 () in
  let fut = P.submit p (fun () -> 7) in
  P.shutdown p;
  P.shutdown p (* idempotent *);
  Alcotest.(check int) "queued task finished before join" 7 (P.await p fut);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Par.Pool.submit: pool is shut down") (fun () ->
      ignore (P.submit p (fun () -> ())))

(* ------------------------------------------------------------------ *)
(* parallel ≡ serial: observational-equality digests *)

let stats_digest (s : Interp.Engine.stats) =
  ( s.n_stmts,
    s.n_mem_ops,
    s.n_sync_ops,
    s.n_syscalls,
    Array.to_list s.n_weak_acq,
    Array.to_list s.weak_block_ticks,
    s.n_forced,
    (s.log_ticks_sync, s.log_ticks_weak, s.log_ticks_input, s.weak_op_ticks) )

let outcome_digest (o : Interp.Engine.outcome) =
  ( o.o_outputs,
    o.o_final_hash,
    o.o_ticks,
    o.o_steps,
    o.o_faults,
    o.o_exit,
    stats_digest o.o_stats,
    (o.o_timed_out, o.o_stuck) )

(* every measurement the bench harness derives, plus the replay logs as
   raw bytes *)
let trial_digest (tr : Chimera.Runner.trial) =
  ( outcome_digest tr.tr_native,
    outcome_digest tr.tr_recorded.rc_outcome,
    outcome_digest tr.tr_replay,
    ( tr.tr_recorded.rc_input_log_raw,
      tr.tr_recorded.rc_order_log_raw,
      tr.tr_recorded.rc_input_log_z,
      tr.tr_recorded.rc_order_log_z ),
    Replay.Log.encode_input_log tr.tr_recorded.rc_log,
    Replay.Log.encode_order_log tr.tr_recorded.rc_log )

let analysis_digest (an : Chimera.Pipeline.analysis) =
  ( Fmt.str "%a" Relay.Detect.pp_report_explain an.an_report,
    an.an_report.n_candidates,
    Profiling.Profile.n_concurrent_pairs an.an_profile,
    an.an_profile.runs,
    Minic.Pretty.program_to_string an.an_instrumented )

(* one unit of comparable work: full pipeline + 2 native/record/replay
   trials on a parsed program *)
let program_digest ?pool ~name ~profile_io ~eval_io prog =
  let an = Chimera.Pipeline.analyze ?pool ~profile_runs:6 ~profile_io prog in
  ignore name;
  let trials =
    Chimera.Runner.run_trials ?pool ~trials:2
      ~config_of:(fun t ->
        { Interp.Engine.default_config with seed = 1 + (t * 13); cores = 4 })
      ~io_of:(fun _ -> eval_io)
      ~original:an.an_prog ~instrumented:an.an_instrumented ()
  in
  (analysis_digest an, List.map trial_digest trials)

type sample = {
  s_name : string;
  s_prog : Minic.Ast.program;
  s_profile_io : int -> Interp.Iomodel.t;
  s_eval_io : Interp.Iomodel.t;
}

let bench_sample name =
  let b = Bench_progs.Registry.by_name name in
  {
    s_name = name;
    s_prog =
      Minic.Parser.parse ~file:name
        (b.b_source ~workers:4 ~scale:b.b_eval_scale);
    s_profile_io = (fun i -> b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale);
    s_eval_io = b.b_io ~seed:42 ~scale:b.b_eval_scale;
  }

let fuzz_samples () =
  let rand = Random.State.make [| 0xC41EA5; 17 |] in
  QCheck.Gen.generate ~rand ~n:2 Proggen.gen_program
  |> List.mapi (fun i src ->
         {
           s_name = Fmt.str "fuzz-%d" i;
           s_prog = Minic.Parser.parse ~file:(Fmt.str "fuzz-%d.mc" i) src;
           s_profile_io = (fun j -> Interp.Iomodel.random ~seed:(500 + j));
           s_eval_io = Interp.Iomodel.random ~seed:33;
         })

let digest_of ?pool s =
  program_digest ?pool ~name:s.s_name ~profile_io:s.s_profile_io
    ~eval_io:s.s_eval_io s.s_prog

(* analyze-only digest over report, plan provenance, and instrumented
   source — everything `chimera races/plan/instrument` prints *)
let analyze_digest ?pool s =
  let an =
    Chimera.Pipeline.analyze ?pool ~profile_runs:4
      ~profile_io:s.s_profile_io s.s_prog
  in
  ( Fmt.str "%a" Relay.Detect.pp_report_explain an.an_report,
    Fmt.str "%a" Lockopt.pp_explain an.an_lockopt,
    Minic.Pretty.program_to_string an.an_instrumented )

(* ISSUE 6 tier-1 pin: a -j 4 analyze (SCC-scheduled summaries, parallel
   race scans, profile runs and lockopt dataflow) produces byte-identical
   report/plan/provenance on *every* built-in benchmark plus fuzz
   programs. The trial-level property below exercises fewer programs but
   adds record/replay to the digest. *)
let test_par_analyze_all_benches () =
  let samples =
    List.map bench_sample Bench_progs.Registry.names @ fuzz_samples ()
  in
  let serial = List.map (fun s -> analyze_digest s) samples in
  let par =
    P.with_pool ~clamp:false ~domains:4 (fun p ->
        List.map (fun s -> analyze_digest ~pool:p s) samples)
  in
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Fmt.str "%s: -j4 analyze digest is bit-identical to serial" s.s_name)
        true
        (List.nth serial i = List.nth par i))
    samples

let test_par_eq_serial () =
  let samples =
    List.map bench_sample [ "pfscan"; "fft"; "radix" ] @ fuzz_samples ()
  in
  (* serial reference: no pool anywhere *)
  let serial = List.map (fun s -> digest_of s) samples in
  (* parallel: samples fanned across a 4-domain pool, and the *same* pool
     threaded inside each pipeline (profile runs + trials), exercising
     nested submit/await on real work *)
  let par =
    P.with_pool ~clamp:false ~domains:4 (fun p ->
        P.map_list p (fun s -> digest_of ~pool:p s) samples)
  in
  List.iteri
    (fun i s ->
      let ds = List.nth serial i and dp = List.nth par i in
      Alcotest.(check bool)
        (Fmt.str "%s: -j4 digest is bit-identical to serial" s.s_name)
        true (ds = dp))
    samples

let suite =
  [
    Alcotest.test_case "pool: map_list ordering" `Quick test_map_order;
    Alcotest.test_case "pool: inline (j=1) execution" `Quick test_inline_pool;
    Alcotest.test_case "pool: deterministic exception order" `Quick
      test_exception_order;
    Alcotest.test_case "pool: nested submit/await" `Quick test_nested_await;
    Alcotest.test_case "pool: shutdown semantics" `Quick test_shutdown;
    Alcotest.test_case "parallel analyze == serial analyze (all benches)"
      `Slow test_par_analyze_all_benches;
    Alcotest.test_case "parallel pipeline == serial pipeline" `Slow
      test_par_eq_serial;
  ]
