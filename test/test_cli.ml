(** Smoke tests for [bin/chimera_cli]: every subcommand runs end-to-end
    on a small racy program, with exit codes and the key output lines
    checked. The tests shell out to the built executable (dune injects
    it as a dependency; [CHIMERA_CLI] overrides the path), write all
    artifacts under [Filename.temp_file] names, and so are safe to run
    concurrently with other suites. *)

let exe_path () =
  match Sys.getenv_opt "CHIMERA_CLI" with
  | Some p -> Some p
  | None ->
      List.find_opt Sys.file_exists
        [
          (* cwd under dune runtest is _build/default/test *)
          Filename.concat Filename.parent_dir_name "bin/chimera_cli.exe";
          (* cwd under `dune exec test/par_runner.exe` is the project root *)
          "_build/default/bin/chimera_cli.exe";
        ]

let with_exe f =
  match exe_path () with
  | Some exe -> f exe
  | None -> Alcotest.skip () (* not built: e.g. ran outside dune *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(** Run [exe args], returning (exit code, stdout, stderr). Every
    invocation gets a private throwaway cache dir (analysis caching
    defaults on), so the tests never read or pollute the user's real
    cache and runs stay independent unless a test passes [cache_dir]. *)
let run_cli ?cache_dir exe args =
  let run cdir =
    let out = Filename.temp_file "chimera_cli" ".out" in
    let err = Filename.temp_file "chimera_cli" ".err" in
    let cmd =
      Fmt.str "CHIMERA_CACHE_DIR=%s %s %s > %s 2> %s" (Filename.quote cdir)
        (Filename.quote exe)
        (String.concat " " (List.map Filename.quote args))
        (Filename.quote out) (Filename.quote err)
    in
    let code = Sys.command cmd in
    let o = read_file out and e = read_file err in
    Sys.remove out;
    Sys.remove err;
    (code, o, e)
  in
  match cache_dir with
  | Some cdir -> run cdir
  | None -> Testutil.with_temp_dir "chimera-cli-cache" run

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what hay needle =
  Alcotest.(check bool)
    (Fmt.str "%s contains %S" what needle)
    true (contains hay needle)

(* The stderr summary of a run: scheduler iterations and core ticks are
   both printed; an iteration runs at most one tick per core (4 by
   default), and an empty core's tick is skipped. The steps taken in
   place and the steps passed ahead are each a part of all steps. *)
let check_summary what err =
  let line =
    List.find
      (fun l -> contains l "simulated ticks")
      (String.split_on_char '\n' err)
  in
  Scanf.sscanf line
    "[%d simulated ticks (%d scheduler iterations, %d core ticks, %d idle \
     ticks skipped, %d blocked ticks jumped), %d steps, %d in place, %d \
     ahead,"
    (fun ticks iters core_ticks _ _ steps inline ahead ->
      if
        not
          (0 < iters && iters <= ticks && 0 < core_ticks
          && core_ticks <= 4 * iters
          && 0 <= inline && inline <= steps
          && 0 <= ahead && ahead <= steps)
      then
        Alcotest.failf
          "%s: %d ticks, %d scheduler iterations, %d core ticks, %d steps, \
           %d in place, %d ahead"
          what ticks iters core_ticks steps inline ahead)

(* the canonical racy program: two threads increment a shared counter
   through a read-modify-write, under no lock *)
let racy_src =
  "int counter = 0;\n\
   void w(int *u) {\n\
  \  int i; int tmp;\n\
  \  for (i = 0; i < 40; i++) { tmp = counter; counter = tmp + 1; }\n\
   }\n\
   int main() { int t1; int t2;\n\
  \  t1 = spawn(w, &counter); t2 = spawn(w, &counter);\n\
  \  join(t1); join(t2);\n\
  \  output(counter);\n\
  \  return 0; }\n"

let with_src f =
  let mc = Filename.temp_file "chimera_cli" ".mc" in
  Out_channel.with_open_bin mc (fun oc -> output_string oc racy_src);
  Fun.protect ~finally:(fun () -> Sys.remove mc) (fun () -> f mc)

(* ------------------------------------------------------------------ *)

let test_races () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let code, out, _ = run_cli exe [ "races"; mc ] in
  Alcotest.(check int) "races exit code" 0 code;
  check_contains "races stdout" out "race pairs";
  check_contains "races stdout" out "roots:";
  (* with MHP off the candidate count must still be reported *)
  let code, out_raw, _ = run_cli exe [ "races"; mc; "--no-mhp" ] in
  Alcotest.(check int) "races --no-mhp exit code" 0 code;
  check_contains "races --no-mhp stdout" out_raw "race pairs";
  (* explain mode lists provenance per candidate *)
  let code, out_ex, _ = run_cli exe [ "races"; mc; "--explain-races" ] in
  Alcotest.(check int) "races --explain-races exit code" 0 code;
  check_contains "explain stdout" out_ex "candidate pairs";
  check_contains "explain stdout" out_ex "[kept]"

let test_plan_instrument () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let code, out, _ = run_cli exe [ "plan"; mc; "--profile-runs"; "4" ] in
  Alcotest.(check int) "plan exit code" 0 code;
  check_contains "plan stdout" out "lock";
  (* --profile-runs is a cap: profiling stopped once the view settled *)
  check_contains "plan stdout" out "profile: 3 of at most 4 runs";
  let code, out, _ = run_cli exe [ "instrument"; mc; "--profile-runs"; "4" ] in
  Alcotest.(check int) "instrument exit code" 0 code;
  check_contains "instrument stdout" out "__weak_enter";
  check_contains "instrument stdout" out "int main"

let test_run () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let code, out, err = run_cli exe [ "run"; mc ] in
  Alcotest.(check int) "run exit code" 0 code;
  Alcotest.(check bool) "run printed the counter" true (String.trim out <> "");
  check_contains "run stderr" err "simulated ticks";
  check_contains "run stderr" err " steps, ";
  check_summary "run stderr" err

let test_record_replay () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let prefix = Filename.temp_file "chimera_cli" ".logs" in
  let input_log = prefix ^ ".input.log" and order_log = prefix ^ ".order.log" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ prefix; input_log; order_log ])
  @@ fun () ->
  let code, rec_out, rec_err =
    run_cli exe
      [ "record"; mc; "--seed"; "5"; "--profile-runs"; "4"; "-o"; prefix ]
  in
  Alcotest.(check int) "record exit code" 0 code;
  Alcotest.(check bool) "input log written" true (Sys.file_exists input_log);
  Alcotest.(check bool) "order log written" true (Sys.file_exists order_log);
  check_contains "record stderr" rec_err "logs:";
  (* replay under a different scheduler seed must reproduce the
     recorded outputs exactly *)
  let code, rep_out, rep_err =
    run_cli exe
      [ "replay"; mc; "--seed"; "12"; "--profile-runs"; "4"; "--logs"; prefix ]
  in
  Alcotest.(check int) "replay exit code" 0 code;
  Alcotest.(check string) "replay outputs == recorded outputs" rec_out rep_out;
  check_contains "replay stderr" rep_err " replay-gate checks]";
  check_summary "replay stderr" rep_err

let test_det () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let det seed =
    let code, out, _ =
      run_cli exe [ "det"; mc; "--profile-runs"; "4"; "--seed"; seed ]
    in
    Alcotest.(check int) (Fmt.str "det --seed %s exit code" seed) 0 code;
    out
  in
  Alcotest.(check string)
    "det output is seed-independent" (det "1") (det "23")

let test_trace () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let out_json = Filename.temp_file "chimera_cli" ".trace.json" in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists out_json then Sys.remove out_json)
  @@ fun () ->
  let code, out, _ =
    run_cli exe
      [ "trace"; mc; "--profile-runs"; "4"; "--trace-out"; out_json ]
  in
  Alcotest.(check int) "trace exit code" 0 code;
  check_contains "trace stdout" out "events";
  check_contains "trace stdout" out "handoffs served";
  check_contains "trace stdout" out
    "record and replay stable event streams: IDENTICAL";
  let j = read_file out_json in
  Alcotest.(check bool) "chrome JSON written" true
    (String.length j > 0 && j.[0] = '[');
  check_contains "chrome JSON" j "thread_name"

let test_replay_corrupt_log () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let prefix = Filename.temp_file "chimera_cli" ".logs" in
  let input_log = prefix ^ ".input.log" and order_log = prefix ^ ".order.log" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ prefix; input_log; order_log ])
  @@ fun () ->
  let code, _, _ =
    run_cli exe [ "record"; mc; "--profile-runs"; "4"; "-o"; prefix ]
  in
  Alcotest.(check int) "record exit code" 0 code;
  let recorded = read_file order_log in
  List.iter
    (fun (what, bytes) ->
      Out_channel.with_open_bin order_log (fun oc -> output_string oc bytes);
      let code, _, err =
        run_cli exe [ "replay"; mc; "--profile-runs"; "4"; "--logs"; prefix ]
      in
      Alcotest.(check int) (what ^ ": exit code") 3 code;
      check_contains (what ^ ": replay stderr") err "corrupt")
    [
      (* an unterminated over-long varint *)
      ("smashed order log", String.make 10 '\xff');
      (* the log as written while the order log still ended with the
         per-core schedule: here one segment, core 0, main thread, one
         tick *)
      ("schedule-section order log", recorded ^ "\x02\x00\x00\x02");
    ]

let test_bad_file () =
  with_exe @@ fun exe ->
  let code, _, _ = run_cli exe [ "races"; "/nonexistent/no-such.mc" ] in
  Alcotest.(check bool) "missing file is an error" true (code <> 0)

(* A source that does not lex, parse or typecheck exits with the typed
   status 4 and one FILE:LINE: line on stderr, under each subcommand that
   loads it; before, each escaped as cmdliner's uncaught exception (125) *)
let test_source_errors () =
  with_exe @@ fun exe ->
  List.iter
    (fun (what, src, line, msg) ->
      let mc = Filename.temp_file "chimera_cli" ".mc" in
      Out_channel.with_open_bin mc (fun oc -> output_string oc src);
      Fun.protect ~finally:(fun () -> Sys.remove mc) @@ fun () ->
      List.iter
        (fun cmd ->
          let code, out, err = run_cli exe [ cmd; mc ] in
          Alcotest.(check int) (Fmt.str "%s: %s exit code" what cmd) 4 code;
          Alcotest.(check string) (Fmt.str "%s: %s stdout" what cmd) "" out;
          Alcotest.(check string)
            (Fmt.str "%s: %s stderr" what cmd)
            (Fmt.str "%s:%d: %s\n" mc line msg)
            err)
        [ "races"; "run"; "record" ])
    [
      ( "lex error", "int x;\nint main() { x = 1 @ 2; return 0; }\n", 2,
        "unexpected character '@'" );
      ("parse error", "int x x;\nint main() { return 0; }\n", 1,
       "expected ; but found x");
      ( "type error", "int x;\nint main() {\n  x = y; output(x); return 0; }\n",
        3, "unbound variable y in main" );
    ]

let test_cache_subcommand () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  Testutil.with_temp_dir "chimera-cli-cache" @@ fun cdir ->
  (* cold run populates the cache; the warm run must print the same plan *)
  let args = [ "plan"; mc; "--profile-runs"; "4"; "--cache-dir"; cdir ] in
  let code, cold_out, _ = run_cli ~cache_dir:cdir exe args in
  Alcotest.(check int) "cold plan exit code" 0 code;
  let code, warm_out, warm_err = run_cli ~cache_dir:cdir exe args in
  Alcotest.(check int) "warm plan exit code" 0 code;
  Alcotest.(check string) "warm plan == cold plan" cold_out warm_out;
  Alcotest.(check string) "warm run is quiet on stderr" "" warm_err;
  let code, stats_out, _ =
    run_cli ~cache_dir:cdir exe [ "cache"; "stats"; "--cache-dir"; cdir ]
  in
  Alcotest.(check int) "cache stats exit code" 0 code;
  check_contains "cache stats stdout" stats_out "entries: 1";
  (* a damaged entry degrades to recomputation: same stdout, a one-line
     warning on stderr, exit 0 *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".anc" then
        Out_channel.with_open_bin (Filename.concat cdir f) (fun oc ->
            output_string oc "CHIMERA-ANCACHE/1\ntrunca"))
    (Sys.readdir cdir);
  let code, out, err = run_cli ~cache_dir:cdir exe args in
  Alcotest.(check int) "damaged-entry exit code" 0 code;
  Alcotest.(check string) "damaged entry recomputes the same plan"
    cold_out out;
  check_contains "damaged-entry stderr" err "warning:";
  (* --no-cache bypasses the store entirely *)
  let code, out, _ =
    run_cli ~cache_dir:cdir exe
      [ "plan"; mc; "--profile-runs"; "4"; "--no-cache" ]
  in
  Alcotest.(check int) "--no-cache exit code" 0 code;
  Alcotest.(check string) "--no-cache plan matches" cold_out out;
  let code, clear_out, _ =
    run_cli ~cache_dir:cdir exe [ "cache"; "clear"; "--cache-dir"; cdir ]
  in
  Alcotest.(check int) "cache clear exit code" 0 code;
  check_contains "cache clear stdout" clear_out "removed";
  let code, stats_out, _ =
    run_cli ~cache_dir:cdir exe [ "cache"; "stats"; "--cache-dir"; cdir ]
  in
  Alcotest.(check int) "cache stats after clear exit code" 0 code;
  check_contains "cache stats after clear" stats_out "entries: 0"

let test_jobs_identical () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let run j =
    let code, out, _ =
      run_cli exe
        [ "plan"; mc; "--profile-runs"; "4"; "--no-cache"; "-j"; j ]
    in
    Alcotest.(check int) (Fmt.str "plan -j %s exit code" j) 0 code;
    out
  in
  Alcotest.(check string) "-j 4 plan is byte-identical to -j 1" (run "1")
    (run "4")

let test_record_replay_sweep () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let prefix = Filename.temp_file "chimera_cli" ".logs" in
  let seed_files =
    List.concat_map
      (fun s ->
        [
          Fmt.str "%s.%d.input.log" prefix s; Fmt.str "%s.%d.order.log" prefix s;
        ])
      [ 1; 2; 3 ]
  in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        (prefix :: seed_files))
  @@ fun () ->
  (* a --seeds sweep records one log pair per seed under per-seed
     prefixes, with a content-addressed dedup summary *)
  let code, out, _ =
    run_cli exe
      [
        "record"; mc; "--profile-runs"; "4"; "--seeds"; "1..3"; "--strategy";
        "storm"; "-o"; prefix;
      ]
  in
  Alcotest.(check int) "record sweep exit code" 0 code;
  check_contains "record sweep stdout" out "recorded 3 seeds";
  List.iter
    (fun f ->
      Alcotest.(check bool) (Fmt.str "%s written" f) true (Sys.file_exists f))
    seed_files;
  (* the same log replayed under every seed in a range must be one and
     the same execution, even across a record/replay strategy change *)
  let code, out, _ =
    run_cli exe
      [
        "replay"; mc; "--profile-runs"; "4"; "--logs"; prefix ^ ".2";
        "--seeds"; "5..8";
      ]
  in
  Alcotest.(check int) "replay sweep exit code" 0 code;
  check_contains "replay sweep stdout" out "replay under 4 seeds: IDENTICAL"

let test_stress_matrix () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let json = Filename.temp_file "chimera_cli" ".stress.json" in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists json then Sys.remove json)
  @@ fun () ->
  (* instrumented source: every distinct recording must replay clean,
     and fault injection must never crash the decoder/replayer *)
  let code, out, _ =
    run_cli exe
      [
        "stress"; "--src"; mc; "--seeds"; "1..2"; "--max-truncations"; "8";
        "--max-flips"; "4"; "--json"; json;
      ]
  in
  Alcotest.(check int) "stress exit code" 0 code;
  check_contains "stress stdout" out
    "stress matrix: 1 program(s) x 2 seed(s) x 3 strategies";
  check_contains "stress stdout" out "distinct logs";
  check_contains "stress stdout" out "fault injection";
  check_contains "stress stdout" out "stress: OK";
  let j = Bjson.load_file json in
  let crashes = Option.bind (Bjson.mem "fault" j) (Bjson.mem "crashes") in
  Alcotest.(check (float 0.)) "stress JSON jobs" 6.
    (Bjson.num_exn "jobs" (Bjson.mem "jobs" j));
  Alcotest.(check int) "stress JSON crashes" 0
    (List.length (Bjson.list_exn "crashes" crashes))

let test_stress_raw_divergence () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  (* --raw records the uninstrumented racy program: the negative control
     whose replays are expected to diverge, driving the exit-2 path *)
  let code, out, _ =
    run_cli exe
      [ "stress"; "--src"; mc; "--raw"; "--seeds"; "1..4"; "--no-fault-inject" ]
  in
  Alcotest.(check int) "raw stress exit code" 2 code;
  check_contains "raw stress stdout" out "replay diverged";
  check_contains "raw stress stdout" out "issue(s)"

let test_stress_fault_logs () =
  with_exe @@ fun exe ->
  with_src @@ fun mc ->
  let prefix = Filename.temp_file "chimera_cli" ".logs" in
  let input_log = prefix ^ ".input.log" and order_log = prefix ^ ".order.log" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ prefix; input_log; order_log ])
  @@ fun () ->
  let code, _, _ =
    run_cli exe [ "record"; mc; "--profile-runs"; "4"; "-o"; prefix ]
  in
  Alcotest.(check int) "record exit code" 0 code;
  (* a valid pair decode-validates up front, then the matrix runs *)
  let code, out, _ =
    run_cli exe
      [
        "stress"; "--fault-logs"; prefix; "--src"; mc; "--seeds"; "1..1";
        "--strategies"; "storm"; "--no-fault-inject";
      ]
  in
  Alcotest.(check int) "valid --fault-logs exit code" 0 code;
  check_contains "stress stdout" out "decode OK";
  check_contains "stress stdout" out "x 1 strategy";
  check_contains "stress stdout" out "stress: OK";
  (* a truncated pair is rejected before any recording work: exit 3 *)
  Out_channel.with_open_bin order_log (fun oc ->
      output_string oc (String.make 10 '\xff'));
  let code, _, err = run_cli exe [ "stress"; "--fault-logs"; prefix ] in
  Alcotest.(check int) "corrupt --fault-logs exit code" 3 code;
  check_contains "stress stderr" err "corrupt replay log"

let suite =
  [
    Alcotest.test_case "races / --no-mhp / --explain-races" `Quick test_races;
    Alcotest.test_case "plan + instrument" `Quick test_plan_instrument;
    Alcotest.test_case "run" `Quick test_run;
    Alcotest.test_case "record + replay" `Quick test_record_replay;
    Alcotest.test_case "det (seed-independent)" `Quick test_det;
    Alcotest.test_case "trace + --trace-out" `Quick test_trace;
    Alcotest.test_case "replay rejects corrupt log" `Quick
      test_replay_corrupt_log;
    Alcotest.test_case "bad input file" `Quick test_bad_file;
    Alcotest.test_case "lex, parse and type errors exit 4 with FILE:LINE"
      `Quick test_source_errors;
    Alcotest.test_case "cache subcommand + damaged-entry fallback" `Quick
      test_cache_subcommand;
    Alcotest.test_case "-j N output identical to -j 1" `Quick
      test_jobs_identical;
    Alcotest.test_case "record --seeds sweep + replay-seed sweep" `Quick
      test_record_replay_sweep;
    Alcotest.test_case "stress matrix + fault injection + --json" `Quick
      test_stress_matrix;
    Alcotest.test_case "stress --raw negative control exits 2" `Quick
      test_stress_raw_divergence;
    Alcotest.test_case "stress --fault-logs valid / corrupt" `Quick
      test_stress_fault_logs;
  ]
