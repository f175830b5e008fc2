(** The full test-suite registry, shared by the serial Alcotest runner
    ([test_chimera.ml]) and the domain-sharded runner ([par_runner.ml]).

    Suites must be self-contained: any mutable state a suite keeps (e.g.
    [Test_e2e]'s analysis cache) is touched only by its own cases, so the
    parallel runner may run distinct suites concurrently — cases within
    one suite always run serially, in order. *)

let all : (string * unit Alcotest.test_case list) list =
  [
    ("minic", Test_minic.suite);
    ("pointer", Test_pointer.suite);
    ("relay", Test_relay.suite);
    ("mhp", Test_mhp.suite);
    ("symbolic", Test_symbolic.suite);
    ("runtime", Test_runtime.suite);
    ("replay-log", Test_replay_log.suite);
    ("trace", Test_trace.suite);
    ("bjson", Test_bjson.suite);
    ("zcompress", Test_zcompress.suite);
    ("log-bytes", Test_logbytes.suite);
    ("interp", Test_interp.suite);
    ("sched", Test_sched.suite);
    ("dynrace", Test_dynrace.suite);
    ("profiling", Test_profiling.suite);
    ("instrument", Test_instrument.suite);
    ("lockopt", Test_lockopt.suite);
    ("par", Test_par.suite);
    ("ancache", Test_ancache.suite);
    ("cli", Test_cli.suite);
    ("fuzz", Test_fuzz.suite);
    ("detexec", Test_detexec.suite);
    ("seglog", Test_seglog.suite);
    ("digest", Test_digest.suite);
    ("e2e", Test_e2e.suite);
    ("refine", Test_refine.suite);
  ]
