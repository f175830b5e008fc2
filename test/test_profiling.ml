(** Tests for the off-line profiler: concurrent-function-pair detection
    and loop body-size measurement. *)

let parse src = Minic.Typecheck.parse_and_check ~file:"test.mc" src

let profile ?(runs = 5) src =
  Profiling.Profile.profile_many
    ~io_of:(fun i -> Interp.Iomodel.random ~seed:(20 + i))
    ~runs (parse src)

let test_workers_concurrent () =
  let prof =
    profile
      {|int g;
        void w(int *u) { int i; for (i = 0; i < 40; i++) { g = g + 1; } }
        int main() { int t1; int t2;
          t1 = spawn(w, &g); t2 = spawn(w, &g);
          join(t1); join(t2); return g; }|}
  in
  Alcotest.(check bool) "(w,w) observed concurrent" true
    (Profiling.Profile.concurrent prof "w" "w");
  Alcotest.(check bool) "(main,w) observed concurrent" true
    (Profiling.Profile.concurrent prof "main" "w")

let test_fork_ordered_never_concurrent () =
  let prof =
    profile
      {|int g;
        void before() { g = 1; }
        void after() { g = g + 1; }
        void w(int *u) { g = g * 2; }
        int main() { int t;
          before();
          t = spawn(w, &g);
          join(t);
          after();
          return g; }|}
  in
  Alcotest.(check bool) "(before,w) never concurrent" false
    (Profiling.Profile.concurrent prof "before" "w");
  Alcotest.(check bool) "(after,w) never concurrent" false
    (Profiling.Profile.concurrent prof "after" "w")

let test_barrier_phases_never_concurrent () =
  (* the water pattern: interf and bndry are barrier-separated *)
  let prof =
    profile
      {|int x; int bar;
        void interf(int id) { int i; for (i = 0; i < 20; i++) { x = x + i; } }
        void bndry(int id) { int i; for (i = 0; i < 20; i++) { x = x - i; } }
        void w(int *idp) {
          interf(*idp);
          barrier_wait(&bar);
          bndry(*idp);
        }
        int main() { int t1; int t2; int i1; int i2;
          i1 = 1; i2 = 2;
          barrier_init(&bar, 2);
          t1 = spawn(w, &i1); t2 = spawn(w, &i2);
          join(t1); join(t2); return x; }|}
  in
  Alcotest.(check bool) "(interf,interf) concurrent" true
    (Profiling.Profile.concurrent prof "interf" "interf");
  Alcotest.(check bool) "(interf,bndry) never concurrent" false
    (Profiling.Profile.concurrent prof "interf" "bndry")

(* A thread that faults inside a call leaves no function on the
   profiler's stacks: [boom] and [worker] are over when [main] calls
   [g], so neither pairs with it. *)
let test_faulting_call_leaves_no_stack () =
  let prof =
    profile
      {|int g0;
        void boom(int *u) { int a[1]; a[3] = 1; }
        void worker(int *u) { boom(u); }
        void g() { g0 = g0 + 1; }
        int main() { int t; t = spawn(worker, &g0); join(t); g(); return 0; }|}
  in
  Alcotest.(check bool) "(boom,g) never concurrent" false
    (Profiling.Profile.concurrent prof "boom" "g");
  Alcotest.(check bool) "(g,worker) never concurrent" false
    (Profiling.Profile.concurrent prof "g" "worker");
  Alcotest.(check bool) "(main,worker) concurrent" true
    (Profiling.Profile.concurrent prof "main" "worker")

(* A [break] or [continue] that unwinds out of a callee into the
   caller's loop ends the callee's invocation as a return does: [b] and
   [c] are over when [worker] starts, so neither pairs with it. *)
let test_unwound_call_leaves_no_stack () =
  let prof =
    profile
      {|int g0;
        void b(int a) { if (a == 2) { break; } }
        void c(int a) { if (a == 1) { continue; } }
        void worker(int *u) { g0 = g0 + 1; }
        int main() { int i; int t;
          for (i = 0; i < 5; i++) { b(i); }
          for (i = 0; i < 3; i++) { c(i); }
          t = spawn(worker, &g0); join(t); return 0; }|}
  in
  Alcotest.(check bool) "(b,worker) never concurrent" false
    (Profiling.Profile.concurrent prof "b" "worker");
  Alcotest.(check bool) "(c,worker) never concurrent" false
    (Profiling.Profile.concurrent prof "c" "worker");
  Alcotest.(check bool) "(main,worker) concurrent" true
    (Profiling.Profile.concurrent prof "main" "worker")

let test_loop_body_size () =
  let src =
    {|int a[100];
      int main() {
        int i;
        for (i = 0; i < 50; i++) { a[i] = i; a[i] = a[i] * 2; }
        return a[0];
      }|}
  in
  let p = parse src in
  let prof = Profiling.Profile.create () in
  let _ =
    Profiling.Profile.profile_run ~io:(Interp.Iomodel.random ~seed:1) prof p
  in
  (* the single loop: body executes 2 assignments + the increment *)
  let lid =
    let found = ref None in
    Minic.Ast.iter_program_stmts
      (fun s ->
        match s.skind with
        | Minic.Ast.While (_, _, li) -> found := Some li.lid
        | _ -> ())
      p;
    Option.get !found
  in
  match Profiling.Profile.avg_loop_body prof lid with
  | Some avg ->
      Alcotest.(check bool) (Fmt.str "avg body %.1f in [2,5]" avg) true
        (avg >= 2. && avg <= 5.)
  | None -> Alcotest.fail "loop never profiled"

let test_saturation () =
  (* the Section 7.3 sensitivity property: pairs saturate after few runs *)
  let src =
    {|int g;
      void a(int *u) { int i; for (i = 0; i < 30; i++) { g = g + 1; } }
      void b(int *u) { int i; for (i = 0; i < 30; i++) { g = g - 1; } }
      int main() { int t1; int t2;
        t1 = spawn(a, &g); t2 = spawn(b, &g);
        join(t1); join(t2); return g; }|}
  in
  let after n =
    Profiling.Profile.n_concurrent_pairs (profile ~runs:n src)
  in
  let p3 = after 3 and p10 = after 10 in
  Alcotest.(check int) "saturated by run 3" p3 p10

let plan_view = Instrument.Plan.profile_view Instrument.Plan.all_opts

let test_stop_rule_late_pair () =
  (* [b] runs only from run 3 on: runs 1-2 agree, run 3 changes the
     view, runs 4-5 confirm it, so profiling stops after run 5 of 8 *)
  let p =
    parse
      {|int g; int h;
        void a(int *u) { int i; for (i = 0; i < 10; i++) { g = g + 1; } }
        void b(int *u) { int i; for (i = 0; i < 10; i++) { h = h + 1; } }
        int main() { int t1; int t2; int k;
          k = input();
          t1 = spawn(a, &g);
          if (k > 0) { t2 = spawn(b, &h); join(t2); }
          join(t1); return g + h; }|}
  in
  let io_of i =
    {
      Interp.Iomodel.io_input = (fun _ -> if i >= 3 then 1 else 0);
      io_read = (fun _ -> []);
    }
  in
  let stopped ?pool () =
    Profiling.Profile.profile_many ?pool ~view:plan_view ~io_of ~runs:8 p
  in
  let prof = stopped () in
  Alcotest.(check bool) "late pair (main,b) present" true
    (Profiling.Profile.concurrent prof "main" "b");
  Alcotest.(check int) "stopped after run 5" 5 prof.runs;
  let par = Par.Pool.with_pool ~clamp:false ~domains:4 (fun pool -> stopped ~pool ()) in
  Alcotest.(check int) "-j 4 stops at the same run" prof.runs par.runs;
  Alcotest.(check bool) "-j 4 view equals serial" true
    (plan_view par = plan_view prof);
  Alcotest.(check int) "no view: exactly the cap" 8
    (Profiling.Profile.profile_many ~io_of ~runs:8 p).runs

(* everything a plan decides: per-pair regions and locks, the lock
   count, and the acquisitions the instrumented program performs *)
let plan_digest prog (pl : Instrument.Plan.t) =
  ( pl.pl_decisions,
    pl.pl_n_locks,
    Minic.Pretty.program_to_string (Instrument.Transform.apply prog pl) )

let test_stopped_plan_equals_fixed () =
  List.iter
    (fun (b : Bench_progs.Registry.bench) ->
      let io_of i = b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale in
      let an =
        Chimera.Pipeline.analyze ~profile_runs:12 ~profile_io:io_of
          (Minic.Parser.parse ~file:b.b_name
             (b.b_source ~workers:4 ~scale:b.b_eval_scale))
      in
      let fixed =
        Instrument.Plan.compute an.an_prog an.an_report
          (Profiling.Profile.profile_many ~io_of ~runs:12 an.an_prog)
      in
      Alcotest.(check bool)
        (Fmt.str "%s: stopped early (%d runs)" b.b_name an.an_profile.runs)
        true (an.an_profile.runs < 12);
      Alcotest.(check bool)
        (Fmt.str "%s: stopped plan == 12-run plan" b.b_name)
        true
        (plan_digest an.an_prog an.an_plan_raw = plan_digest an.an_prog fixed))
    Bench_progs.Registry.all

let suite =
  [
    Alcotest.test_case "workers concurrent" `Quick test_workers_concurrent;
    Alcotest.test_case "fork-ordered non-concurrent" `Quick
      test_fork_ordered_never_concurrent;
    Alcotest.test_case "barrier phases non-concurrent (Fig 2)" `Quick
      test_barrier_phases_never_concurrent;
    Alcotest.test_case "loop body size" `Quick test_loop_body_size;
    Alcotest.test_case "profile saturation" `Quick test_saturation;
    Alcotest.test_case "stop rule: late pair, 5 of 8 runs" `Quick
      test_stop_rule_late_pair;
    Alcotest.test_case "stop rule: stopped plan == 12-run plan (benches)"
      `Slow test_stopped_plan_equals_fixed;
    Alcotest.test_case "faulting call leaves no stack" `Quick
      test_faulting_call_leaves_no_stack;
    Alcotest.test_case "break or continue out of a call leaves no stack" `Quick
      test_unwound_call_leaves_no_stack;
  ]
