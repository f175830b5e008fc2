(** Tests for the simulator engine: MiniC semantics (arithmetic, arrays,
    structs, pointers, recursion, control flow), scheduling determinism
    for a fixed seed, racy-outcome divergence across seeds, I/O latency
    hiding, fault detection, and the weak-lock timeout escape hatch. *)

let parse src = Minic.Typecheck.parse_and_check ~file:"test.mc" src

let run ?(seed = 1) ?(cores = 4) ?config src =
  let config =
    match config with
    | Some c -> c
    | None -> { Interp.Engine.default_config with seed; cores }
  in
  let io = Interp.Iomodel.random ~seed:99 in
  Interp.Engine.run ~config ~mode:Interp.Engine.Native ~io (parse src)

let outputs o = List.map snd o.Interp.Engine.o_outputs

let check_outputs name expected src =
  let o = run src in
  List.iter
    (fun (p, m) ->
      Alcotest.failf "fault in %a: %s" Runtime.Key.pp_tid_path p m)
    o.o_faults;
  Alcotest.(check (list int)) name expected (outputs o)

(* ------------------------------------------------------------------ *)
(* Sequential semantics *)

let test_arith () =
  check_outputs "arith" [ 14; 1; 6; -3; 1; 0; 12 ]
    {|int main() {
        output(2 + 3 * 4);
        output(7 % 2);
        output(25 / 4);
        output(0 - 3);
        output(5 > 4 && 2 < 3);
        output(!7);
        output(4 | 8);
        return 0;
      }|}

let test_shortcut_eval () =
  check_outputs "shortcut && avoids division by zero" [ 0; 1 ]
    {|int main() {
        int z; z = 0;
        output(z != 0 && 10 / z > 1);
        output(z == 0 || 10 / z > 1);
        return 0;
      }|}

let test_arrays () =
  check_outputs "array sum" [ 45 ]
    {|int a[10];
      int main() {
        int i; int s; s = 0;
        for (i = 0; i < 10; i++) { a[i] = i; }
        for (i = 0; i < 10; i++) { s = s + a[i]; }
        output(s);
        return 0;
      }|}

let test_2d_arrays () =
  check_outputs "2d array" [ 7 ]
    {|int m[3][4];
      int main() {
        m[2][3] = 7;
        output(m[2][3]);
        return 0;
      }|}

let test_structs () =
  check_outputs "struct fields + arrow" [ 5; 11 ]
    {|struct pt { int x; int y; };
      struct pt g;
      int main() {
        struct pt *p;
        g.x = 5;
        p = &g;
        p->y = p->x + 6;
        output(g.x);
        output(g.y);
        return 0;
      }|}

let test_pointers () =
  check_outputs "pointer arithmetic over array" [ 30 ]
    {|int a[4] = {1, 2, 3, 24};
      int main() {
        int *p; int s; int i;
        p = a; s = 0;
        for (i = 0; i < 4; i++) { s = s + *(p + i); }
        output(s);
        return 0;
      }|}

let test_recursion () =
  check_outputs "factorial" [ 120 ]
    {|int fact(int n) {
        int rest;
        if (n <= 1) { return 1; }
        rest = fact(n - 1);
        return n * rest;
      }
      int main() { int r; r = fact(5); output(r); return 0; }|}

let test_break_continue () =
  check_outputs "break/continue" [ 16 ]
    {|int main() {
        int i; int s; s = 0;
        for (i = 0; i < 100; i++) {
          if (i % 2 == 0) { continue; }
          if (i > 7) { break; }
          s = s + i;
        }
        output(s);
        return 0;
      }|}

let test_globals_initialized () =
  check_outputs "global initializers" [ 10; 0 ]
    {|int g = 10;
      int z;
      int main() { output(g); output(z); return 0; }|}

let test_malloc () =
  check_outputs "heap blocks" [ 5; 9 ]
    {|int main() {
        int *p; int *q;
        p = malloc(2);
        q = malloc(3);
        p[0] = 5; p[1] = 4;
        q[0] = p[0] + p[1];
        output(p[0]);
        output(q[0]);
        free(p);
        return 0;
      }|}

let test_fault_oob () =
  let o = run {|int a[2]; int main() { a[5] = 1; return 0; }|} in
  Alcotest.(check int) "one fault" 1 (List.length o.o_faults);
  Alcotest.(check bool) "out-of-bounds message" true
    (match o.o_faults with
    | [ (_, m) ] ->
        Testutil.contains m "out-of-bounds"
    | _ -> false)

let test_fault_div0 () =
  let o = run {|int main() { int z; z = 0; output(1 / z); return 0; }|} in
  Alcotest.(check int) "one fault" 1 (List.length o.o_faults)

let test_fault_use_after_free () =
  let o =
    run {|int main() { int *p; p = malloc(1); free(p); *p = 1; return 0; }|}
  in
  Alcotest.(check int) "one fault" 1 (List.length o.o_faults)

let test_exit_builtin () =
  let o =
    run {|int main() { output(1); exit(3); output(2); return 0; }|}
  in
  Alcotest.(check (option int)) "exit code" (Some 3) o.o_exit;
  Alcotest.(check (list int)) "stops at exit" [ 1 ] (outputs o)

(* Frames and memory faults, pinned to the outputs and fault texts the
   engine gave before the running frame moved into the thread and empty
   memory slots became a shared stub. A [break] or [continue] that
   unwinds out of a callee ends the caller's iteration, after which the
   caller reads its own locals; freeing a live frame faults its next
   access; a call that cannot be resolved faults at every thread that
   reaches it; loads and stores outside their block, or in a freed one,
   keep their texts. *)
let test_frame_and_fault_pins () =
  let case name src ~outputs:expected ~faults =
    let io = Interp.Iomodel.random ~seed:1 in
    let o =
      Interp.Engine.run ~mode:Interp.Engine.Native ~io (Minic.Parser.parse src)
    in
    Alcotest.(check (list int)) (name ^ ": outputs") expected (outputs o);
    Alcotest.(check (list string))
      (name ^ ": faults") faults (List.map snd o.o_faults)
  in
  case "break and continue out of a callee" ~outputs:[ 7; 7; 200; 7; 3 ]
    ~faults:[]
    {|int f(int a) { int z; int w; z = a * 100; w = 55;
        if (a == 3) { break; } if (a == 1) { continue; } return z; }
      int main() { int i; int s; int k; int t; s = 0; k = 7;
        for (i = 0; i < 10; i++) { t = f(i); s = s + t; output(k); }
        output(s); output(k); output(i); return 0; }|};
  case "continue out of a callee in a while loop" ~outputs:[ 3 ] ~faults:[]
    {|void g() { int q; int r; q = 9; r = 11; continue; }
      int main() { int s; s = 0;
        while (s < 3) { s = s + 1; g(); output(s); }
        output(s); return 0; }|};
  case "free of the running frame" ~outputs:[ 1 ]
    ~faults:[ "use of freed block b1" ]
    {|int main() { int x; int y; x = 1; output(x); free(&x); y = 2;
        output(y); return 0; }|};
  case "free of the caller's frame" ~outputs:[ 2 ]
    ~faults:[ "use of freed block b1" ]
    {|int f(int *p) { free(p); return 0; }
      int main() { int x; int y; x = 1; f(&x); output(2); output(y);
        return 0; }|};
  case "load past the end" ~outputs:[]
    ~faults:[ "out-of-bounds load at a+5 (size 2)" ]
    {|int a[2]; int main() { int v; v = a[5]; output(v); return 0; }|};
  case "store past the end" ~outputs:[]
    ~faults:[ "out-of-bounds store at a+2 (size 2)" ]
    {|int a[2]; int main() { a[2] = 1; return 0; }|};
  case "load before the start" ~outputs:[]
    ~faults:[ "out-of-bounds load at heap(T0,0)+-1 (size 2)" ]
    {|int main() { int *p; int v; p = malloc(2); p = p - 1; v = *p;
        output(v); return 0; }|};
  case "store before the start of a frame" ~outputs:[]
    ~faults:[ "out-of-bounds store at frame(T0,0)+-1 (size 3)" ]
    {|int main() { int b[3]; b[-1] = 2; return 0; }|};
  case "load after free" ~outputs:[] ~faults:[ "use of freed block b2" ]
    {|int main() { int *p; int v; p = malloc(1); free(p); v = *p;
        return 0; }|};
  case "store after a double free" ~outputs:[ 4 ]
    ~faults:[ "use of freed block b2" ]
    {|int main() { int *p; p = malloc(1); free(p); free(p); output(4);
        *p = 1; return 0; }|};
  (* the second thread reaches each call site after the first faulted
     there: a direct call's failed resolution faults again *)
  case "direct call of an undefined function, twice" ~outputs:[ 1; 1; 3 ]
    ~faults:
      [ "call to undefined function h"; "call to undefined function h" ]
    {|int g;
      void w(int *u) { output(1); h(); output(2); }
      int main() { int t1; int t2; t1 = spawn(w, &g); t2 = spawn(w, &g);
        join(t1); join(t2); output(3); return 0; }|};
  case "direct call of a frame of an unknown struct, twice"
    ~outputs:[ 1; 1; 3 ]
    ~faults:
      [ "sizeof: unknown struct nosuch"; "sizeof: unknown struct nosuch" ]
    {|int g;
      void k() { struct nosuch q; output(9); }
      void w(int *u) { output(1); k(); output(2); }
      int main() { int t1; int t2; t1 = spawn(w, &g); t2 = spawn(w, &g);
        join(t1); join(t2); output(3); return 0; }|};
  (* the same texts from the memory itself, for ids no pointer holds *)
  let m = Interp.Mem.create () in
  let g = Interp.Mem.alloc m (Runtime.Key.OGlobal "g") 2 in
  let z = Interp.Mem.alloc m (Runtime.Key.OGlobal "z") 0 in
  let f = Interp.Mem.alloc m (Runtime.Key.OGlobal "f") 1 in
  Interp.Mem.free m f.b_id;
  let fault access =
    match access () with
    | () -> "ok"
    | exception Interp.Value.Fault msg -> msg
  in
  List.iter
    (fun (id, off, load, store) ->
      Alcotest.(check string)
        (Fmt.str "load b%d+%d" id off)
        load
        (fault (fun () -> ignore (Interp.Mem.load_at m id off)));
      Alcotest.(check string)
        (Fmt.str "store b%d+%d" id off)
        store
        (fault (fun () -> Interp.Mem.store_at m id off Interp.Value.zero)))
    [
      (g.b_id, 1, "ok", "ok");
      ( g.b_id, 2,
        "out-of-bounds load at g+2 (size 2)",
        "out-of-bounds store at g+2 (size 2)" );
      ( g.b_id, -1,
        "out-of-bounds load at g+-1 (size 2)",
        "out-of-bounds store at g+-1 (size 2)" );
      ( z.b_id, 0,
        "out-of-bounds load at z+0 (size 0)",
        "out-of-bounds store at z+0 (size 0)" );
      (f.b_id, 0, "use of freed block b3", "use of freed block b3");
      (0, 0, "invalid block b0", "invalid block b0");
      (-3, 0, "invalid block b-3", "invalid block b-3");
      (4, 0, "invalid block b4", "invalid block b4");
      (5000, 0, "invalid block b5000", "invalid block b5000");
    ];
  Alcotest.(check (list bool))
    "find_opt: unknown ids are absent, freed blocks are found"
    [ false; false; true; true ]
    (List.map
       (fun id -> Interp.Mem.find_opt m id <> None)
       [ 0; 4; f.b_id; g.b_id ])

(* ------------------------------------------------------------------ *)
(* Threads & scheduling *)

let racy_src =
  {|int counter = 0;
    void w(int *u) {
      int i; int tmp;
      for (i = 0; i < 30; i++) { tmp = counter; counter = tmp + 1; }
    }
    int main() {
      int t1; int t2;
      t1 = spawn(w, &counter); t2 = spawn(w, &counter);
      join(t1); join(t2);
      output(counter);
      return 0;
    }|}

let test_same_seed_same_outcome () =
  let a = run ~seed:5 racy_src and b = run ~seed:5 racy_src in
  Alcotest.(check (list int)) "identical seeds identical runs" (outputs a)
    (outputs b);
  Alcotest.(check int) "same ticks" a.o_ticks b.o_ticks

let test_races_diverge_across_seeds () =
  let results =
    List.map (fun seed -> outputs (run ~seed racy_src)) [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let distinct = List.sort_uniq compare results in
  Alcotest.(check bool) "racy counter varies with schedule" true
    (List.length distinct > 1);
  (* lost updates only: every outcome is between 30 and 60 *)
  List.iter
    (fun r ->
      match r with
      | [ v ] ->
          Alcotest.(check bool) (Fmt.str "outcome %d in range" v) true
            (v >= 30 && v <= 60)
      | _ -> Alcotest.fail "expected one output")
    results

let test_mutex_protects () =
  let src =
    {|int counter = 0; int m;
      void w(int *u) {
        int i; int tmp;
        for (i = 0; i < 30; i++) {
          lock(&m); tmp = counter; counter = tmp + 1; unlock(&m);
        }
      }
      int main() {
        int t1; int t2;
        t1 = spawn(w, &counter); t2 = spawn(w, &counter);
        join(t1); join(t2);
        output(counter);
        return 0;
      }|}
  in
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Fmt.str "locked counter exact (seed %d)" seed)
        [ 60 ] (outputs (run ~seed src)))
    [ 1; 2; 3; 4; 5 ]

let test_barrier_phases () =
  let src =
    {|int a[4]; int b[4]; int bar;
      int ids[4];
      void w(int *idp) {
        int id; int left;
        id = *idp;
        a[id] = id + 1;
        barrier_wait(&bar);
        left = (id + 3) % 4;
        b[id] = a[left];
        barrier_wait(&bar);
      }
      int main() {
        int t[4]; int i; int s;
        barrier_init(&bar, 4);
        for (i = 0; i < 4; i++) { ids[i] = i; t[i] = spawn(w, &ids[i]); }
        for (i = 0; i < 4; i++) { join(t[i]); }
        s = 0;
        for (i = 0; i < 4; i++) { s = s * 10 + b[i]; }
        output(s);
        return 0;
      }|}
  in
  (* b[i] = a[(i+3) mod 4] = ((i+3) mod 4) + 1: [4;1;2;3] -> 4123 *)
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Fmt.str "barrier ordering (seed %d)" seed)
        [ 4123 ] (outputs (run ~seed src)))
    [ 1; 5; 9 ]

let test_cond_producer_consumer () =
  let src =
    {|int q[8]; int head = 0; int tail = 0;
      int qlock; int nonempty;
      int done_flag = 0;
      int total = 0;
      void consumer(int *u) {
        int more; int v;
        more = 1;
        while (more) {
          v = 0 - 1;
          lock(&qlock);
          while (head == tail && done_flag == 0) { cond_wait(&nonempty, &qlock); }
          if (head < tail) { v = q[head % 8]; head = head + 1; }
          unlock(&qlock);
          if (v < 0) { more = 0; } else { total = total + v; }
        }
      }
      int main() {
        int t; int i;
        t = spawn(consumer, &total);
        for (i = 1; i <= 10; i++) {
          lock(&qlock);
          q[tail % 8] = i;
          tail = tail + 1;
          cond_signal(&nonempty);
          unlock(&qlock);
        }
        lock(&qlock);
        done_flag = 1;
        cond_broadcast(&nonempty);
        unlock(&qlock);
        join(t);
        output(total);
        return 0;
      }|}
  in
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Fmt.str "producer/consumer sum (seed %d)" seed)
        [ 55 ] (outputs (run ~seed src)))
    [ 2; 4; 6 ]

let test_spawn_arg_and_tids () =
  check_outputs "spawn passes pointer; join works" [ 3 ]
    {|void child(int *p) { *p = *p + 1; }
      int main() {
        int v; int t1; int t2; int t3;
        v = 0;
        t1 = spawn(child, &v); join(t1);
        t2 = spawn(child, &v); join(t2);
        t3 = spawn(child, &v); join(t3);
        output(v);
        return 0;
      }|}

let test_more_threads_than_cores () =
  let src =
    {|int done_count = 0; int m;
      void w(int *u) {
        int i; int x; x = 0;
        for (i = 0; i < 20; i++) { x = x + i; }
        lock(&m); done_count = done_count + 1; unlock(&m);
      }
      int main() {
        int t[8]; int i;
        for (i = 0; i < 8; i++) { t[i] = spawn(w, &m); }
        for (i = 0; i < 8; i++) { join(t[i]); }
        output(done_count);
        return 0;
      }|}
  in
  let o = run ~cores:2 src in
  Alcotest.(check (list int)) "8 threads on 2 cores" [ 8 ] (outputs o)

let test_parallel_speedup () =
  (* embarrassingly parallel work must get faster with more cores *)
  let src =
    {|int sink[4];
      int ids[4];
      void w(int *idp) {
        int i; int x; int id;
        id = *idp; x = 0;
        for (i = 0; i < 200; i++) { x = x + i; }
        sink[id] = x;
      }
      int main() {
        int t[4]; int i;
        for (i = 0; i < 4; i++) { ids[i] = i; t[i] = spawn(w, &ids[i]); }
        for (i = 0; i < 4; i++) { join(t[i]); }
        output(sink[0] + sink[3]);
        return 0;
      }|}
  in
  let one = run ~cores:1 src and four = run ~cores:4 src in
  Alcotest.(check (list int)) "same result" (outputs one) (outputs four);
  Alcotest.(check bool)
    (Fmt.str "4 cores faster: %d vs %d" four.o_ticks one.o_ticks)
    true
    (float_of_int four.o_ticks < 0.45 *. float_of_int one.o_ticks)

let test_io_latency_overlap () =
  (* a compute thread should hide a network wait *)
  let src =
    {|int buf[8];
      int out = 0;
      void reader(int *u) { int got; got = net_read(buf, 8); out = got; }
      int main() {
        int t; int i; int x; x = 0;
        t = spawn(reader, &out);
        for (i = 0; i < 50; i++) { x = x + i; }
        join(t);
        output(out);
        output(x);
        return 0;
      }|}
  in
  let o = run src in
  Alcotest.(check bool) "read returned data" true
    (match outputs o with got :: _ -> got > 0 | [] -> false);
  (* total time ≈ network latency, not latency + compute *)
  Alcotest.(check bool) "latency dominates" true
    (o.o_ticks < Interp.Engine.default_config.cost.l_net + 2500)

let test_weak_timeout_breaks_deadlock () =
  (* hand-instrumented program: a weak lock held across a mutex acquire
     that another thread owns while wanting the weak lock — the paper's
     deadlock case, resolved by timeout-preemption *)
  let p =
    parse
      {|int m; int x; int y;
        void a(int *u) { lock(&m); x = 1; unlock(&m); }
        void b(int *u) { lock(&m); y = 1; unlock(&m); }
        int main() { int t1; int t2;
          t1 = spawn(a, &x); t2 = spawn(b, &y);
          join(t1); join(t2);
          output(x + y);
          return 0; }|}
  in
  (* wrap each worker body in a total weak-lock region by hand *)
  let wlock = { Minic.Ast.wl_id = 0; wl_gran = Minic.Ast.Gbb } in
  let wrap (fd : Minic.Ast.fundec) =
    if fd.f_name = "a" || fd.f_name = "b" then
      {
        fd with
        f_body =
          Minic.Ast.Fresh.stmt (WeakEnter [ { wa_lock = wlock; wa_ranges = [] } ])
          :: fd.f_body
          @ [ Minic.Ast.Fresh.stmt (WeakExit [ wlock ]) ];
      }
    else fd
  in
  Minic.Ast.Fresh.reset_from p;
  let p = { p with p_funs = List.map wrap p.p_funs } in
  let config =
    { Interp.Engine.default_config with seed = 3; cores = 4; weak_timeout = 500 }
  in
  let io = Interp.Iomodel.random ~seed:1 in
  let o = Interp.Engine.run ~config ~mode:Interp.Engine.Record ~io p in
  Alcotest.(check bool) "completes despite weak/mutex interleaving" false
    o.o_timed_out;
  Alcotest.(check (list int)) "result" [ 2 ] (outputs o)

(* An exception from a hook is not a program fault: it escapes [run]
   instead of being recorded as the faulting thread's outcome. [Exit]
   included, which must not pass for the scheduler's own stop. *)
let test_hook_exception_propagates () =
  let p = parse {|int main() { output(1); return 0; }|} in
  List.iter
    (fun exn ->
      let hooks = Interp.Engine.no_hooks () in
      hooks.on_stmt <- Some (fun _ _ -> raise exn);
      let io = Interp.Iomodel.random ~seed:1 in
      Alcotest.check_raises "hook exception escapes run" exn (fun () ->
          ignore (Interp.Engine.run ~hooks ~mode:Interp.Engine.Native ~io p)))
    [ Not_found; Exit ]

(* Program errors the compiler or the frame layout cannot resolve, in
   programs that skipped [Typecheck], are [Value.Fault]s of the thread
   that reaches them: everything before runs, nothing escapes [run]. An
   ill-typed statement in an untaken branch never faults. *)
let test_program_errors_fault_when_reached () =
  let case name src ~outputs:expected ~fault =
    let p = Minic.Parser.parse src in
    let io = Interp.Iomodel.random ~seed:1 in
    let o = Interp.Engine.run ~mode:Interp.Engine.Native ~io p in
    Alcotest.(check (list int)) (name ^ ": ran up to the fault") expected
      (outputs o);
    match o.o_faults with
    | [ ([], m) ] ->
        Alcotest.(check bool)
          (Fmt.str "%s: fault %S" name m)
          true
          (String.starts_with ~prefix:fault m)
    | _ -> Alcotest.failf "%s: expected one fault, in the main thread" name
  in
  case "field of an int" ~outputs:[ 1 ] ~fault:"field access on"
    {|int x;
      int main() {
        output(1);
        if (x) { x.f = 5; }
        x.f = 2;
        output(3);
        return 0;
      }|};
  case "break outside a loop" ~outputs:[ 1 ] ~fault:"break or continue"
    {|int main() { output(1); break; output(2); return 0; }|};
  case "local of an unknown struct" ~outputs:[] ~fault:"sizeof: unknown struct"
    {|int main() { struct nosuch s; output(1); return 0; }|};
  (* the main thread faults before it calls [main] *)
  case "global of an unknown struct" ~outputs:[]
    ~fault:"sizeof: unknown struct nosuch"
    {|int x = 4; struct nosuch g; int y;
      int main() { output(x); return 0; }|}

(* A region listing its locks out of canonical order still acquires them
   in canonical order (granularity rank, then id). *)
let test_weak_enter_canonical_order () =
  let p = parse {|int x; int main() { x = 1; output(x); return 0; }|} in
  let wl wl_gran wl_id = { Minic.Ast.wl_id; wl_gran } in
  let listed = [ wl Gbb 5; wl Gbb 2; wl Gfunc 7; wl Gloop 1 ] in
  let canonical = List.sort Minic.Ast.compare_weak_lock listed in
  Alcotest.(check bool) "listed out of order" false (listed = canonical);
  Minic.Ast.Fresh.reset_from p;
  let wrap (fd : Minic.Ast.fundec) =
    let acqs = List.map (fun l -> { Minic.Ast.wa_lock = l; wa_ranges = [] }) listed in
    {
      fd with
      f_body =
        Minic.Ast.Fresh.stmt (WeakEnter acqs)
        :: fd.f_body
        @ [ Minic.Ast.Fresh.stmt (WeakExit listed) ];
    }
  in
  let p = { p with p_funs = List.map wrap p.p_funs } in
  let sink = Trace.Sink.create () in
  let io = Interp.Iomodel.random ~seed:1 in
  ignore (Interp.Engine.run ~sink ~mode:Interp.Engine.Native ~io p);
  let acquired =
    List.filter_map
      (fun e ->
        match e.Trace.ev_kind with Trace.Weak_acquire l -> Some l | _ -> None)
      (Trace.Sink.events sink)
  in
  Alcotest.(check (list (testable Minic.Ast.pp_weak_lock ( = ))))
    "acquired in canonical order" canonical acquired


(* The [on_mem] hook order of an assignment and of a condition: binary
   operands evaluate right to left, an index before the element it
   selects, and the right-hand side before the lvalue is stored. The
   dynamic race detector and the trace streams see accesses in this
   order, so the evaluator may not move it. *)
let test_eval_order () =
  let p =
    parse
      {|int a[4]; int b[4];
        int main() {
          int i; int j; int x;
          i = 1; j = 2;
          x = a[i] + b[j];
          if (a[i] < b[j]) { x = 1; }
          return 0;
        }|}
  in
  let seen = ref [] in
  let name (k : Runtime.Key.addr) =
    match k.a_origin with
    | Runtime.Key.OGlobal g -> Fmt.str "%s[%d]" g k.a_off
    | Runtime.Key.OFrame _ -> List.nth [ "i"; "j"; "x" ] k.a_off
    | Runtime.Key.OHeap _ -> "heap"
  in
  let hooks = Interp.Engine.no_hooks () in
  hooks.on_mem <-
    Some
      (fun _ k ~write ~sid:_ ->
        seen := ((if write then "w " else "r ") ^ name k) :: !seen);
  let io = Interp.Iomodel.random ~seed:1 in
  ignore (Interp.Engine.run ~hooks ~mode:Interp.Engine.Native ~io p);
  Alcotest.(check (list string))
    "hook order"
    [
      "w i"; "w j";
      (* x = a[i] + b[j] *)
      "r j"; "r b[2]"; "r i"; "r a[1]"; "w x";
      (* if (a[i] < b[j]) *)
      "r j"; "r b[2]"; "r i"; "r a[1]";
    ]
    (List.rev !seen)


(* Allocation guard: the minor-heap words a recording allocates per
   simulated step (2.31 for the yield loop, 6.28 for the pfscan golden
   cell). A closure, option or pointer record that slips back onto the
   step path (the effect handler, the tick loop, an lvalue) adds two or
   more words to every step and fails here. The loop in one thread
   takes most steps in place, with no continuation: 0.29 words per
   step (2.27 when every step suspended the thread). The count is exact:
   [Gc.minor_words] counts this domain's allocations only, and the run
   is a function of its inputs. *)
let yield_loop =
  {|void worker(int *n) {
      int i;
      for (i = 0; i < *n; i++) {
        yield(); yield(); yield(); yield(); yield();
        yield(); yield(); yield(); yield(); yield();
      }
    }
    int main() {
      int t1; int t2; int t3; int t4; int n;
      n = 500;
      t1 = spawn(worker, &n); t2 = spawn(worker, &n);
      t3 = spawn(worker, &n); t4 = spawn(worker, &n);
      join(t1); join(t2); join(t3); join(t4);
      return 0;
    }|}

let lone_loop =
  {|int main() {
      int i;
      for (i = 0; i < 2000; i++) {
        yield(); yield(); yield(); yield(); yield();
        yield(); yield(); yield(); yield(); yield();
      }
      return 0;
    }|}

let words_per_step prog io =
  let config = { Interp.Engine.default_config with seed = 1; cores = 4 } in
  let w0 = Gc.minor_words () in
  let o = Interp.Engine.run ~config ~mode:Interp.Engine.Record ~io prog in
  let words = Gc.minor_words () -. w0 in
  words /. float_of_int (List.fold_left (fun n (_, s) -> n + s) 0 o.o_steps)

let test_alloc_per_step () =
  let check what bound prog io =
    let w = words_per_step prog io in
    if w > bound then
      Alcotest.failf "%s: %.2f minor words per step, bound %.1f" what w bound
  in
  check "yield loop" 3.0 (parse yield_loop) (Interp.Iomodel.random ~seed:1);
  check "lone yield loop" 0.5 (parse lone_loop) (Interp.Iomodel.random ~seed:1);
  let b = Bench_progs.Registry.by_name "pfscan" in
  let an = Test_e2e.analyze_bench b ~workers:4 ~scale:b.b_profile_scale in
  check "pfscan golden cell" 7.0 an.an_instrumented
    (b.b_io ~seed:42 ~scale:b.b_profile_scale)

(* The final-state hash covers every block: twelve globals, and a
   change to the eleventh in sorted order alone moves the hash *)
let test_state_hash_all_blocks () =
  let hash_with v =
    let m = Interp.Mem.create () in
    for i = 0 to 11 do
      let b = Interp.Mem.alloc m (Runtime.Key.OGlobal (Fmt.str "g%02d" i)) 2 in
      Interp.Mem.store_at m b.b_id 1
        (Interp.Value.VInt (if i = 10 then v else i))
    done;
    Interp.Mem.state_hash m
  in
  if hash_with 10 = hash_with 11 then
    Alcotest.fail "state hash ignores the eleventh block"

(* A [break] or [continue] that unwinds out of a callee into the caller's
   loop leaves the call as a return does: the callee's frame is freed
   (before, [frame(T0,2)] and [frame(T0,4)] stayed live). The outputs and
   ticks are the ones the engine printed before the fix. *)
let test_break_out_of_call_frees_frame () =
  let p =
    Minic.Parser.parse ~file:"leak.mc"
      "int f(int i) { if (i == 1) { continue; } if (i == 3) { break; }\n\
      \  output(i); return i; }\n\
       int main() { int i; for (i = 0; i < 10; i++) { f(i); } output(99);\n\
      \  return 0; }"
  in
  let eng =
    Interp.Engine.make_engine
      ~config:{ Interp.Engine.default_config with seed = 1; cores = 4 }
      ~mode:Interp.Engine.Native ~io:(Interp.Iomodel.random ~seed:1) p
  in
  let o = Interp.Engine.run_engine eng in
  Alcotest.(check (list int)) "outputs" [ 0; 2; 99 ] (outputs o);
  Alcotest.(check int) "ticks" 209 o.o_ticks;
  let live = ref [] in
  for id = 1 to 64 do
    match Interp.Mem.find_opt eng.mem id with
    | Some { b_origin = Runtime.Key.OFrame _ as og; b_freed = false; _ } ->
        live := Fmt.str "%a" Runtime.Key.pp_origin og :: !live
    | _ -> ()
  done;
  Alcotest.(check (list string)) "no frame stays live" [] !live

let suite =
  [
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "shortcut eval" `Quick test_shortcut_eval;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "2d arrays" `Quick test_2d_arrays;
    Alcotest.test_case "structs" `Quick test_structs;
    Alcotest.test_case "pointer arithmetic" `Quick test_pointers;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "break/continue" `Quick test_break_continue;
    Alcotest.test_case "global init" `Quick test_globals_initialized;
    Alcotest.test_case "malloc/free" `Quick test_malloc;
    Alcotest.test_case "fault: out of bounds" `Quick test_fault_oob;
    Alcotest.test_case "fault: div by zero" `Quick test_fault_div0;
    Alcotest.test_case "fault: use after free" `Quick test_fault_use_after_free;
    Alcotest.test_case "exit" `Quick test_exit_builtin;
    Alcotest.test_case "determinism per seed" `Quick test_same_seed_same_outcome;
    Alcotest.test_case "racy divergence across seeds" `Quick
      test_races_diverge_across_seeds;
    Alcotest.test_case "mutex protects" `Quick test_mutex_protects;
    Alcotest.test_case "barrier phases" `Quick test_barrier_phases;
    Alcotest.test_case "cond producer/consumer" `Quick test_cond_producer_consumer;
    Alcotest.test_case "spawn/join" `Quick test_spawn_arg_and_tids;
    Alcotest.test_case "threads > cores" `Quick test_more_threads_than_cores;
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "io latency overlap" `Quick test_io_latency_overlap;
    Alcotest.test_case "weak timeout breaks deadlock" `Quick
      test_weak_timeout_breaks_deadlock;
    Alcotest.test_case "hook exception propagates" `Quick
      test_hook_exception_propagates;
    Alcotest.test_case "program errors fault when reached" `Quick
      test_program_errors_fault_when_reached;
    Alcotest.test_case "weak enter canonical order" `Quick
      test_weak_enter_canonical_order;
    Alcotest.test_case "evaluation order of hooks" `Quick test_eval_order;
    Alcotest.test_case "minor words per step" `Quick test_alloc_per_step;
    Alcotest.test_case "state hash covers every block" `Quick
      test_state_hash_all_blocks;
    Alcotest.test_case "frame and memory fault pins" `Quick
      test_frame_and_fault_pins;
    Alcotest.test_case "break/continue out of a call frees its frame" `Quick
      test_break_out_of_call_frees_frame;
  ]
