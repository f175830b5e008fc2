(** Tests for the runtime observability layer ([lib/trace]): sink ring
    buffers, metric aggregation, Chrome-trace export, the stable-stream
    divergence diagnostic, and the end-to-end pin, on three programs,
    that a traced record and its traced replay emit identical stable
    event streams while the trace costs the run nothing. *)

open Runtime

let wl ?(gran = Minic.Ast.Gloop) id = { Minic.Ast.wl_id = id; wl_gran = gran }
let addr name = { Key.a_origin = Key.OGlobal name; a_off = 0 }

let ev ?(tp = []) step kind = { Trace.ev_tp = tp; ev_step = step; ev_kind = kind }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what hay needle =
  Alcotest.(check bool)
    (Fmt.str "%s contains %S" what needle)
    true (contains hay needle)

(* ------------------------------------------------------------------ *)
(* Sink *)

let test_sink_order () =
  let s = Trace.Sink.create () in
  Trace.Sink.emit s [ 1 ] ~step:3 Trace.Syscall;
  Trace.Sink.emit s [] ~step:1 (Trace.Weak_acquire (wl 0));
  Trace.Sink.emit s [ 0 ] ~step:2 Trace.Syscall;
  Trace.Sink.emit s [ 1 ] ~step:5 (Trace.Weak_release (wl 0));
  Alcotest.(check (list (list int)))
    "threads sorted" [ []; [ 0 ]; [ 1 ] ] (Trace.Sink.threads s);
  (* events: threads in tid_path order, emission order within a thread *)
  let steps = List.map (fun e -> e.Trace.ev_step) (Trace.Sink.events s) in
  Alcotest.(check (list int)) "grouped + ordered" [ 1; 2; 3; 5 ] steps;
  Alcotest.(check int) "thread_events" 2
    (List.length (Trace.Sink.thread_events s [ 1 ]));
  Alcotest.(check int) "nothing dropped" 0 (Trace.Sink.dropped s)

let test_sink_overflow () =
  let s = Trace.Sink.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.Sink.emit s [] ~step:i Trace.Syscall
  done;
  let steps = List.map (fun e -> e.Trace.ev_step) (Trace.Sink.events s) in
  Alcotest.(check (list int)) "oldest dropped, newest kept" [ 7; 8; 9; 10 ] steps;
  Alcotest.(check int) "drop count" 6 (Trace.Sink.dropped s)

(* A sink losing events must say which threads lost them, and a summary
   built from it must carry the breakdown into reports: a sustained-load
   run with overflowing rings can never pass as a complete trace. *)
let test_sink_overflow_by_thread () =
  let s = Trace.Sink.create ~capacity:4 () in
  (* thread [0] overflows by 6, thread [1] stays within capacity *)
  for i = 1 to 10 do
    Trace.Sink.emit s [ 0 ] ~step:i Trace.Syscall
  done;
  for i = 1 to 3 do
    Trace.Sink.emit s [ 1 ] ~step:i Trace.Syscall
  done;
  Alcotest.(check (list (pair (list int) int)))
    "only the overflowing thread listed"
    [ ([ 0 ], 6) ]
    (Trace.Sink.dropped_by_thread s);
  let su =
    Trace.summarize ~dropped:(Trace.Sink.dropped s)
      ~dropped_by_thread:(Trace.Sink.dropped_by_thread s)
      (Trace.Sink.events s)
  in
  Alcotest.(check int) "summary total" 6 su.Trace.su_dropped;
  Alcotest.(check (list (pair (list int) int)))
    "summary breakdown" [ ([ 0 ], 6) ] su.Trace.su_dropped_by_thread;
  let report = Fmt.str "@[<v>%a@]" (Trace.pp_report ~top:10) su in
  check_contains "report" report "ring overflow";
  check_contains "report" report "T0.0:6";
  (* a sink that kept everything stays silent: no overflow line *)
  let quiet = Trace.summarize [ ev 1 Trace.Syscall ] in
  Alcotest.(check (list (pair (list int) int)))
    "no losses, no breakdown" [] quiet.Trace.su_dropped_by_thread;
  Alcotest.(check bool) "no overflow line" false
    (contains
       (Fmt.str "@[<v>%a@]" (Trace.pp_report ~top:10) quiet)
       "ring overflow")

(* ------------------------------------------------------------------ *)
(* Aggregation *)

let sample_events =
  [
    ev 1 (Trace.Region_enter 2);
    ev 2 (Trace.Weak_acquire (wl 7));
    ev 2 (Trace.Weak_block (wl 7, 2));
    ev 3 (Trace.Weak_block (wl 7, 4));
    ev 4 (Trace.Weak_wake (wl 7));
    ev 5 (Trace.Weak_acquire (wl 7));
    ev 6 (Trace.Weak_forced (wl 7));
    ev 7 (Trace.Weak_acquire (wl ~gran:Minic.Ast.Gfunc 0));
    ev 8 (Trace.Sync (Replay.Log.SMutexAcq, addr "m"));
    ev 9 Trace.Syscall;
    ev 10 Trace.Syscall;
    ev 11 Trace.Replay_miss;
    ev 12 (Trace.Region_exit 2);
  ]

let test_summarize () =
  let su = Trace.summarize ~dropped:3 sample_events in
  Alcotest.(check int) "events" (List.length sample_events) su.Trace.su_events;
  Alcotest.(check int) "dropped" 3 su.Trace.su_dropped;
  Alcotest.(check int) "sync" 1 su.Trace.su_sync;
  Alcotest.(check int) "syscalls" 2 su.Trace.su_syscalls;
  Alcotest.(check int) "replay misses" 1 su.Trace.su_replay_miss;
  Alcotest.(check int) "regions" 1 su.Trace.su_regions;
  (match su.Trace.su_locks with
  | lm :: _ ->
      (* loop7 has the block events, so it sorts first *)
      Alcotest.(check int) "top lock id" 7 lm.Trace.lm_lock.Minic.Ast.wl_id;
      Alcotest.(check int) "acquisitions" 2 lm.Trace.lm_acq;
      Alcotest.(check int) "blocks" 2 lm.Trace.lm_blocks;
      Alcotest.(check int) "queue sum" 6 lm.Trace.lm_queue_sum;
      Alcotest.(check int) "forced" 1 lm.Trace.lm_forced;
      Alcotest.(check int) "wakes" 1 lm.Trace.lm_wakes;
      Alcotest.(check (float 1e-9)) "mean queue depth" 3.0
        (Trace.mean_queue_depth lm)
  | [] -> Alcotest.fail "no lock metrics");
  Alcotest.(check int) "two locks" 2 (List.length su.Trace.su_locks);
  (* per-granularity mix: Gfunc rank 0, Gloop rank 1 *)
  Alcotest.(check int) "func acqs" 1 su.Trace.su_gran.(0).Trace.gm_acq;
  Alcotest.(check int) "loop acqs" 2 su.Trace.su_gran.(1).Trace.gm_acq;
  Alcotest.(check int) "loop blocks" 2 su.Trace.su_gran.(1).Trace.gm_blocks;
  Alcotest.(check int) "loop forced" 1 su.Trace.su_gran.(1).Trace.gm_forced

let test_report () =
  let su = Trace.summarize sample_events in
  let s = Fmt.str "@[<v>%a@]" (Trace.pp_report ~top:1) su in
  check_contains "report" s "events";
  check_contains "report" s "loop7";
  (* top 1: the second lock (func0) must be elided from the table *)
  Alcotest.(check bool) "top-N truncates" false (contains s "func0")

let test_chrome_export () =
  let s = Trace.to_chrome sample_events in
  Alcotest.(check bool) "array open" true (String.length s > 2 && s.[0] = '[');
  Alcotest.(check string) "array close" "]" (String.sub (String.trim s)
    (String.length (String.trim s) - 1) 1);
  check_contains "chrome" s "\"thread_name\"";
  check_contains "chrome" s "\"ph\":\"B\"";
  check_contains "chrome" s "\"ph\":\"E\"";
  check_contains "chrome" s "\"ph\":\"i\"";
  check_contains "chrome" s "\"cat\":\"weak\"";
  check_contains "chrome" s "\"ts\":9"

(* ------------------------------------------------------------------ *)
(* Divergence diagnosis *)

let stable_stream =
  [
    ev ~tp:[] 1 (Trace.Weak_acquire (wl 1));
    ev ~tp:[] 4 (Trace.Weak_release (wl 1));
    ev ~tp:[ 0 ] 2 Trace.Syscall;
    ev ~tp:[ 0 ] 6 (Trace.Sync (Replay.Log.SMutexAcq, addr "m"));
  ]

let test_divergence_none () =
  Alcotest.(check bool) "identical streams agree" true
    (Trace.first_divergence ~recorded:stable_stream ~replayed:stable_stream
    = None)

let test_divergence_unstable_insensitive () =
  (* block/wake/replay-miss events are schedule noise: inserting them
     into one side must not register as divergence *)
  let noisy =
    ev ~tp:[ 0 ] 2 (Trace.Weak_block (wl 1, 3))
    :: ev ~tp:[ 0 ] 2 (Trace.Weak_wake (wl 1))
    :: ev ~tp:[] 3 Trace.Replay_miss :: stable_stream
  in
  Alcotest.(check bool) "unstable events ignored" true
    (Trace.first_divergence ~recorded:stable_stream ~replayed:noisy = None)

let test_divergence_located () =
  let replayed =
    List.map
      (fun e ->
        if e.Trace.ev_tp = [ 0 ] && e.Trace.ev_step = 6 then
          { e with Trace.ev_kind = Trace.Syscall }
        else e)
      stable_stream
  in
  match Trace.first_divergence ~recorded:stable_stream ~replayed with
  | None -> Alcotest.fail "divergence missed"
  | Some d ->
      Alcotest.(check (list int)) "thread" [ 0 ] d.Trace.dv_tp;
      Alcotest.(check int) "index in stable stream" 1 d.Trace.dv_index;
      Alcotest.(check bool) "both sides reported" true
        (d.Trace.dv_recorded <> None && d.Trace.dv_replayed <> None)

let test_divergence_truncated () =
  (* the replayed stream of T0.0 ends early: report the missing event *)
  let replayed =
    List.filter (fun e -> e.Trace.ev_tp <> [ 0 ] || e.Trace.ev_step < 6)
      stable_stream
  in
  match Trace.first_divergence ~recorded:stable_stream ~replayed with
  | None -> Alcotest.fail "truncation missed"
  | Some d ->
      Alcotest.(check (list int)) "thread" [ 0 ] d.Trace.dv_tp;
      Alcotest.(check bool) "recorded side present" true
        (d.Trace.dv_recorded <> None);
      Alcotest.(check bool) "replayed side ended" true
        (d.Trace.dv_replayed = None)

let test_divergence_earliest () =
  (* two threads diverge; the report must name the smaller logical step *)
  let recorded =
    [
      ev ~tp:[ 0 ] 10 Trace.Syscall;
      ev ~tp:[ 1 ] 3 Trace.Syscall;
    ]
  in
  let replayed =
    [
      ev ~tp:[ 0 ] 10 (Trace.Weak_acquire (wl 1));
      ev ~tp:[ 1 ] 3 (Trace.Weak_acquire (wl 1));
    ]
  in
  match Trace.first_divergence ~recorded ~replayed with
  | None -> Alcotest.fail "divergence missed"
  | Some d -> Alcotest.(check (list int)) "earliest step wins" [ 1 ] d.Trace.dv_tp

(* ------------------------------------------------------------------ *)
(* End-to-end: traced execution, over a list of inputs *)

let racy_src ~threads ~iters =
  let ts = List.init threads (fun i -> Fmt.str "t%d" i) in
  let each f = String.concat " " (List.map f ts) in
  Fmt.str
    "int counter = 0;\n\
     void w(int *u) {\n\
    \  int i; int tmp;\n\
    \  for (i = 0; i < %d; i++) { tmp = counter; counter = tmp + 1; }\n\
     }\n\
     int main() { %s\n  %s\n  %s\n  output(counter);\n  return 0; }\n"
    iters
    (each (Fmt.str "int %s;"))
    (each (Fmt.str "%s = spawn(w, &counter);"))
    (each (Fmt.str "join(%s);"))

let input_driven_src =
  "int main() { int n; int i; int s; int x;\n\
  \  s = 0;\n\
  \  n = input();\n\
  \  for (i = 0; i < n; i++) { x = input(); s = s + x; }\n\
  \  output(s);\n\
  \  return 0; }\n"

let analyze ~file src =
  Chimera.Pipeline.analyze_source ~profile_runs:4
    ~profile_io:(fun i -> Interp.Iomodel.random ~seed:(100 + i))
    ~file src

let stream_io seed =
  Interp.Iomodel.stream ~seed ~chunks:2 ~chunk_size:4 ~input_range:6

(* (name, instrumented program, io model): two racy counters, and a
   program whose control flow follows its recorded inputs *)
let inputs =
  lazy
    (List.map
       (fun (name, file, src, io) ->
         (name, (analyze ~file src).Chimera.Pipeline.an_instrumented, io))
       [
         ( "racy counter",
           "racy.mc",
           racy_src ~threads:2 ~iters:40,
           Interp.Iomodel.random ~seed:42 );
         ( "racy counter, 3 threads",
           "racy3.mc",
           racy_src ~threads:3 ~iters:60,
           Interp.Iomodel.random ~seed:7 );
         ("input-driven", "inputs.mc", input_driven_src, stream_io 3);
       ])

let eval_config seed = { Interp.Engine.default_config with seed; cores = 4 }

(* the acceptance pin: with tracing enabled, record and replay of the
   same run produce identical stable event streams; the recorded trace
   also exports as well-formed Chrome JSON and renders as a report *)
let test_record_replay_streams_identical () =
  List.iter
    (fun (name, prog, io) ->
      let rec_sink = Trace.Sink.create () in
      let r =
        Chimera.Runner.record ~config:(eval_config 1) ~sink:rec_sink ~io prog
      in
      let recorded = Trace.Sink.events rec_sink in
      Alcotest.(check bool) (name ^ ": trace nonempty") true (recorded <> []);
      if String.starts_with ~prefix:"racy" name then
        Alcotest.(check bool) (name ^ ": weak activity traced") true
          (List.exists
             (fun e ->
               match e.Trace.ev_kind with
               | Trace.Weak_acquire _ -> true
               | _ -> false)
             recorded);
      List.iter
        (fun seed ->
          let rep_sink = Trace.Sink.create () in
          let o =
            Chimera.Runner.replay ~config:(eval_config seed) ~sink:rep_sink
              ~io prog r.rc_log
          in
          (match Chimera.Runner.same_execution r.rc_outcome o with
          | Ok () -> ()
          | Error d ->
              Alcotest.failf "%s: replay diverged: %a" name
                Chimera.Runner.pp_divergence d);
          let replayed = Trace.Sink.events rep_sink in
          (match Trace.first_divergence ~recorded ~replayed with
          | None -> ()
          | Some d ->
              Alcotest.failf "%s: stable streams diverged: %a" name
                Trace.pp_divergence d);
          (* stronger than first_divergence = None: the stable streams
             are elementwise equal *)
          let stable evs =
            List.filter (fun e -> Trace.stable e.Trace.ev_kind) evs
          in
          Alcotest.(check bool)
            (Fmt.str "%s: stable streams elementwise equal (replay seed %d)"
               name seed)
            true
            (stable recorded = stable replayed))
        [ 23; 42 ];
      (match Bjson.parse (Trace.to_chrome recorded) with
      | _ -> ()
      | exception Bjson.Bad m ->
          Alcotest.failf "%s: chrome export is not JSON: %s" name m);
      let su =
        Trace.summarize ~dropped:(Trace.Sink.dropped rec_sink) recorded
      in
      Alcotest.(check bool) (name ^ ": text report renders") true
        (String.length (Fmt.str "@[<v>%a@]" (Trace.pp_report ~top:5) su) > 0))
    (Lazy.force inputs)

(* tracing must be free: a traced record is byte-identical to an
   untraced one (same outcome, ticks included, same logs) *)
let test_tracing_is_free () =
  List.iter
    (fun (name, prog, io) ->
      List.iter
        (fun seed ->
          let plain =
            Chimera.Runner.record ~config:(eval_config seed) ~io prog
          in
          let traced =
            Chimera.Runner.record ~config:(eval_config seed)
              ~sink:(Trace.Sink.create ()) ~io prog
          in
          (match
             Chimera.Runner.same_execution plain.rc_outcome traced.rc_outcome
           with
          | Ok () -> ()
          | Error d ->
              Alcotest.failf "%s: tracing perturbed the run: %a" name
                Chimera.Runner.pp_divergence d);
          Alcotest.(check int) (name ^ ": identical ticks")
            plain.rc_outcome.o_ticks traced.rc_outcome.o_ticks;
          Alcotest.(check string) (name ^ ": identical order log")
            (Replay.Log.encode_order_log plain.rc_log)
            (Replay.Log.encode_order_log traced.rc_log);
          Alcotest.(check string) (name ^ ": identical input log")
            (Replay.Log.encode_input_log plain.rc_log)
            (Replay.Log.encode_input_log traced.rc_log))
        [ 1; 5 ])
    (Lazy.force inputs)

(* the divergence diagnostic on a damaged log: record the input-driven
   program, corrupt the recorded input values, and require the
   diagnostic to name a concrete first diverging event *)
let test_diagnostic_on_corrupt_log () =
  let _, prog, _ =
    List.find (fun (n, _, _) -> n = "input-driven") (Lazy.force inputs)
  in
  let io = stream_io 9 in
  let r = Chimera.Runner.record ~config:(eval_config 2) ~io prog in
  (* sanity: on the intact log the diagnostic reports agreement *)
  Alcotest.(check bool) "intact log: streams agree" true
    (Chimera.Runner.first_trace_divergence ~config:(eval_config 2) ~io prog
       r.rc_log
    = None);
  (* damage every recorded input value: the replayed main thread now
     runs the loop a different number of times, so its stable stream
     (syscall steps) parts ways with the recording *)
  let log = r.rc_log in
  Hashtbl.iter
    (fun _ bursts -> bursts := List.map (List.map (fun v -> v + 1)) !bursts)
    log.inputs;
  match
    Chimera.Runner.first_trace_divergence ~config:(eval_config 2) ~io prog log
  with
  | None -> Alcotest.fail "diagnostic missed the corrupted log"
  | Some d ->
      Alcotest.(check bool) "names a concrete event" true
        (d.Trace.dv_recorded <> None || d.Trace.dv_replayed <> None);
      (* exercised for coverage: the report must render *)
      Alcotest.(check bool) "printable" true
        (String.length (Fmt.str "%a" Trace.pp_divergence d) > 0)

let suite =
  [
    Alcotest.test_case "sink: emission order + thread grouping" `Quick
      test_sink_order;
    Alcotest.test_case "sink: ring overflow drops oldest" `Quick
      test_sink_overflow;
    Alcotest.test_case "sink: per-thread drops surface in summaries" `Quick
      test_sink_overflow_by_thread;
    Alcotest.test_case "summarize: lock + granularity metrics" `Quick
      test_summarize;
    Alcotest.test_case "report: totals + top-N" `Quick test_report;
    Alcotest.test_case "chrome export well-formed" `Quick test_chrome_export;
    Alcotest.test_case "divergence: identical -> None" `Quick
      test_divergence_none;
    Alcotest.test_case "divergence: unstable events ignored" `Quick
      test_divergence_unstable_insensitive;
    Alcotest.test_case "divergence: located by thread + index" `Quick
      test_divergence_located;
    Alcotest.test_case "divergence: truncated stream" `Quick
      test_divergence_truncated;
    Alcotest.test_case "divergence: earliest step wins" `Quick
      test_divergence_earliest;
    Alcotest.test_case "record == replay stable streams (pin)" `Quick
      test_record_replay_streams_identical;
    Alcotest.test_case "tracing is observation-free" `Quick
      test_tracing_is_free;
    Alcotest.test_case "diagnostic names first diverging event" `Quick
      test_diagnostic_on_corrupt_log;
  ]
