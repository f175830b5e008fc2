(** Standalone gate for the observability layer (`make trace-check`).

    Exercises, end-to-end on real programs and without Alcotest:

    - a traced record followed by a traced replay yields byte-identical
      stable event streams (the determinism pin, on two programs);
    - tracing is free: a traced record matches an untraced one tick for
      tick, log byte for log byte;
    - the Chrome-trace export parses as well-formed JSON (checked with
      the strict {!Bjson} reader);
    - byte-corrupted logs raise [Replay.Log.Corrupt] — never a raw
      string-primitive exception;
    - the replay-divergence diagnostic pinpoints a concrete first
      diverging event on a structurally damaged log.

    Exits 0 when every check passes, 1 otherwise. *)

let failures = ref 0

let check what ok =
  if ok then Fmt.pr "  ok: %s@." what
  else begin
    incr failures;
    Fmt.pr "  FAIL: %s@." what
  end

(* ------------------------------------------------------------------ *)

let racy_src =
  "int counter = 0;\n\
   void w(int *u) {\n\
  \  int i; int tmp;\n\
  \  for (i = 0; i < 60; i++) { tmp = counter; counter = tmp + 1; }\n\
   }\n\
   int main() { int t1; int t2; int t3;\n\
  \  t1 = spawn(w, &counter); t2 = spawn(w, &counter);\n\
  \  t3 = spawn(w, &counter);\n\
  \  join(t1); join(t2); join(t3);\n\
  \  output(counter);\n\
  \  return 0; }\n"

let input_driven_src =
  "int main() { int n; int i; int s; int x;\n\
  \  s = 0;\n\
  \  n = input();\n\
  \  for (i = 0; i < n; i++) { x = input(); s = s + x; }\n\
  \  output(s);\n\
  \  return 0; }\n"

let analyze name src =
  Chimera.Pipeline.analyze_source ~profile_runs:4
    ~profile_io:(fun i -> Interp.Iomodel.random ~seed:(100 + i))
    ~file:name src

let config seed = { Interp.Engine.default_config with seed; cores = 4 }

let stable_stream evs =
  List.filter (fun e -> Trace.stable e.Trace.ev_kind) evs

let check_pin name (an : Chimera.Pipeline.analysis) ~io =
  Fmt.pr "[%s]@." name;
  let rec_sink = Trace.Sink.create () in
  let r =
    Chimera.Runner.record ~config:(config 1) ~sink:rec_sink ~io
      an.an_instrumented
  in
  let rep_sink = Trace.Sink.create () in
  let o =
    Chimera.Runner.replay ~config:(config 42) ~sink:rep_sink ~io
      an.an_instrumented r.rc_log
  in
  check "replay reproduces the recording"
    (Chimera.Runner.same_execution r.rc_outcome o = Ok ());
  let recorded = Trace.Sink.events rec_sink in
  let replayed = Trace.Sink.events rep_sink in
  check "trace is nonempty" (recorded <> []);
  check "no diagnostic divergence"
    (Trace.first_divergence ~recorded ~replayed = None);
  check "stable streams byte-identical"
    (stable_stream recorded = stable_stream replayed);
  (* tracing is free *)
  let plain =
    Chimera.Runner.record ~config:(config 1) ~io an.an_instrumented
  in
  check "tracing is free (ticks)"
    (plain.rc_outcome.o_ticks = r.rc_outcome.o_ticks);
  check "tracing is free (logs)"
    (Replay.Log.encode_order_log plain.rc_log
     = Replay.Log.encode_order_log r.rc_log
    && Replay.Log.encode_input_log plain.rc_log
       = Replay.Log.encode_input_log r.rc_log);
  (* export *)
  let chrome = Trace.to_chrome recorded in
  (match Bjson.parse chrome with
  | _ -> check "chrome export is well-formed JSON" true
  | exception Bjson.Bad msg ->
      check (Fmt.str "chrome export is well-formed JSON (%s)" msg) false);
  (* and the text report renders *)
  let su =
    Trace.summarize ~dropped:(Trace.Sink.dropped rec_sink) recorded
  in
  check "text report renders"
    (String.length (Fmt.str "@[<v>%a@]" (Trace.pp_report ~top:5) su) > 0);
  r

let check_corrupt (r : Chimera.Runner.recorded) =
  Fmt.pr "[corrupt logs]@.";
  let i = Replay.Log.encode_input_log r.rc_log in
  let o = Replay.Log.encode_order_log r.rc_log in
  let clean i o =
    match Replay.Log.decode i o with
    | _ -> true
    | exception Replay.Log.Corrupt _ -> true
    | exception _ -> false
  in
  let all_clean = ref true in
  for n = 0 to String.length i - 1 do
    if not (clean (String.sub i 0 n) o) then all_clean := false
  done;
  for n = 0 to String.length o - 1 do
    if not (clean i (String.sub o 0 n)) then all_clean := false
  done;
  check "every truncation: Ok or Corrupt, never a raw exception" !all_clean;
  check "over-long varint raises Corrupt"
    (match Replay.Log.decode (String.make 10 '\xff') "" with
    | _ -> false
    | exception Replay.Log.Corrupt _ -> true
    | exception _ -> false)

let check_diagnostic () =
  Fmt.pr "[divergence diagnostic]@.";
  let an = analyze "inputs.mc" input_driven_src in
  let io =
    Interp.Iomodel.stream ~seed:9 ~chunks:2 ~chunk_size:4 ~input_range:6
  in
  let r =
    Chimera.Runner.record ~config:(config 2) ~io an.an_instrumented
  in
  check "intact log: streams agree"
    (Chimera.Runner.first_trace_divergence ~config:(config 2) ~io
       an.an_instrumented r.rc_log
    = None);
  let log = r.rc_log in
  Hashtbl.iter
    (fun _ bursts -> bursts := List.map (List.map (fun v -> v + 1)) !bursts)
    log.inputs;
  match
    Chimera.Runner.first_trace_divergence ~config:(config 2) ~io
      an.an_instrumented log
  with
  | None -> check "damaged log: first diverging event found" false
  | Some d ->
      check "damaged log: first diverging event found" true;
      Fmt.pr "  diagnostic: %a@." Trace.pp_divergence d

let () =
  let an = analyze "racy.mc" racy_src in
  let r = check_pin "racy counter" an ~io:(Interp.Iomodel.random ~seed:7) in
  let an2 = analyze "inputs.mc" input_driven_src in
  ignore
    (check_pin "input-driven" an2
       ~io:
         (Interp.Iomodel.stream ~seed:3 ~chunks:2 ~chunk_size:4 ~input_range:6));
  check_corrupt r;
  check_diagnostic ();
  if !failures = 0 then Fmt.pr "trace-check: all checks passed@."
  else begin
    Fmt.pr "trace-check: %d check(s) FAILED@." !failures;
    exit 1
  end
