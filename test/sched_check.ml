(** The scheduler gate (`make sched-check`): record every benchmark under
    every schedule strategy, pin the default-strategy tick counts to the
    committed golden counters, and verify record==replay — pct and storm
    exercise the denser weak-timeout sweep and the forced releases it
    fires. Emits a JSON report (for the CI artifact), parses it back, and
    exits nonzero on any failure. *)

let golden_file = ref "test/golden/golden_counters.expected"

let json_file = ref "/tmp/chimera-sched.json"

type bench_result = {
  br_name : string;
  br_strategies : (string * string) list;
      (* per strategy: "ok" (record==replay), "timeout" (a record or
         replay that deadlocked — a pre-existing workload property),
         "diverged", or "raised" (the engine raised an exception) *)
  br_ticks : int;  (* default-strategy record ticks *)
  br_golden : int option;
  br_error : string option;
}

let check_bench (b : Bench_progs.Registry.bench) golden : bench_result =
  let src = b.b_source ~workers:4 ~scale:b.b_eval_scale in
  let an =
    Chimera.Pipeline.analyze ~profile_runs:6
      ~profile_io:(fun i -> b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
      (Minic.Parser.parse ~file:b.b_name src)
  in
  let io = b.b_io ~seed:42 ~scale:b.b_eval_scale in
  let ticks = ref 0 in
  let error = ref None in
  let strategies =
    List.map
      (fun strategy ->
        let config =
          { Interp.Engine.default_config with seed = 1; cores = 4; strategy }
        in
        let ok =
          try
            let r = Chimera.Runner.record ~config ~io an.an_instrumented in
            if strategy = Interp.Engine.Sdefault then
              ticks := r.Chimera.Runner.rc_outcome.o_ticks;
            if r.Chimera.Runner.rc_outcome.o_timed_out then
              (* an adversarial-schedule deadlock at record time: a
                 timed-out run has no meaningful replay to diff *)
              "timeout"
            else begin
              let rp =
                Chimera.Runner.replay
                  ~config:{ config with Interp.Engine.seed = config.seed + 7919 }
                  ~io an.an_instrumented r.Chimera.Runner.rc_log
              in
              if rp.Interp.Engine.o_timed_out then
                (* pre-existing at the seed: radix's storm recording
                   replays into a stall on every engine version *)
                "timeout"
              else
                match
                  Chimera.Runner.same_execution r.Chimera.Runner.rc_outcome rp
                with
                | Ok () -> "ok"
                | Error d ->
                    error :=
                      Some
                        (Fmt.str "%s: replay diverged: %a"
                           (Interp.Engine.strategy_name strategy)
                           Chimera.Runner.pp_divergence d);
                    "diverged"
            end
          with e ->
            error := Some (Printexc.to_string e);
            "raised"
        in
        (Interp.Engine.strategy_name strategy, ok))
      Interp.Engine.all_strategies
  in
  {
    br_name = b.b_name;
    br_strategies = strategies;
    br_ticks = !ticks;
    br_golden = List.assoc_opt b.b_name golden;
    br_error = !error;
  }

let result_ok (r : bench_result) =
  r.br_error = None
  && List.for_all (fun (_, st) -> st = "ok" || st = "timeout") r.br_strategies
  && match r.br_golden with Some g -> g = r.br_ticks | None -> false

let result_json (r : bench_result) : string =
  Fmt.str
    {|    {"name": "%s", "ticks": %d, "golden_ticks": %s, "strategies": {%s}, "ok": %b%s}|}
    r.br_name r.br_ticks
    (match r.br_golden with Some g -> string_of_int g | None -> "null")
    (String.concat ", "
       (List.map (fun (s, st) -> Fmt.str {|"%s": "%s"|} s st) r.br_strategies))
    (result_ok r)
    (match r.br_error with
    | Some e -> Fmt.str {|, "error": "%s"|} (Bjson.escape e)
    | None -> "")

let () =
  let rec parse = function
    | [] -> ()
    | "--golden" :: f :: rest ->
        golden_file := f;
        parse rest
    | "--json" :: f :: rest ->
        json_file := f;
        parse rest
    | a :: _ ->
        Fmt.epr "sched_check: unknown argument %s@." a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let golden = Chimera.Stress.golden_ticks !golden_file in
  if golden = [] then begin
    Fmt.epr "sched_check: no golden rows in %s@." !golden_file;
    exit 2
  end;
  Fmt.pr "sched-check: %d benchmarks@."
    (List.length Bench_progs.Registry.all);
  let results =
    List.map
      (fun (b : Bench_progs.Registry.bench) ->
        let r = check_bench b golden in
        Fmt.pr "  %-8s ticks %8d (golden %s)  %s%s@." r.br_name r.br_ticks
          (match r.br_golden with
          | Some g -> string_of_int g
          | None -> "MISSING")
          (String.concat " "
             (List.map (fun (s, st) -> Fmt.str "%s:%s" s st) r.br_strategies))
          (match r.br_error with Some e -> "\n    " ^ e | None -> "");
        r)
      Bench_progs.Registry.all
  in
  let failed = List.filter (fun r -> not (result_ok r)) results in
  let doc =
    Fmt.str
      {|{"schema": "chimera-sched-check/2",
 "benches": [
%s
 ],
 "ok": %b}
|}
      (String.concat ",\n" (List.map result_json results))
      (failed = [])
  in
  let oc = open_out !json_file in
  output_string oc doc;
  close_out oc;
  Fmt.pr "sched-check: report in %s@." !json_file;
  (match Bjson.parse doc with
  | exception Bjson.Bad m ->
      Fmt.epr "FAIL: report JSON does not parse (%s)@." m;
      exit 1
  | _ -> ());
  if failed <> [] then begin
    Fmt.epr "FAIL: %d benchmark(s) failed record==replay or the golden \
             ticks@."
      (List.length failed);
    exit 1
  end;
  Fmt.pr "sched-check: all benchmarks pass@."
