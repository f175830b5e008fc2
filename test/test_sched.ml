(** Scheduler: per-strategy record==replay pins on contended generated
    programs and on every benchmark — the default strategy shares the
    golden-counter pin with the rest of the suite; pct and storm
    exercise the denser weak-timeout sweep and the forced releases it
    fires. *)

open Interp

let io = Iomodel.random ~seed:33

let analyze src =
  Chimera.Pipeline.analyze ~profile_runs:3
    ~profile_io:(fun i -> Iomodel.random ~seed:(500 + i))
    (Minic.Parser.parse ~file:"sched.mc" src)

(* Each strategy runs the sweep at its own window (storm: 32-tick
   windows over the shortened timeout); divergence under any of them
   means replay moved a preemption. *)
let prop_strategy strategy =
  QCheck.Test.make
    ~name:
      (Fmt.str "sched: record==replay under %s on contended programs"
         (Engine.strategy_name strategy))
    ~count:6 Proggen.arbitrary_contended (fun src ->
      let an = analyze src in
      List.for_all
        (fun seed ->
          let config =
            { Engine.default_config with seed; cores = 4; strategy }
          in
          match
            Chimera.Runner.record_replay_check ~config ~io an.an_instrumented
          with
          | Ok _ -> true
          | Error d ->
              Out_channel.with_open_bin "/tmp/sched_fail.mc" (fun oc ->
                  output_string oc src);
              QCheck.Test.fail_reportf "seed %d diverged: %a" seed
                Chimera.Runner.pp_divergence d)
        [ 4; 17 ])

(* The one known replay stall: radix under storm (4 workers, 4 cores,
   eval scale) records to completion, but its monolithic replay stalls
   with ~22 threads stuck, for every record seed and replay seed tried
   (ROADMAP, defects). The pin asserts the stall, so a fix must flip
   it. *)
let known_stalls = [ ("radix", Engine.Sstorm) ]

(* Every benchmark under every strategy: each recording completes and
   its replay at a distant seed reproduces it *)
let test_benches_replay () =
  List.iter
    (fun (b : Bench_progs.Registry.bench) ->
      let an =
        Chimera.Pipeline.analyze ~profile_runs:6
          ~profile_io:(fun i -> b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
          (Minic.Parser.parse ~file:b.b_name
             (b.b_source ~workers:4 ~scale:b.b_eval_scale))
      in
      let io = b.b_io ~seed:42 ~scale:b.b_eval_scale in
      List.iter
        (fun strategy ->
          let what = b.b_name ^ "/" ^ Engine.strategy_name strategy in
          let config =
            { Engine.default_config with seed = 1; cores = 4; strategy }
          in
          let r = Chimera.Runner.record ~config ~io an.an_instrumented in
          let rp =
            Chimera.Runner.replay
              ~config:{ config with seed = config.seed + 7919 }
              ~io an.an_instrumented r.rc_log
          in
          if List.mem (b.b_name, strategy) known_stalls then begin
            Alcotest.(check bool) (what ^ ": recording completes") false
              r.rc_outcome.o_timed_out;
            Alcotest.(check bool) (what ^ ": known replay stall still stalls")
              true rp.o_timed_out
          end
          else
            match Chimera.Runner.same_execution r.rc_outcome rp with
            | Ok () -> ()
            | Error d ->
                Alcotest.failf "%s: %a" what Chimera.Runner.pp_divergence d)
        Engine.all_strategies)
    Bench_progs.Registry.all

let rand () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> Random.State.make [| int_of_string s |]
  | None -> Random.State.make [| 0x5C4ED |]

let suite =
  List.map
    (fun s -> QCheck_alcotest.to_alcotest ~rand:(rand ()) (prop_strategy s))
    Engine.all_strategies
  @ [
      Alcotest.test_case "benches: record==replay under every strategy"
        `Slow test_benches_replay;
    ]
