(** Scheduler: per-strategy record==replay pins on contended generated
    programs — the default strategy shares the golden-counter pin with
    the rest of the suite; pct and storm exercise the denser weak-timeout
    sweep and the forced releases it fires. *)

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

let rand () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> Random.State.make [| int_of_string s |]
  | None -> Random.State.make [| 0x5C4ED |]

let suite =
  List.map
    (fun s -> QCheck_alcotest.to_alcotest ~rand:(rand ()) (prop_strategy s))
    Engine.all_strategies
