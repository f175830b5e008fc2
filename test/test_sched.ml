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

(* Byte-identity pins of every benchmark cell below, taken before the
   tick loop skipped idle spans: recorded ticks, final memory hash, MD5
   of the encoded input log followed by the order log, and the ticks of
   the replay at seed + 7919. The skip must leave every figure unmoved.
   The server cells (knot, apache) idle most; a skip that counts a
   thread heading two queues down once per tick stalls aget's replay
   and moves the 16-worker ocean/pct cell. radix/storm's replay works
   off chains of forced releases and reacquisitions while every thread
   stays parked; before such rounds counted as progress, its replay was
   cut off as stalled at 65,651 ticks. The log MD5s were recaptured when
   the order log lost its per-core schedule section: each new order log
   is a prefix of the old one, the rest of which decoded to exactly the
   old schedule, and the input logs and every other figure stayed. The
   final memory hashes were recaptured when the state hash became a
   digest of every block (it had read only the first few); every other
   figure stayed. *)
type pin = {
  p_ticks : int;
  p_hash : int;
  p_log_md5 : string;
  p_replay_ticks : int;
}

let pins =
  [
    ("aget/default", { p_ticks = 121601; p_hash = 4063999904062842297;
      p_log_md5 = "7906740915497a0c3d17a772bf193edf"; p_replay_ticks = 23235 });
    ("aget/pct", { p_ticks = 121601; p_hash = 4063999904062842297;
      p_log_md5 = "7906740915497a0c3d17a772bf193edf"; p_replay_ticks = 23266 });
    ("aget/storm", { p_ticks = 121585; p_hash = 4063999904062842297;
      p_log_md5 = "7ff9bc2ad31c00dc2ca505b9874bb198"; p_replay_ticks = 22796 });
    ("apache/default", { p_ticks = 852819; p_hash = 4069095990290197271;
      p_log_md5 = "2f368ed304e67c594daba1c2c42a2003"; p_replay_ticks = 172091 });
    ("apache/pct", { p_ticks = 852819; p_hash = 4069095990290197271;
      p_log_md5 = "2f368ed304e67c594daba1c2c42a2003"; p_replay_ticks = 172091 });
    ("apache/storm", { p_ticks = 852823; p_hash = 1509513938758353673;
      p_log_md5 = "bcdccfa7de1e79f1528eb4eaa1d05ba6"; p_replay_ticks = 172091 });
    ("fft/default", { p_ticks = 26541; p_hash = 3050672264847871382;
      p_log_md5 = "f7076796473b4b8fdc3f82efaef25b40"; p_replay_ticks = 26353 });
    ("fft/pct", { p_ticks = 26542; p_hash = 3050672264847871382;
      p_log_md5 = "1856c1525eadd20bf698360b2ee62324"; p_replay_ticks = 26349 });
    ("fft/storm", { p_ticks = 26536; p_hash = 3050672264847871382;
      p_log_md5 = "735ddcae6846710c8058fbb7b3db294f"; p_replay_ticks = 26347 });
    ("knot/default", { p_ticks = 487491; p_hash = 1285973065297334157;
      p_log_md5 = "36b0ada97780df63720e3dc6e131585e"; p_replay_ticks = 21003 });
    ("knot/pct", { p_ticks = 487491; p_hash = 1285973065297334157;
      p_log_md5 = "48807c45593c12fbf048bc9b1504c6a9"; p_replay_ticks = 21003 });
    ("knot/storm", { p_ticks = 487490; p_hash = 1285973065297334157;
      p_log_md5 = "48807c45593c12fbf048bc9b1504c6a9"; p_replay_ticks = 21002 });
    ("ocean/default", { p_ticks = 48183; p_hash = 3053450686316862037;
      p_log_md5 = "afe72f5e1a5db3b39cebd22bec6d9213"; p_replay_ticks = 44310 });
    ("ocean/pct", { p_ticks = 47230; p_hash = 3053450686316862037;
      p_log_md5 = "b0c2f7965edf73107f9f3a8beff22f42"; p_replay_ticks = 44167 });
    ("ocean/pct/16w", { p_ticks = 76632; p_hash = 2614044569598599478;
      p_log_md5 = "72df91ffb3515c7a44223cb473f70834"; p_replay_ticks = 71150 });
    ("ocean/storm", { p_ticks = 48067; p_hash = 3053450686316862037;
      p_log_md5 = "0a9eb99bc7c612b4050a1b310851f790"; p_replay_ticks = 44263 });
    ("pbzip2/default", { p_ticks = 59139; p_hash = 3766721081863990483;
      p_log_md5 = "024e07c5daf4c7419761d1fc2b891fc5"; p_replay_ticks = 55196 });
    ("pbzip2/pct", { p_ticks = 58092; p_hash = 3766721081863990483;
      p_log_md5 = "220b1e4c18a659bf4a8ab93a3d2308d6"; p_replay_ticks = 57355 });
    ("pbzip2/storm", { p_ticks = 58644; p_hash = 3766721081863990483;
      p_log_md5 = "3fcbe159e035764bf842bf16fca84881"; p_replay_ticks = 54985 });
    ("pfscan/default", { p_ticks = 38613; p_hash = 2010624546518839598;
      p_log_md5 = "4ea0babeb8cd3035b7cf494e1eb56e0b"; p_replay_ticks = 32148 });
    ("pfscan/pct", { p_ticks = 38613; p_hash = 2010624546518839598;
      p_log_md5 = "4ea0babeb8cd3035b7cf494e1eb56e0b"; p_replay_ticks = 32148 });
    ("pfscan/storm", { p_ticks = 38696; p_hash = 2010624546518839598;
      p_log_md5 = "4ea0babeb8cd3035b7cf494e1eb56e0b"; p_replay_ticks = 32149 });
    ("radix/default", { p_ticks = 115327; p_hash = 2900052861090460097;
      p_log_md5 = "7e5b606525c56f705324be6f9d05a88a"; p_replay_ticks = 109659 });
    ("radix/pct", { p_ticks = 115326; p_hash = 2900052861090460097;
      p_log_md5 = "49271061bfe54020896ef694bfbd04ab"; p_replay_ticks = 109673 });
    ("radix/storm", { p_ticks = 4354427; p_hash = 2900052861090460097;
      p_log_md5 = "71588ef059a58fefb6246174384ac675"; p_replay_ticks = 117416 });
    ("water/default", { p_ticks = 63359; p_hash = 3442570153321486785;
      p_log_md5 = "5bc82cd84fcfb6c0b41857246821fadb"; p_replay_ticks = 54059 });
    ("water/pct", { p_ticks = 61904; p_hash = 2160922076854363573;
      p_log_md5 = "51e02a13927d4344087e2c883c3ba99b"; p_replay_ticks = 54026 });
    ("water/storm", { p_ticks = 58084; p_hash = 3083574791304155777;
      p_log_md5 = "2246d4c2b6224953c94d4909abc69f92"; p_replay_ticks = 54392 })
  ]

(* Scheduler-work pins of the cells where one thread most often runs
   alone, taken before steps were taken in place: scheduler iterations,
   core ticks and skipped ticks of the recording and of its replay at
   seed + 7919, and the ticks of a native run of the original program
   at the cell's config. A step taken in place stands for exactly one
   iteration and one core tick, so every figure must stay. *)
type sched_pin = {
  s_record : int * int * int;  (** iterations, core ticks, skipped *)
  s_replay : int * int * int;
  s_native_ticks : int;
}

let sched_pins =
  [
    ("knot/default", { s_record = (6949, 7369, 23837);
      s_replay = (7195, 8019, 13808); s_native_ticks = 485650 });
    ("knot/pct", { s_record = (6948, 7374, 23838);
      s_replay = (7192, 8012, 13811); s_native_ticks = 485650 });
    ("knot/storm", { s_record = (10880, 11373, 19912);
      s_replay = (9846, 11451, 11156); s_native_ticks = 485651 });
    ("apache/default", { s_record = (43622, 46890, 177642);
      s_replay = (43307, 47702, 128784); s_native_ticks = 774630 });
    ("apache/pct", { s_record = (43622, 46890, 177642);
      s_replay = (43307, 47703, 128784); s_native_ticks = 774630 });
    ("apache/storm", { s_record = (76947, 89236, 144324);
      s_replay = (68154, 80737, 103937); s_native_ticks = 773972 });
    ("aget/default", { s_record = (14043, 27289, 20428);
      s_replay = (13279, 28971, 9956); s_native_ticks = 105849 });
    ("aget/pct", { s_record = (14043, 27289, 20428);
      s_replay = (13292, 29447, 9974); s_native_ticks = 105849 });
    ("aget/storm", { s_record = (19883, 41754, 14571);
      s_replay = (16899, 41391, 5897); s_native_ticks = 105849 });
  ]

(* Steps passed ahead and paid by the scheduler without resuming the
   fiber (DESIGN.md §25), and steps taken in place, recording and replay
   at seed + 7919. The in-place counts are the ones the engine took
   before threads ran ahead: a thread alone on the cores never enters
   run-ahead, and the scheduler pays a lone thread's owed steps in
   place, as its fiber would have taken them. Every other figure of
   these cells is pinned above and did not move. *)
let ahead_pins =
  [
    ("ocean/default", ((58256, 17186), (60135, 14655)));
    ("ocean/pct", ((58797, 16468), (60248, 14513)));
    ("ocean/storm", ((58161, 14488), (59929, 12486)));
    ("water/default", ((110389, 11393), (115723, 4847)));
    ("water/pct", ((112829, 8391), (115727, 4838)));
    ("water/storm", ((115627, 4169), (115725, 4063)));
    ("apache/default", ((254, 34046), (348, 33537)));
    ("apache/pct", ((254, 34046), (348, 33537)));
    ("apache/storm", ((266, 28427), (352, 28011)));
    ("pfscan/default", ((113553, 66), (113544, 79)));
    ("pfscan/pct", ((113553, 66), (113544, 79)));
    ("pfscan/storm", ((113548, 70), (113544, 74)));
    ("pbzip2/default", ((52175, 29176), (53075, 28096)));
    ("pbzip2/pct", ((52871, 28323), (53212, 27928)));
    ("pbzip2/storm", ((53144, 23341), (53279, 23220)));
  ]

let check_ahead_pin what (r : Chimera.Runner.recorded) (rp : Engine.outcome) =
  match List.assoc_opt what ahead_pins with
  | None -> ()
  | Some pin ->
      let counts (o : Engine.outcome) =
        (o.o_stats.n_steps_ahead, o.o_stats.n_steps_inline)
      in
      Alcotest.(check (pair (pair int int) (pair int int)))
        (what ^ ": steps ahead and in place, record and replay")
        pin
        (counts r.rc_outcome, counts rp)

let sched_work (o : Engine.outcome) =
  (o.o_stats.n_sched_iters, o.o_stats.n_core_ticks, o.o_stats.n_ticks_skipped)

let check_sched_pin what ~native (r : Chimera.Runner.recorded)
    (rp : Engine.outcome) =
  match List.assoc_opt what sched_pins with
  | None -> ()
  | Some p ->
      let triple = Alcotest.(triple int int int) in
      Alcotest.check triple
        (what ^ ": record iterations, core ticks, skipped")
        p.s_record (sched_work r.rc_outcome);
      Alcotest.check triple
        (what ^ ": replay iterations, core ticks, skipped")
        p.s_replay (sched_work rp);
      Alcotest.(check int) (what ^ ": native ticks") p.s_native_ticks
        (native ()).Engine.o_ticks

(* One core under pct, taken before steps were taken in place: recorded
   and native ticks. With one core every queued thread shares the only
   queue, and pct may put a thread woken behind the runner ahead of it
   at the next tick, so a step is taken in place only while no queue
   holds two entries. *)
let one_core_pins = [ ("aget", (142725, 107749)); ("fft", (42736, 25780)) ]

let check_one_core_pin (b : Bench_progs.Registry.bench)
    (an : Chimera.Pipeline.analysis) io =
  match List.assoc_opt b.b_name one_core_pins with
  | None -> ()
  | Some pin ->
      let config =
        { Engine.default_config with seed = 1; cores = 1; strategy = Engine.Spct }
      in
      let r = Chimera.Runner.record ~config ~io an.an_instrumented in
      let n = Chimera.Runner.native ~config ~io an.an_prog in
      Alcotest.(check (pair int int))
        (b.b_name ^ "/pct on one core: recorded and native ticks")
        pin (r.rc_outcome.o_ticks, n.o_ticks)

let log_md5 (log : Replay.Log.t) =
  Digest.to_hex
    (Digest.string
       (Replay.Log.encode_input_log log ^ Replay.Log.encode_order_log log))

(* Every tick is accounted for once: run by a scheduler iteration,
   advanced in an idle span, or jumped over while all threads blocked *)
let check_tick_accounting what (o : Engine.outcome) =
  let st = o.o_stats in
  Alcotest.(check int)
    (what ^ ": iterations + skipped + jumped = ticks")
    o.o_ticks
    (st.n_sched_iters + st.n_ticks_skipped + st.n_ticks_jumped)

(* a server thread mostly works off a syscall or weak-lock charge with
   the other cores empty: the idle-span skip must carry more of those
   ticks than the loop runs *)
let check_server_skips what (o : Engine.outcome) =
  let st = o.o_stats in
  if st.n_ticks_skipped <= st.n_sched_iters then
    Alcotest.failf "%s: %d ticks skipped for %d scheduler iterations" what
      st.n_ticks_skipped st.n_sched_iters

(* the server replays park most at their gates: a parked gate is
   re-evaluated only after the replay log moved, so its checks per gated
   event consumed stay low (knot ~1.6, apache ~3.2; re-evaluating every
   waiter at every maintenance tick took 2.8 and 23.7) *)
let check_turn_checks what bound (log : Replay.Log.t) (o : Engine.outcome) =
  let per =
    float_of_int o.o_stats.n_turn_checks
    /. float_of_int (max 1 (Replay.Replayer.gated_events log))
  in
  if per > bound then
    Alcotest.failf "%s: %.2f replay-gate checks per gated event, bound %.1f"
      what per bound

(* the servers leave most cores empty: an empty core's tick is skipped
   while no queue holds two entries, so a scheduler iteration runs about
   one core tick (1.04-1.18 on these cells; ticking every core read 4.00) *)
let check_core_ticks what (o : Engine.outcome) =
  let per =
    float_of_int o.o_stats.n_core_ticks
    /. float_of_int (max 1 o.o_stats.n_sched_iters)
  in
  if per > 1.5 then
    Alcotest.failf "%s: %.2f core ticks per scheduler iteration, bound 1.5"
      what per

let check_pin what (r : Chimera.Runner.recorded) (rp : Engine.outcome) =
  check_tick_accounting (what ^ " record") r.rc_outcome;
  check_tick_accounting (what ^ " replay") rp;
  if String.starts_with ~prefix:"knot/" what
     || String.starts_with ~prefix:"apache/" what
  then begin
    check_server_skips (what ^ " record") r.rc_outcome;
    check_server_skips (what ^ " replay") rp;
    check_turn_checks (what ^ " replay")
      (if String.starts_with ~prefix:"knot/" what then 2.4 else 6.0)
      r.rc_log rp;
    check_core_ticks (what ^ " record") r.rc_outcome;
    check_core_ticks (what ^ " replay") rp
  end;
  let got =
    {
      p_ticks = r.rc_outcome.o_ticks;
      p_hash = r.rc_outcome.o_final_hash;
      p_log_md5 = log_md5 r.rc_log;
      p_replay_ticks = rp.o_ticks;
    }
  in
  let p = List.assoc what pins in
  Alcotest.(check int) (what ^ ": recorded ticks") p.p_ticks got.p_ticks;
  Alcotest.(check int) (what ^ ": final memory hash") p.p_hash got.p_hash;
  Alcotest.(check string) (what ^ ": log MD5") p.p_log_md5 got.p_log_md5;
  Alcotest.(check int) (what ^ ": replayed ticks") p.p_replay_ticks
    got.p_replay_ticks

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
      check_one_core_pin b an io;
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
          check_pin what r rp;
          check_ahead_pin what r rp;
          check_sched_pin what r rp ~native:(fun () ->
              Chimera.Runner.native ~config ~io an.an_prog);
          match Chimera.Runner.same_execution r.rc_outcome rp with
          | Ok () -> ()
          | Error d ->
              Alcotest.failf "%s: %a" what Chimera.Runner.pp_divergence d)
        Engine.all_strategies)
    Bench_progs.Registry.all

(* the storm-contended shape: 16 workers on 4 cores, a short weak-lock
   timeout, so forced releases and stale queue entries occur *)
let test_contended_pin () =
  let b = Bench_progs.Registry.by_name "ocean" in
  let an = Test_e2e.analyze_bench b ~workers:16 ~scale:3 in
  let io = b.b_io ~seed:42 ~scale:3 in
  let config =
    {
      Engine.default_config with
      seed = 1;
      cores = 4;
      strategy = Engine.Spct;
      weak_timeout = 640;
    }
  in
  let r = Chimera.Runner.record ~config ~io an.an_instrumented in
  let rp =
    Chimera.Runner.replay
      ~config:{ config with seed = config.seed + 7919 }
      ~io an.an_instrumented r.rc_log
  in
  check_pin "ocean/pct/16w" r rp;
  match Chimera.Runner.same_execution r.rc_outcome rp with
  | Ok () -> ()
  | Error d -> Alcotest.failf "ocean/pct/16w: %a" Chimera.Runner.pp_divergence d

(* A run cut at [max_ticks] ends at that tick exactly, also when a lone
   thread takes its steps in place *)
let test_max_ticks_exact () =
  let prog =
    Minic.Parser.parse ~file:"long.mc"
      "int main() { int i; int s; s = 0;\n\
      \  for (i = 0; i < 100000; i++) { s = s + i; }\n\
      \  output(s); return 0; }"
  in
  let config = { Engine.default_config with seed = 1; max_ticks = 5_000 } in
  let o = Engine.run ~config ~mode:Engine.Native ~io prog in
  Alcotest.(check bool) "timed out" true o.o_timed_out;
  Alcotest.(check int) "stopped at max_ticks" 5_000 o.o_ticks;
  if o.o_stats.n_steps_inline = 0 then
    Alcotest.fail "the lone thread took no step in place"

(* An idle span of k ticks advances the rng by k draws in one jump. It
   must equal k [rng_next] calls from any state a seed gives, bit 62
   included ([seed * 2 + 1] of a large seed), on both sides of the
   stepping threshold. *)
let rng_seeds = [ 0; 1; max_int / 2; max_int ]

let engine_at seed =
  Engine.make_engine
    ~config:{ Engine.default_config with seed }
    ~mode:Engine.Native ~io
    (Minic.Parser.parse ~file:"rng.mc" "int main() { return 0; }")

let jump_matches seed k =
  let eng = engine_at seed in
  let jumped = Engine.rng_jump eng.rng k in
  for _ = 1 to k do
    ignore (Engine.rng_next eng)
  done;
  jumped = eng.rng

let prop_rng_jump =
  QCheck.Test.make ~name:"sched: rng jump == k rng_next calls" ~count:200
    QCheck.(pair (oneof [ oneofl rng_seeds; int ]) (int_range 0 20_000))
    (fun (seed, k) -> jump_matches seed k)

let test_rng_jump_small () =
  List.iter
    (fun seed ->
      for k = 0 to 200 do
        if not (jump_matches seed k) then
          Alcotest.failf "seed %d: jump by %d differs from %d steps" seed k k
      done)
    rng_seeds

(* [rng_next] needs no guard against a 0 state, which would stay 0 and
   stall the linear jump: the masked step sends exactly one nonzero state
   to 0, and no run reaches it. It has bit 62 set, which the mask clears
   from every stepped state, and it is even, where every initial state
   [seed * 2 + 1] is odd (DESIGN.md §22). *)
let test_rng_dead_guard () =
  let z = 0x7cf1e3870c182040 in
  Alcotest.(check int) "the masked step sends it to 0" 0 (Engine.rng_step z);
  Alcotest.(check bool) "it has bit 62 set" true (z land (1 lsl 62) <> 0);
  Alcotest.(check bool) "it is even" true (z land 1 = 0)

(* Running ahead changes when private frame cells are written in host
   time, nothing else: a run with a no-op [on_sync] hook, which keeps
   every thread from running ahead, has the same ticks, steps, outputs,
   faults, final memory and log bytes, recorded and replayed *)
let prop_run_ahead strategy =
  QCheck.Test.make
    ~name:
      (Fmt.str "sched: running ahead changes no figure under %s"
         (Engine.strategy_name strategy))
    ~count:4 Proggen.arbitrary_contended (fun src ->
      let an = analyze src in
      let off () =
        let h = Engine.no_hooks () in
        h.on_sync <- Some (fun _ _ -> ());
        h
      in
      let figures (o : Engine.outcome) =
        ( (o.o_ticks, o.o_steps, o.o_outputs),
          (o.o_faults, o.o_final_hash, o.o_timed_out) )
      in
      List.for_all
        (fun seed ->
          let config =
            { Engine.default_config with seed; cores = 4; strategy }
          in
          let prog = an.an_instrumented in
          let r = Chimera.Runner.record ~config ~io prog in
          let r' = Chimera.Runner.record ~hooks:(off ()) ~config ~io prog in
          let rcfg = { config with seed = seed + 7919 } in
          let rp = Chimera.Runner.replay ~config:rcfg ~io prog r.rc_log in
          let rp' =
            Chimera.Runner.replay ~hooks:(off ()) ~config:rcfg ~io prog
              r'.rc_log
          in
          figures r.rc_outcome = figures r'.rc_outcome
          && r.rc_input = r'.rc_input && r.rc_order = r'.rc_order
          && figures rp = figures rp'
          || QCheck.Test.fail_reportf "seed %d: a figure moved" seed)
        [ 4; 17 ])

(* Directed programs where threads run ahead while other cores are busy.
   Each expected line was printed by the engine before threads ran
   ahead; the statement and memory-op counts show that what a thread
   ran past and the run never reached is not counted. *)
let run_figures (o : Engine.outcome) =
  Fmt.str
    "ticks=%d exit=%s to=%b outputs=[%s] steps=[%s] faults=[%s] hash=%d \
     stmts=%d mem=%d forced=%d"
    o.o_ticks
    (match o.o_exit with Some c -> string_of_int c | None -> "-")
    o.o_timed_out
    (String.concat ";" (List.map (fun (_, v) -> string_of_int v) o.o_outputs))
    (String.concat ";"
       (List.map
          (fun (p, n) -> Fmt.str "%a=%d" Runtime.Key.pp_tid_path p n)
          o.o_steps))
    (String.concat ";"
       (List.map
          (fun (p, m) -> Fmt.str "%a:%s" Runtime.Key.pp_tid_path p m)
          o.o_faults))
    o.o_final_hash o.o_stats.n_stmts o.o_stats.n_mem_ops o.o_stats.n_forced

let spin_src =
  "int spin(int n) { int i; int s; s = 0;\n\
  \  for (i = 0; i < n; i++) { s = s + i; } return s; }\n\
   void worker(int n) { int r; r = spin(n); output(r); }\n"

let addr_src =
  "int addr(int n) { int i; int s; int *p; p = &s; s = 0;\n\
  \  for (i = 0; i < n; i++) { *p = *p + i; s = s + 1; } return s; }\n\
   void aw(int n) { int r; r = addr(n); output(r); }\n"

let directed name ?(config = { Engine.default_config with seed = 1; cores = 4 })
    ?hooks ~ahead src expected =
  let p = Minic.Parser.parse ~file:"ahead.mc" (spin_src ^ src) in
  let o =
    Engine.run ~config ?hooks ~mode:Engine.Native
      ~io:(Iomodel.random ~seed:1) p
  in
  Alcotest.(check string) (name ^ ": figures") expected (run_figures o);
  (match ahead with
  | `Some when o.o_stats.n_steps_ahead = 0 ->
      Alcotest.failf "%s: no thread ran ahead" name
  | `None when o.o_stats.n_steps_ahead <> 0 ->
      Alcotest.failf "%s: %d steps ahead" name o.o_stats.n_steps_ahead
  | _ -> ());
  o

(* a division by zero in a private frame faults the thread at the tick
   the per-tick path reaches it *)
let test_ahead_fault () =
  ignore
    (directed "fault" ~ahead:`Some
       "int boom(int n) { int i; int s; int z; s = 0; z = 0;\n\
       \  for (i = 0; i < n; i++) { s = s + i; } s = s / z; return s; }\n\
        void bad(int n) { int r; r = boom(n); output(r); }\n\
        int main() { int a; int b; int c; a = spawn(worker, 400);\n\
       \  b = spawn(bad, 150); c = spawn(worker, 300);\n\
       \  join(a); join(b); join(c); output(7); return 0; }"
       "ticks=2233 exit=- to=false outputs=[44850;79800;7] \
        steps=[T0=8;T0.0=2008;T0.1=759;T0.2=1508] faults=[T0.1:division by \
        zero] hash=338333539836370388 stmts=1726 mem=5980 forced=0")

(* [exit] in one thread while two workers are ahead; with the profiler's
   statement and loop hooks, whose events a thread that is ahead defers,
   the profile equals the one of a run where no thread runs ahead *)
let test_ahead_exit () =
  let src =
    "int main() { int a; int b; int i; int s; a = spawn(worker, 100000);\n\
    \  b = spawn(worker, 100000); s = 0;\n\
    \  for (i = 0; i < 200; i++) { s = s + i; } output(s); exit(3); \
     return 0; }"
  in
  let expected =
    "ticks=1227 exit=3 to=false outputs=[19900] \
     steps=[T0=1009;T0.0=1147;T0.1=1067] faults=[] hash=338333539836370388 \
     stmts=1297 mem=4296 forced=0"
  in
  ignore (directed "exit" ~ahead:`Some src expected);
  let profile ~off =
    let t = Profiling.Profile.create () in
    let hooks = Profiling.Profile.attach t (Engine.no_hooks ()) in
    if off then hooks.on_sync <- Some (fun _ _ -> ());
    ignore
      (directed "exit, profiled" ~hooks
         ~ahead:(if off then `None else `Some)
         src expected);
    let tbl h =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) h [])
    in
    ( Profiling.Profile.Pairset.elements t.concurrent_pairs,
      tbl t.loop_iters,
      tbl t.loop_insns )
  in
  if profile ~off:false <> profile ~off:true then
    Alcotest.fail "exit: the profile moved"

(* two private loops cut at [max_ticks] *)
let test_ahead_max_ticks () =
  ignore
    (directed "max_ticks" ~ahead:`Some
       ~config:
         { Engine.default_config with seed = 1; cores = 4; max_ticks = 5_000 }
       "int main() { int a; int b; a = spawn(worker, 100000);\n\
       \  b = spawn(worker, 100000); join(a); join(b); return 0; }"
       "ticks=5000 exit=- to=true outputs=[] steps=[T0=3;T0.0=4919;T0.1=4839] \
        faults=[] hash=338333539836370388 stmts=3911 mem=13655 forced=0")

(* a function that takes a local's address has no private frame: two
   workers that read and write a local through its address never run
   ahead, and next to a private worker the figures stay *)
let test_ahead_address_taken () =
  ignore
    (directed "address taken" ~ahead:`None
       (addr_src
      ^ "int main() { int a; int b; a = spawn(aw, 300); b = spawn(aw, 250);\n\
        \  join(a); join(b); output(5); return 0; }")
       "ticks=2323 exit=- to=false outputs=[31375;45150;5] \
        steps=[T0=6;T0.0=2110;T0.1=1760] faults=[] hash=338333539836370388 \
        stmts=1670 mem=6072 forced=0");
  ignore
    (directed "address taken, beside a private worker" ~ahead:`Some
       (addr_src
      ^ "int main() { int a; int b; a = spawn(aw, 300); b = spawn(worker, \
         250);\n\
        \  join(a); join(b); output(5); return 0; }")
       "ticks=2323 exit=- to=false outputs=[31125;45150;5] \
        steps=[T0=6;T0.0=2110;T0.1=1258] faults=[] hash=338333539836370388 \
        stmts=1419 mem=5071 forced=0")

(* Threads that reach [output] after a private loop park before it, so
   their outputs land among a busy writer's at the per-tick path's
   ticks; appended when first reached, 25 would follow 44850 *)
let test_ahead_outputs () =
  ignore
    (directed "outputs" ~ahead:`Some
       "int g;\n\
        void quiet(int n) { int i; int s; s = 0;\n\
       \  for (i = 0; i < n; i++) { s = s + i; } output(s); }\n\
        void loud(int n) { int i;\n\
       \  for (i = 0; i < n; i++) { g = g + 1; output(g); } }\n\
        int main() { int a; int b; int c; a = spawn(loud, 40);\n\
       \  b = spawn(quiet, 300); c = spawn(quiet, 450);\n\
       \  join(a); join(b); join(c); output(0); return 0; }"
       "ticks=2770 exit=- to=false \
        outputs=[1;2;3;4;5;6;7;8;9;10;11;12;13;14;15;16;17;18;19;20;21;22;23;24;25;44850;26;27;28;29;30;31;32;33;34;35;36;37;38;101025;39;40;0] \
        steps=[T0=8;T0.0=243;T0.1=1506;T0.2=2256] faults=[] \
        hash=3572251871572440251 stmts=1638 mem=5549 forced=0")

(* Under storm, the weak-lock timeout strips the lock of an owner whose
   region runs a private loop, while a lock-free worker keeps a second
   core busy: the forced releases land at the owner's steps, which the
   scheduler pays while the owner is ahead *)
let test_ahead_forced_release () =
  let p =
    Minic.Parser.parse ~file:"strip.mc"
      (spin_src
     ^ "int g;\n\
        void locked(int n) { int i; int s; s = 0;\n\
       \  for (i = 0; i < n; i++) { s = s + i; } g = g + s; }\n\
        int main() { int a; int b; int c; a = spawn(locked, 3000);\n\
       \  b = spawn(locked, 3000); c = spawn(worker, 5000);\n\
       \  join(a); join(b); join(c); output(g); return 0; }")
  in
  let wlock = { Minic.Ast.wl_id = 0; wl_gran = Minic.Ast.Gbb } in
  Minic.Ast.Fresh.reset_from p;
  let p =
    {
      p with
      p_funs =
        List.map
          (fun (fd : Minic.Ast.fundec) ->
            if fd.f_name <> "locked" then fd
            else
              {
                fd with
                f_body =
                  Minic.Ast.Fresh.stmt
                    (WeakEnter [ { wa_lock = wlock; wa_ranges = [] } ])
                  :: fd.f_body
                  @ [ Minic.Ast.Fresh.stmt (WeakExit [ wlock ]) ];
              })
          p.p_funs;
    }
  in
  let config =
    {
      Engine.default_config with
      seed = 1;
      cores = 4;
      strategy = Engine.Sstorm;
      weak_timeout = 640;
    }
  in
  let io = Iomodel.random ~seed:1 in
  let r = Chimera.Runner.record ~config ~io p in
  let rp = Chimera.Runner.replay ~config:{ config with seed = 7920 } ~io p r.rc_log in
  Alcotest.(check string) "strip: recorded figures"
    "ticks=30569 exit=- to=false outputs=[12497500;8997000] \
     steps=[T0=8;T0.0=15009;T0.1=15009;T0.2=25008] faults=[] \
     hash=2032885567430864246 stmts=22022 mem=77029 forced=312"
    (run_figures r.rc_outcome);
  Alcotest.(check string) "strip: replayed figures"
    "ticks=30503 exit=- to=false outputs=[12497500;8997000] \
     steps=[T0=8;T0.0=15009;T0.1=15009;T0.2=25008] faults=[] \
     hash=2032885567430864246 stmts=22022 mem=77029 forced=312"
    (run_figures rp);
  Alcotest.(check string) "strip: log MD5" "4902dd1e02615833f980c1a7b17de0cd"
    (Digest.to_hex (Digest.string (r.rc_input ^ r.rc_order)));
  if r.rc_outcome.o_stats.n_steps_ahead = 0 then
    Alcotest.fail "strip: no thread ran ahead"

(* a worker that fills a local array with [file_read], by its decayed
   name and by the address of its first element, and scans it: its
   frame is private, it runs ahead through the scan, and every figure
   equals a run where no thread runs ahead *)
let test_ahead_file_read () =
  let src =
    addr_src
    ^ "void scan(int n) { int data[64]; int got; int k; int hits; int total;\n\
    \  hits = 0; total = 0;\n\
    \  while (total < n) {\n\
    \    if (total % 128 == 0) { got = file_read(data, 64); }\n\
    \    else { got = file_read(&data[0], 64); }\n\
    \    for (k = 0; k < got; k++) { if (data[k] % 4 == 1) { hits = hits + 1; } }\n\
    \    total = total + got; }\n\
    \  output(hits); }\n\
     int main() { int a; int b; int c; a = spawn(scan, 256);\n\
    \  b = spawn(scan, 192); c = spawn(aw, 500);\n\
    \  join(a); join(b); join(c); output(9); return 0; }"
  in
  let expected =
    "ticks=3871 exit=- to=false outputs=[43;62;125250;9] \
     steps=[T0=8;T0.0=1186;T0.1=884;T0.2=3510] faults=[] \
     hash=338333539836370388 stmts=2559 mem=8941 forced=0"
  in
  ignore (directed "file_read" ~ahead:`Some src expected);
  let off = Engine.no_hooks () in
  off.on_sync <- Some (fun _ _ -> ());
  ignore (directed "file_read, run-ahead off" ~hooks:off ~ahead:`None src expected)

(* an array local whose address goes to a user call, to [spawn] or into
   a pointer local makes its frame non-private: three such workers
   never run ahead *)
let test_ahead_array_escapes () =
  ignore
    (directed "array escapes" ~ahead:`None
       "int sum2(int *p) { return p[0] + p[1]; }\n\
        void bump(int *p) { *p = *p + 1; }\n\
        int viacall(int n) { int a[2]; int i; int r; a[0] = 0; a[1] = 0;\n\
       \  for (i = 0; i < n; i++) { a[i % 2] = a[i % 2] + i; }\n\
       \  r = sum2(a); return r; }\n\
        int viaspawn(int n) { int a[2]; int i; int t; a[0] = 0; a[1] = 0;\n\
       \  for (i = 0; i < n; i++) { a[i % 2] = a[i % 2] + i; }\n\
       \  t = spawn(bump, &a[1]); join(t); return a[0] + a[1]; }\n\
        int viaptr(int n) { int a[2]; int i; int *p; p = &a[0]; a[0] = 0;\n\
       \  a[1] = 0; for (i = 0; i < n; i++) { a[i % 2] = a[i % 2] + i; }\n\
       \  return p[0] + a[1]; }\n\
        void w1(int n) { int r; r = viacall(n); output(r); }\n\
        void w2(int n) { int r; r = viaspawn(n); output(r); }\n\
        void w3(int n) { int r; r = viaptr(n); output(r); }\n\
        int main() { int a; int b; int c; a = spawn(w1, 300);\n\
       \  b = spawn(w2, 250); c = spawn(w3, 200);\n\
       \  join(a); join(b); join(c); output(5); return 0; }"
       "ticks=1737 exit=- to=false outputs=[19900;31126;44850;5] \
        steps=[T0=8;T0.0=1512;T0.1=1262;T0.1.0=2;T0.2=1012] faults=[] \
        hash=338333539836370388 stmts=1535 mem=6798 forced=0")

(* A global read counts as frame-only only while no statement stores to
   it and no expression takes its address, even in a function never
   called: every step of [rd] reads [g], so with [g] written or
   address-taken nothing runs ahead. A local of the same name that is
   stored to does not count. The executed code is the same in every
   variant, and so are the figures. *)
let test_ahead_fixed_global () =
  let src extra =
    "int g = 7;\n" ^ extra
    ^ "\nint rd(int n) { int a[2]; a[g - 7] = g - 7; a[g - 6] = g - 7;\n\
      \  while (a[g - 6] < n) { a[g - 7] = a[g - 7] + g; a[g - 6] = a[g - 6] + 1; }\n\
      \  return a[g - 7]; }\n\
       void rw(int n) { int r; r = rd(n); output(r); }\n\
       int main() { int a; int b; a = spawn(rw, 300); b = spawn(rw, 200);\n\
      \  join(a); join(b); output(1); return 0; }"
  in
  let expected =
    "ticks=1722 exit=- to=false outputs=[1400;2100;1] \
     steps=[T0=6;T0.0=1508;T0.1=1008] faults=[] hash=4282579830733753737 \
     stmts=1018 mem=6032 forced=0"
  in
  List.iter
    (fun (what, ahead, extra) ->
      ignore (directed ("global " ^ what) ~ahead (src extra) expected))
    [
      ("never written", `Some, "");
      ("shadowed by a stored local", `Some,
        "void shadow() { int g; g = 3; output(g); }");
      ("stored once, never called", `None, "void never() { g = 7; }");
      ("address taken, never called", `None,
        "void never() { int *q; q = &g; output(*q); }");
    ]

(* an index past the frame of a local array faults the thread while it
   is ahead, with the per-tick path's text at its tick *)
let test_ahead_array_fault () =
  ignore
    (directed "array fault" ~ahead:`Some
       (addr_src
      ^ "int over(int n) { int a[4]; int i; int s; s = 0;\n\
       \  for (i = 0; i < n; i++) { a[i % 4] = i; s = s + a[i % 4]; }\n\
       \  a[n] = s; return s; }\n\
        void ow(int n) { int r; r = over(n); output(r); }\n\
        int main() { int a; int b; int c; a = spawn(aw, 400);\n\
       \  b = spawn(ow, 150); c = spawn(aw, 300);\n\
       \  join(a); join(b); join(c); output(7); return 0; }")
       "ticks=3036 exit=- to=false outputs=[45150;80200;7] \
        steps=[T0=8;T0.0=2810;T0.1=1058;T0.2=2110] faults=[T0.1:out-of-bounds \
        store at frame(T0.1,1)+151 (size 7)] hash=338333539836370388 \
        stmts=2577 mem=9382 forced=0")

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
      Alcotest.test_case "ocean/pct at 16 workers: pinned, replays" `Slow
        test_contended_pin;
      QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_rng_jump;
      Alcotest.test_case "rng jump == steps below and above the threshold"
        `Quick test_rng_jump_small;
      Alcotest.test_case "rng: the zero-state guard is dead" `Quick
        test_rng_dead_guard;
      Alcotest.test_case "a lone thread stops at max_ticks exactly" `Quick
        test_max_ticks_exact;
      Alcotest.test_case "ahead: a private-frame fault" `Quick test_ahead_fault;
      Alcotest.test_case "ahead: exit while others are ahead" `Quick
        test_ahead_exit;
      Alcotest.test_case "ahead: private loops cut at max_ticks" `Quick
        test_ahead_max_ticks;
      Alcotest.test_case "ahead: an address-taken local never runs ahead"
        `Quick test_ahead_address_taken;
      Alcotest.test_case "ahead: a storm timeout strips an owner ahead"
        `Quick test_ahead_forced_release;
      Alcotest.test_case "ahead: outputs keep their order" `Quick
        test_ahead_outputs;
      Alcotest.test_case "ahead: a local array filled by file_read" `Quick
        test_ahead_file_read;
      Alcotest.test_case "ahead: an escaping local array never runs ahead"
        `Quick test_ahead_array_escapes;
      Alcotest.test_case "ahead: only fixed globals are read ahead" `Quick
        test_ahead_fixed_global;
      Alcotest.test_case "ahead: a local-array index past the frame" `Quick
        test_ahead_array_fault;
    ]
  @ List.map
      (fun s -> QCheck_alcotest.to_alcotest ~rand:(rand ()) (prop_run_ahead s))
      Engine.all_strategies
