(** Corpus-driven refinement ({!Refine}): the evidence lattice drives
    per-pair provenance, the deployment format round-trips with typed
    rejection of drift, and the safety valve catches a hand-corrupted
    plan that drops a load-bearing lock.

    The directed programs pin each provenance point:

    - {!adv_src} — a guarded racy read whose race surfaces only under
      the storm strategy at specific seeds (verified against the engine's
      spawn-stall/quantum mechanics): a default-only corpus proves the
      pair never-racy and drops its lock; adding the storm cells
      witnesses the race and pins it. This is the paper's core
      soundness-vs-coverage tradeoff in miniature.
    - {!shared_src} — two pairs on one clique lock, one fully covered
      and never racy (disjoint array slots), one statically real but
      dynamically unreachable: the unexercised sibling blocks the drop
      ([kept] vs [kept:unexercised]), deterministically. *)

let parse src = Minic.Typecheck.parse_and_check ~file:"refine.mc" src

let analyze src = Chimera.Pipeline.analyze ~profile_runs:4 (parse src)

let io = Interp.Iomodel.random ~seed:42

(* Scheduler-sensitive race: the reader observes the unsynchronized
   flag [f] and only then reads [g] through [rg]; at cores=1 the
   default strategy never interleaves the guarded read with [wg], but
   storm quanta do at seeds 5 and 6. [main]'s post-join [rg] call keeps
   the g-pair's sids covered in every cell. Two [noise] threads spawned
   after the joins contend on a mutex no racy access needs: the recorded
   mutex order varies with the seed, so the default cells are distinct
   recordings without touching the reader/writer schedule. Cell choices
   verified by a seed sweep; see the w/r loop-length grid in DESIGN.md
   section 13. *)
let adv_src =
  {|int g = 0;
    int f = 0;
    int n = 0;
    int m;
    void noise(int *u) {
      int k;
      for (k = 0; k < 8; k++) { lock(&m); n = n + 1; unlock(&m); }
    }
    void wg(int v) { g = v; }
    int rg() { int t; t = g; return t; }
    void writer(int *u) {
      int k; int x;
      x = 0;
      for (k = 0; k < 25; k++) { x = x + k; }
      wg(1);
      f = 1;
    }
    void reader(int *u) {
      int k; int x; int ff; int t;
      x = 0;
      for (k = 0; k < 65; k++) { x = x + k; }
      ff = f;
      if (ff == 1) { t = rg(); output(t); }
    }
    int main() { int r; int w; int i;
      w = spawn(writer, &g); r = spawn(reader, &g);
      join(w); join(r);
      i = rg(); output(i);
      w = spawn(noise, &n); r = spawn(noise, &n);
      join(w); join(r);
      return 0; }|}

let adv_seeds = [ 1; 5; 6; 7 ]
let adv_default = List.map (fun s -> (s, Interp.Engine.Sdefault)) adv_seeds

let adv_storm =
  adv_default @ List.map (fun s -> (s, Interp.Engine.Sstorm)) adv_seeds

let observe_adv an jobs =
  Refine.corpus_observations ~cores:1 ~io
    ~instrumented:an.Chimera.Pipeline.an_instrumented
    ~racy_sids:an.an_report.racy_sids ~jobs ()

let prov_of (rf : Refine.t) ~obj =
  List.find_map
    (fun (pr : Refine.pair_result) ->
      let p = pr.pr_decision.pd_pair in
      if List.exists (fun o -> Pointer.Absloc.to_string o = obj) p.rp_objs
      then Some pr
      else None)
    rf.rf_pairs
  |> Option.get

let check_prov what expected (pr : Refine.pair_result) =
  Alcotest.(check string) what expected (Refine.prov_name pr.pr_prov)

(* 1. default-only corpus: the storm-only race is invisible, the g-pair
   is exercised-never-racy at full coverage, its lock drops; the f-pair
   is witnessed and pinned *)
let test_drop_never_racy () =
  let an = analyze adv_src in
  let rf = Refine.refine ~plan:an.an_plan (observe_adv an adv_default) in
  check_prov "g-pair dropped" "dropped:never-racy" (prov_of rf ~obj:"g");
  check_prov "f-pair witnessed" "kept:witnessed" (prov_of rf ~obj:"f");
  Alcotest.(check int) "one lock dropped" 1 (List.length rf.rf_dropped);
  Alcotest.(check bool) "static acquisitions shrink" true
    (rf.rf_refined_acqs < rf.rf_base_acqs);
  let g = prov_of rf ~obj:"g" in
  Alcotest.(check bool) "g-pair fully covered" true
    (g.pr_evidence.pe_both >= 2 && g.pr_evidence.pe_overlap >= 2)

(* 2. the safety side of the same corpus: once the storm cells are in,
   the race is witnessed and nothing drops — a pair racy only under an
   adversarial strategy survives exactly when the corpus exercises it *)
let test_witness_pins_lock () =
  let an = analyze adv_src in
  let rf = Refine.refine ~plan:an.an_plan (observe_adv an adv_storm) in
  check_prov "g-pair witnessed under storm" "kept:witnessed"
    (prov_of rf ~obj:"g");
  Alcotest.(check int) "nothing dropped" 0 (List.length rf.rf_dropped);
  Alcotest.(check int) "plan unchanged" rf.rf_base_acqs rf.rf_refined_acqs

(* 3. witness fast path: a witness disqualifies regardless of how low
   the coverage bar is set *)
let test_witness_beats_threshold () =
  let an = analyze adv_src in
  let rf =
    Refine.refine ~min_coverage:1 ~plan:an.an_plan (observe_adv an adv_storm)
  in
  check_prov "witness pins even at min_coverage 1" "kept:witnessed"
    (prov_of rf ~obj:"g")

(* 4. validation of the legitimately refined plan: with weak locks
   counted as synchronization the f-lock handoff orders the guarded
   read after [wg], so dropping the g-lock is genuinely safe — zero
   violations across both corpora *)
let test_validate_refined_clean () =
  let an = analyze adv_src in
  let rf = Refine.refine ~plan:an.an_plan (observe_adv an adv_default) in
  let refined = Instrument.Transform.apply an.an_prog rf.rf_plan in
  let va =
    Refine.validate ~cores:1 ~io ~report:an.an_report ~refined ~jobs:adv_storm
      ()
  in
  Alcotest.(check int) "all cells re-recorded" (List.length adv_storm)
    va.va_jobs;
  Alcotest.(check int) "no violations" 0 (List.length va.va_violations)

(* 5. safety valve: hand-corrupt the deployment to also drop the
   load-bearing f-lock; validation must flag the now-dynamic races as
   Reintroduced (they are statically covered, so never Uncovered) *)
let test_validate_rejects_corrupt_plan () =
  let an = analyze adv_src in
  let rf = Refine.refine ~plan:an.an_plan (observe_adv an adv_default) in
  let dp = Refine.deployment_of ~program:"adv" ~base:an.an_plan rf in
  let f_lock = (prov_of rf ~obj:"f").pr_decision.pd_lock in
  let bad = { dp with Refine.dp_dropped = f_lock :: dp.Refine.dp_dropped } in
  let plan' =
    match Refine.apply_deployment ~plan:an.an_plan bad with
    | Ok p -> p
    | Error e -> Alcotest.failf "corrupt plan rejected early: %a"
                   Refine.pp_deploy_error e
  in
  let refined = Instrument.Transform.apply an.an_prog plan' in
  let va =
    Refine.validate ~cores:1 ~io ~report:an.an_report ~refined
      ~jobs:adv_default ()
  in
  Alcotest.(check bool) "violations found" true (va.va_violations <> []);
  Alcotest.(check bool) "all violations are Reintroduced" true
    (List.for_all
       (function Refine.Reintroduced _ -> true | _ -> false)
       va.va_violations)

(* Deterministic shared-lock program: reader/writer form a
   non-concurrent clique, so both pairs share one function lock. The
   b-pair is exercised every run and never races (disjoint slots of
   [b]); the c-pair's sids sit in dynamically dead branches. Two [noise]
   threads contend on a mutex no racy access needs, so the recorded
   mutex order, and with it the gated log, varies with the schedule. *)
let shared_src =
  {|int b[2];
    int c = 0;
    int n = 0;
    int m;
    void noise(int *u) {
      int k;
      for (k = 0; k < 8; k++) { lock(&m); n = n + 1; unlock(&m); }
    }
    void reader(int *u) {
      int t;
      t = b[1];
      output(t);
      if (t == 12345) { t = c; output(t); }
    }
    void writer(int *u) {
      b[0] = 7;
      if (b[0] == 12345) { c = 1; }
    }
    int main() { int r; int w; int x; int y;
      x = spawn(noise, &n);
      y = spawn(noise, &n);
      r = spawn(reader, &b[0]);
      w = spawn(writer, &b[0]);
      join(r); join(w); join(x); join(y);
      return 0; }|}

let observe_shared an jobs =
  Refine.corpus_observations ~cores:2 ~io
    ~instrumented:an.Chimera.Pipeline.an_instrumented
    ~racy_sids:an.an_report.racy_sids ~jobs ()

(* Cells that give [shared_src] at least two distinct recordings on 2
   cores, the default coverage bar. Recordings count as distinct only
   when their logs differ; here the noise threads' mutex order does, at
   nearly every seed of either strategy. *)
let shared_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let shared_strategies = [ Interp.Engine.Sdefault; Interp.Engine.Sstorm ]

let shared_jobs =
  List.concat_map
    (fun st -> List.map (fun s -> (s, st)) shared_seeds)
    shared_strategies

(* 6. shared-lock blocking: the covered never-racy pair may not drop
   because its clique lock also guards the unexercised pair *)
let test_kept_shared () =
  let an = analyze shared_src in
  let obs = observe_shared an shared_jobs in
  Alcotest.(check bool) "at least 2 distinct recordings" true
    (List.length obs >= 2);
  let rf = Refine.refine ~plan:an.an_plan obs in
  let b = prov_of rf ~obj:"b" and c = prov_of rf ~obj:"c" in
  check_prov "b-pair kept via shared lock" "kept" b;
  check_prov "c-pair unexercised" "kept:unexercised" c;
  Alcotest.(check bool) "b-pair itself qualifies" true
    (b.pr_evidence.pe_witness = None && b.pr_evidence.pe_both >= 2);
  Alcotest.(check int) "c-pair never both-executed" 0 c.pr_evidence.pe_both;
  Alcotest.(check bool) "same lock" true
    (b.pr_decision.pd_lock = c.pr_decision.pd_lock);
  Alcotest.(check int) "nothing dropped" 0 (List.length rf.rf_dropped)

(* 7. coverage threshold: one distinct recording is below the default
   bar of 2, so even the qualifying pair stays as unexercised *)
let test_unexercised_threshold () =
  let an = analyze shared_src in
  let jobs = [ (1, Interp.Engine.Sdefault) ] in
  let rf = Refine.refine ~plan:an.an_plan (observe_shared an jobs) in
  check_prov "below threshold" "kept:unexercised" (prov_of rf ~obj:"b");
  (* the same evidence clears a bar of 1 — and with the sibling still
     unexercised the pair lands on the shared-lock point, not a drop *)
  let rf1 =
    Refine.refine ~min_coverage:1 ~plan:an.an_plan (observe_shared an jobs)
  in
  check_prov "threshold 1 qualifies, sibling still blocks" "kept"
    (prov_of rf1 ~obj:"b")

(* 8. deployment format: roundtrip, digest pinning, unknown locks,
   malformed input *)
let test_deployment_roundtrip () =
  let an = analyze adv_src in
  let rf = Refine.refine ~plan:an.an_plan (observe_adv an adv_default) in
  let dp = Refine.deployment_of ~program:"adv" ~base:an.an_plan rf in
  let dp2 = Refine.deployment_of_json (Refine.deployment_json dp) in
  Alcotest.(check bool) "json roundtrip" true (dp = dp2);
  (match Refine.apply_deployment ~plan:an.an_plan dp with
  | Ok p ->
      Alcotest.(check string) "re-derived plan matches refined plan"
        (Refine.plan_digest rf.rf_plan)
        (Refine.plan_digest p)
  | Error e -> Alcotest.failf "clean deployment rejected: %a"
                 Refine.pp_deploy_error e);
  (match
     Refine.apply_deployment ~plan:an.an_plan
       { dp with Refine.dp_plan_digest = "0000" }
   with
  | Error (Refine.Digest_mismatch _) -> ()
  | _ -> Alcotest.fail "digest drift not rejected");
  (match
     Refine.apply_deployment ~plan:an.an_plan
       {
         dp with
         Refine.dp_dropped =
           [ { Minic.Ast.wl_id = 9999; wl_gran = Minic.Ast.Ginstr } ];
       }
   with
  | Error (Refine.Unknown_lock _) -> ()
  | _ -> Alcotest.fail "unknown lock not rejected");
  match Refine.deployment_of_json "{ not json" with
  | exception Refine.Bad_plan _ -> ()
  | _ -> Alcotest.fail "garbage accepted"

(* 9. on-disk corpus roundtrip: stress matrix -> of_stress -> save ->
   load -> observe_corpus must agree with the in-memory observations *)
let test_corpus_roundtrip () =
  let an = analyze shared_src in
  Testutil.with_temp_dir "chimera-corpus" @@ fun dir ->
  let spec =
    {
      Chimera.Stress.sp_name = "shared";
      sp_instrumented = an.an_instrumented;
      sp_io = io;
      sp_golden_ticks = None;
    }
  in
  let report =
    Chimera.Stress.run_matrix ~cores:2 ~seeds:shared_seeds
      ~strategies:shared_strategies ~progs:[ spec ] ()
  in
  Alcotest.(check (list string)) "clean matrix" []
    (List.map (Fmt.str "%a" Chimera.Stress.pp_issue) report.rp_issues);
  let digest = Refine.plan_digest an.an_plan in
  let corpus =
    Refine.Corpus.of_stress ~dir ~cores:2
      ~meta:[ ("shared", (Refine.Corpus.Ksrc, None, 42, digest)) ]
      report
  in
  Refine.Corpus.save corpus;
  let corpus' = Refine.Corpus.load ~dir in
  let entry = List.hd corpus'.co_entries in
  Alcotest.(check string) "plan digest survives" digest entry.ce_plan_digest;
  let obs =
    Refine.observe_corpus ~io ~instrumented:an.an_instrumented
      ~racy_sids:an.an_report.racy_sids corpus' entry
  in
  let obs_mem = observe_shared an shared_jobs in
  Alcotest.(check bool) "at least 2 distinct recordings" true
    (List.length obs_mem >= 2);
  Alcotest.(check int) "same distinct recordings" (List.length obs_mem)
    (List.length obs);
  let rf = Refine.refine ~plan:an.an_plan obs in
  check_prov "same provenance from disk" "kept" (prov_of rf ~obj:"b")

(* 9b. the writers emit compact JSON; a manifest and a deployment plan
   in the indented layout older versions wrote must still load *)
let test_indented_layout_loads () =
  Testutil.with_temp_dir "chimera-corpus" @@ fun dir ->
  Sys.mkdir dir 0o755;
  Out_channel.with_open_bin (Filename.concat dir Refine.Corpus.manifest)
    (fun oc ->
      output_string oc
        {|{
  "schema": "chimera-corpus/1",
  "programs": [
    {
      "name": "prog.mc",
      "kind": "src",
      "source": "dir/prog.mc",
      "io_seed": 7,
      "cores": 2,
      "plan_digest": "c203fadf82d09b79befe410ef9238d78",
      "recordings": [
        {"seed": 3, "strategy": "storm", "digest": "862dc72f", "ticks": 27108, "input": "p.input.log", "order": "p.order.log"}
      ]
    }
  ]
}
|});
  Alcotest.(check bool) "indented corpus manifest loads" true
    (Refine.Corpus.load ~dir
    = { co_dir = dir;
        co_entries =
          [ { ce_name = "prog.mc"; ce_kind = Ksrc; ce_source = Some "dir/prog.mc";
              ce_io_seed = 7; ce_cores = 2;
              ce_plan_digest = "c203fadf82d09b79befe410ef9238d78";
              ce_recordings =
                [ { cr_seed = 3; cr_strategy = Interp.Engine.Sstorm;
                    cr_digest = "862dc72f"; cr_ticks = 27108;
                    cr_input = "p.input.log"; cr_order = "p.order.log" } ] } ] });
  Alcotest.(check bool) "indented deployment plan loads" true
    (Refine.deployment_of_json
       {|{
  "schema": "chimera-refined-plan/1",
  "program": "fft",
  "plan_digest": "c203fadf82d09b79befe410ef9238d78",
  "min_coverage": 2,
  "dropped": [{"gran": "loop", "id": 0}, {"gran": "bb", "id": 3}],
  "pairs": [
    {"sid1": 5, "sid2": 13, "prov": "dropped:never-racy"}
  ]
}
|}
    = { dp_program = "fft"; dp_plan_digest = "c203fadf82d09b79befe410ef9238d78";
        dp_min_coverage = 2;
        dp_dropped =
          [ { Minic.Ast.wl_id = 0; wl_gran = Gloop }; { wl_id = 3; wl_gran = Gbb } ];
        dp_pairs = [ (5, 13, "dropped:never-racy") ] })

(* 10. the paper's soundness floor as a fuzz property: on arbitrary
   contended programs, a corpus-refined plan validated over its own
   cells never admits a dynamic race that RELAY does not cover *)
let prop_refined_sound =
  QCheck.Test.make
    ~name:"fuzz: refined plan admits no statically uncovered race"
    ~count:6 Proggen.arbitrary_contended (fun src ->
      let an =
        Chimera.Pipeline.analyze ~profile_runs:3
          ~profile_io:(fun i -> Interp.Iomodel.random ~seed:(500 + i))
          (Minic.Parser.parse ~file:"fuzz.mc" src)
      in
      let jobs =
        [
          (2, Interp.Engine.Sdefault);
          (9, Interp.Engine.Sdefault);
          (2, Interp.Engine.Sstorm);
          (9, Interp.Engine.Sstorm);
        ]
      in
      let io = Interp.Iomodel.random ~seed:33 in
      let obs =
        Refine.corpus_observations ~cores:4 ~io
          ~instrumented:an.an_instrumented ~racy_sids:an.an_report.racy_sids
          ~jobs ()
      in
      let rf = Refine.refine ~plan:an.an_plan obs in
      if rf.rf_refined_acqs > rf.rf_base_acqs then
        QCheck.Test.fail_reportf "refinement grew the plan: %d -> %d"
          rf.rf_base_acqs rf.rf_refined_acqs;
      let refined = Instrument.Transform.apply an.an_prog rf.rf_plan in
      let va =
        Refine.validate ~cores:4 ~io ~report:an.an_report ~refined ~jobs ()
      in
      match
        List.find_opt
          (function Refine.Uncovered _ -> true | _ -> false)
          va.va_violations
      with
      | Some v ->
          QCheck.Test.fail_reportf "uncovered race under refined plan: %a"
            Refine.pp_violation v
      | None -> true)

let rand () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> Random.State.make [| int_of_string s |]
  | None -> Random.State.make [| 0xC41A3A5 |]

let suite =
  [
    Alcotest.test_case "default corpus drops never-racy lock" `Slow
      test_drop_never_racy;
    Alcotest.test_case "storm corpus witnesses and pins" `Slow
      test_witness_pins_lock;
    Alcotest.test_case "witness beats any threshold" `Slow
      test_witness_beats_threshold;
    Alcotest.test_case "refined plan validates clean" `Slow
      test_validate_refined_clean;
    Alcotest.test_case "corrupted plan trips the safety valve" `Slow
      test_validate_rejects_corrupt_plan;
    Alcotest.test_case "shared lock blocks the drop" `Quick test_kept_shared;
    Alcotest.test_case "coverage threshold" `Quick test_unexercised_threshold;
    Alcotest.test_case "deployment roundtrip and rejection" `Slow
      test_deployment_roundtrip;
    Alcotest.test_case "on-disk corpus roundtrip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "indented corpus and plan still load" `Quick
      test_indented_layout_loads;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_refined_sound;
  ]
