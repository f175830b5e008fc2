(** The persistent analysis cache ({!Ancache}) and its integration into
    {!Chimera.Pipeline.analyze}: hit/miss round-trips, binary-safe
    payloads, and — the property the store is designed around — every
    kind of damaged entry (truncated, bit-flipped, version-bumped,
    undecodable) degrades to recomputation with a one-line diagnostic,
    never to a crash, mirroring how [Replay.Log.Corrupt] gates damaged
    replay logs. The pipeline cases run a small racy program and two
    benchmarks (water, radix); the stage sink must see every stage. *)

module A = Ancache

let temp_store_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chimera-ancache-test-%d-%d" (Unix.getpid ()) !n)

let with_store f =
  let dir = temp_store_dir () in
  let c = A.create ~dir () in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ()
      end)
    (fun () -> f c)

let entry_files c =
  Sys.readdir (A.dir c) |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".anc")
  |> List.map (Filename.concat (A.dir c))

(** Rewrite the store's single entry file through [f : string -> string]. *)
let damage_entry c f =
  match entry_files c with
  | [ path ] ->
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (f s);
      close_out oc
  | files ->
      Alcotest.failf "expected exactly one cache entry, found %d"
        (List.length files)

let miss_t : A.miss Alcotest.testable =
  Alcotest.testable A.pp_miss (fun a b -> a = b)

let find_t = Alcotest.(result string miss_t)

(* a payload with every byte class the entry format must survive:
   newlines, NULs, high bytes, and the header magic itself *)
let binary_payload =
  "line1\nline2\x00\xff\x01" ^ A.magic ^ "\ntrailing\n"

(* ------------------------------------------------------------------ *)
(* store unit tests *)

let test_roundtrip () =
  with_store @@ fun c ->
  let key = A.key_of_parts [ "roundtrip"; "k" ] in
  Alcotest.check find_t "empty store misses" (Error A.Absent)
    (A.find c ~key);
  Alcotest.(check bool) "put succeeds" true (A.put c ~key binary_payload);
  Alcotest.check find_t "hit returns the exact payload" (Ok binary_payload)
    (A.find c ~key);
  let s = A.stats c in
  Alcotest.(check int) "one entry" 1 s.A.st_entries;
  Alcotest.(check bool) "entry has a size" true (s.A.st_bytes > 0);
  (* overwrite with new content *)
  Alcotest.(check bool) "overwrite succeeds" true (A.put c ~key "v2");
  Alcotest.check find_t "overwrite wins" (Ok "v2") (A.find c ~key);
  Alcotest.(check int) "still one entry" 1 (A.stats c).A.st_entries

let test_keys_independent () =
  with_store @@ fun c ->
  let k1 = A.key_of_parts [ "a"; "b" ] in
  let k2 = A.key_of_parts [ "ab" ] in
  Alcotest.(check bool)
    "part boundaries are part of the key (no concatenation collision)" false
    (k1 = k2);
  ignore (A.put c ~key:k1 "one");
  ignore (A.put c ~key:k2 "two");
  Alcotest.check find_t "k1 payload" (Ok "one") (A.find c ~key:k1);
  Alcotest.check find_t "k2 payload" (Ok "two") (A.find c ~key:k2);
  Alcotest.(check int) "two entries" 2 (A.stats c).A.st_entries

let test_clear () =
  with_store @@ fun c ->
  ignore (A.put c ~key:(A.key_of_parts [ "x" ]) "x");
  ignore (A.put c ~key:(A.key_of_parts [ "y" ]) "y");
  Alcotest.(check int) "clear reports removals" 2 (A.clear c);
  Alcotest.(check int) "store is empty" 0 (A.stats c).A.st_entries;
  Alcotest.(check int) "clear on empty store" 0 (A.clear c)

(* a [put] that crashes between temp-file creation and the atomic rename
   leaves a [.<key>...tmp] stray; it must be counted by [stats], swept
   by [clear], and never shadow or become an entry *)
let test_stray_tmp_swept () =
  with_store @@ fun c ->
  let key = A.key_of_parts [ "survivor" ] in
  ignore (A.put c ~key "payload");
  (* plant the stray a crashed writer would leave *)
  let stray = Filename.concat (A.dir c) ("." ^ key ^ "abc123.tmp") in
  let oc = open_out_bin stray in
  output_string oc "half-written";
  close_out oc;
  Alcotest.(check (list string))
    "stray is visible" [ Filename.basename stray ] (A.stray_tmp_files c);
  let s = A.stats c in
  Alcotest.(check int) "stats count the stray" 1 s.A.st_tmp;
  Alcotest.(check int) "stray is not an entry" 1 s.A.st_entries;
  Alcotest.check find_t "the real entry still hits" (Ok "payload")
    (A.find c ~key);
  Alcotest.(check int) "clear counts entries only" 1 (A.clear c);
  Alcotest.(check bool) "stray swept" false (Sys.file_exists stray);
  let s = A.stats c in
  Alcotest.(check int) "no entries left" 0 s.A.st_entries;
  Alcotest.(check int) "no strays left" 0 s.A.st_tmp

let damaged_cases =
  [
    ( "truncated payload",
      (fun s -> String.sub s 0 (String.length s - 4)),
      Error A.Truncated );
    ( "truncated header",
      (fun s -> String.sub s 0 (String.length A.magic + 3)),
      Error A.Truncated );
    ( "empty file", (fun _ -> ""), Error A.Truncated );
    ( "flipped payload byte",
      (fun s ->
        let b = Bytes.of_string s in
        let i = Bytes.length b - 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
        Bytes.to_string b),
      Error A.Checksum_mismatch );
    ( "foreign magic",
      (fun s -> "CHIMERA-ANCACHE/999" ^ String.sub s (String.length A.magic)
                  (String.length s - String.length A.magic)),
      Error A.Version_mismatch );
  ]

let test_damaged_entries () =
  List.iter
    (fun (what, mangle, expect) ->
      with_store @@ fun c ->
      let key = A.key_of_parts [ "damage"; what ] in
      ignore (A.put c ~key binary_payload);
      damage_entry c mangle;
      Alcotest.check find_t what expect (A.find c ~key);
      (* a damaged entry is recoverable: put wins and find hits again *)
      Alcotest.(check bool) "re-put over damage" true
        (A.put c ~key binary_payload);
      Alcotest.check find_t (what ^ ": healed") (Ok binary_payload)
        (A.find c ~key))
    damaged_cases

let test_missing_dir () =
  (* find/stats/clear on a directory that was never created *)
  let c = A.create ~dir:(temp_store_dir ()) () in
  Alcotest.check find_t "find in absent dir" (Error A.Absent)
    (A.find c ~key:(A.key_of_parts [ "k" ]));
  Alcotest.(check int) "stats in absent dir" 0 (A.stats c).A.st_entries;
  Alcotest.(check int) "clear in absent dir" 0 (A.clear c)

(* ------------------------------------------------------------------ *)
(* pipeline integration *)

let racy_src =
  "int counter = 0;\n\
   void w(int *u) {\n\
  \  int i; int tmp;\n\
  \  for (i = 0; i < 40; i++) { tmp = counter; counter = tmp + 1; }\n\
   }\n\
   int main() { int t1; int t2;\n\
  \  t1 = spawn(w, &counter); t2 = spawn(w, &counter);\n\
  \  join(t1); join(t2);\n\
  \  output(counter);\n\
  \  return 0; }\n"

let analysis_digest (an : Chimera.Pipeline.analysis) =
  ( Fmt.str "%a" Relay.Detect.pp_report_explain an.an_report,
    Fmt.str "%a" Lockopt.pp_explain an.an_lockopt,
    Minic.Pretty.program_to_string an.an_instrumented )

(* a pipeline input: its cache tag, the program, its profile io *)
type input = {
  tag : string;
  prog : Minic.Ast.program;
  profile_io : (int -> Interp.Iomodel.t) option;
}

let racy_input =
  {
    tag = "default";
    prog = Minic.Parser.parse ~file:"cache-test.mc" racy_src;
    profile_io = None;
  }

let bench_input name =
  let b = Bench_progs.Registry.by_name name in
  {
    tag = name;
    prog =
      Minic.Parser.parse ~file:name
        (b.b_source ~workers:4 ~scale:b.b_eval_scale);
    profile_io =
      Some (fun i -> b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale);
  }

let analyze ?stage_sink ?cache ?(log = ref []) inp =
  Chimera.Pipeline.analyze ~profile_runs:4 ?profile_io:inp.profile_io ?cache
    ~cache_tag:inp.tag ?stage_sink
    ~cache_log:(fun m -> log := m :: !log)
    inp.prog

let logged log needle = List.exists (fun m -> Testutil.contains m needle) !log

let test_pipeline_warm_identical () =
  with_store @@ fun c ->
  let inputs = [ racy_input; bench_input "water"; bench_input "radix" ] in
  List.iter
    (fun inp ->
      let log = ref [] in
      let cold = analyze ~cache:c ~log inp in
      Alcotest.(check bool) (inp.tag ^ ": cold run logs a miss") true
        (logged log "miss");
      log := [];
      let warm = analyze ~cache:c ~log inp in
      Alcotest.(check bool) (inp.tag ^ ": warm run logs a hit") true
        (logged log "hit");
      Alcotest.(check bool)
        (inp.tag ^ ": warm analysis is identical to cold")
        true
        (analysis_digest cold = analysis_digest warm);
      if inp == racy_input then begin
        (* the cached plan instruments to a program that still runs *)
        let o =
          Chimera.Runner.deterministic
            ~config:{ Interp.Engine.default_config with seed = 3; cores = 4 }
            ~io:(Interp.Iomodel.random ~seed:7) warm.an_instrumented
        in
        Alcotest.(check bool) "cached analysis executes" true
          (o.o_outputs <> [])
      end)
    inputs;
  Alcotest.(check int) "one entry per program" (List.length inputs)
    (A.stats c).A.st_entries

(* every damage shape on the racy program, and one each on two
   benchmarks' much larger entries *)
let test_pipeline_damaged_fallback () =
  let shape name = List.find (fun (w, _, _) -> w = name) damaged_cases in
  List.iter
    (fun (inp, (what, mangle, _)) ->
      let what = inp.tag ^ ": " ^ what in
      with_store @@ fun c ->
      let cold = analyze ~cache:c inp in
      damage_entry c mangle;
      let log = ref [] in
      let again = analyze ~cache:c ~log inp in
      Alcotest.(check bool)
        (what ^ ": recompute matches the original analysis")
        true
        (analysis_digest cold = analysis_digest again);
      Alcotest.(check bool) (what ^ ": a warning was logged") true
        (logged log "warning:");
      (* the damaged entry was overwritten: the next run hits *)
      let log = ref [] in
      ignore (analyze ~cache:c ~log inp);
      Alcotest.(check bool) (what ^ ": entry healed, next run hits") true
        (logged log "hit"))
    (List.map (fun d -> (racy_input, d)) damaged_cases
    @ [
        (bench_input "water", shape "truncated payload");
        (bench_input "radix", shape "foreign magic");
      ])

(* the per-stage timing sink sees every stage of the pipeline *)
let test_pipeline_stage_sink () =
  let stages = ref [] in
  ignore
    (analyze
       ~stage_sink:(fun s dt -> stages := (s, dt) :: !stages)
       (bench_input "radix"));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Fmt.str "stage %S reported with a sane time" s)
        true
        (match List.assoc_opt s !stages with
        | Some dt -> dt >= 0.
        | None -> false))
    [ "pointer"; "relay"; "mhp"; "profile"; "plan"; "lockopt" ]

let test_pipeline_undecodable_payload () =
  (* a well-formed entry (header + checksum intact) whose payload is not
     a marshalled analysis: the unmarshal guard must recompute *)
  with_store @@ fun c ->
  let cold = analyze ~cache:c racy_input in
  let key =
    Chimera.Pipeline.cache_key ~opts:Instrument.Plan.all_opts ~profile_runs:4
      ~profile_config:Interp.Engine.default_config ~mhp:true ~lockopt:true
      ~cache_tag:"default"
      (Minic.Typecheck.check racy_input.prog)
  in
  Alcotest.(check bool) "test recomputes the pipeline's key" true
    (match A.find c ~key with Ok _ -> true | Error _ -> false);
  ignore (A.put c ~key "not a marshalled analysis");
  let log = ref [] in
  let again = analyze ~cache:c ~log racy_input in
  Alcotest.(check bool) "undecodable payload recomputes" true
    (analysis_digest cold = analysis_digest again);
  Alcotest.(check bool) "undecodable payload warns" true
    (logged log "undecodable")

let test_cache_key_sensitivity () =
  let prog = Minic.Typecheck.check racy_input.prog in
  let key ?(opts = Instrument.Plan.all_opts) ?(profile_runs = 4)
      ?(mhp = true) ?(lockopt = true) ?(cache_tag = "default") () =
    Chimera.Pipeline.cache_key ~opts ~profile_runs
      ~profile_config:Interp.Engine.default_config ~mhp ~lockopt ~cache_tag
      prog
  in
  let base = key () in
  Alcotest.(check string) "key is deterministic" base (key ());
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool) (what ^ " changes the key") false (base = k))
    [
      ("opts", key ~opts:Instrument.Plan.naive ());
      ("profile_runs", key ~profile_runs:5 ());
      ("mhp", key ~mhp:false ());
      ("lockopt", key ~lockopt:false ());
      ("cache_tag", key ~cache_tag:"other" ());
    ]

let suite =
  [
    Alcotest.test_case "put/find round-trip (binary-safe)" `Quick
      test_roundtrip;
    Alcotest.test_case "key part boundaries" `Quick test_keys_independent;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "stray writer tmp files swept" `Quick
      test_stray_tmp_swept;
    Alcotest.test_case "damaged entries miss, typed" `Quick
      test_damaged_entries;
    Alcotest.test_case "absent directory" `Quick test_missing_dir;
    Alcotest.test_case "pipeline: warm cache == cold analysis" `Quick
      test_pipeline_warm_identical;
    Alcotest.test_case "pipeline: damaged entry falls back + heals" `Quick
      test_pipeline_damaged_fallback;
    Alcotest.test_case "pipeline: undecodable payload falls back" `Quick
      test_pipeline_undecodable_payload;
    Alcotest.test_case "pipeline: stage sink covers every stage" `Quick
      test_pipeline_stage_sink;
    Alcotest.test_case "cache_key sensitivity" `Quick
      test_cache_key_sensitivity;
  ]
