(** The repository benchmark: one workload per process, every layer
    timed from outside through the libraries' public functions.

    {v
    bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--damage]
    bench.exe --known-defects
    v}

    Progress goes to stderr; the last line of stdout is one JSON object
    [{"correct", "attempted", "failed", "metrics"}]. With [--trace 0]
    the metrics are the end-to-end ones, with [--trace 1] the per-layer
    ones (a separate run, so attribution never perturbs the end-to-end
    figures). [--damage] flips one byte of every recorded log before it
    is replayed, so the checks must fail (the self-test's negative
    control). [--known-defects] replays the reproducers of the program's
    known defects and prints whether each still reproduces. Methodology,
    the workloads and the layer -> end-to-end map are in
    perfbench/README.md. *)

module Reg = Bench_progs.Registry
module Engine = Interp.Engine
module Pipeline = Chimera.Pipeline
module Runner = Chimera.Runner
module Log = Replay.Log
module Seglog = Replay.Seglog

(* ------------------------------------------------------------------ *)
(* Clock, allocation, statistics *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(** Words this domain has allocated in the minor heap so far. Its deltas
    repeat exactly; [Gc.counters] and [Gc.quick_stat] only update at
    collections, and blocks over 256 words, which go straight to the
    major heap, have no exact counter, so they are left out. *)
let alloc_words () = Gc.minor_words ()

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

(** [f ()]: result, seconds, MB allocated. *)
let measure f =
  let a0 = alloc_words () in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  (v, dt, mb_of_words (alloc_words () -. a0))

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Host-speed reference

   On this class of host (2 vCPUs shared with other tenants) closure-
   dispatching code such as the MiniC interpreter slows by up to 1.5x
   for seconds to minutes at a time, while ALU loops and memory-latency
   loops barely move, which points at contention for the core's front
   end rather than for memory. A frozen toy interpreter, compiled to closures the
   way the engine is, slows with it (correlation 0.95 between 3 s
   windows). Every pass samples it between timed calls, and the pass's
   times are scaled by [nominal_ref_s] over the median sample, so the
   reported seconds are those of a host running the reference in
   [nominal_ref_s]. The reference is fixed code in this file: nothing
   the repository changes can speed it up or slow it down. *)

type rv = I of int | P of rv * rv

type rexp =
  | Const of int
  | Var of int
  | Add of rexp * rexp
  | Sub of rexp * rexp
  | Mod of rexp * rexp
  | Lt of rexp * rexp
  | Pair of rexp * rexp
  | Fst of rexp

type rstmt = Set of int * rexp | While of rexp * rstmt list | If of rexp * rstmt list * rstmt list

let int_op f a b env = match (a env, b env) with I x, I y -> I (f x y) | _ -> I 0

let rec compile_exp = function
  | Const n ->
      let v = I n in
      fun _ -> v
  | Var i -> fun env -> env.(i)
  | Add (a, b) -> int_op ( + ) (compile_exp a) (compile_exp b)
  | Sub (a, b) -> int_op ( - ) (compile_exp a) (compile_exp b)
  | Mod (a, b) -> int_op (fun x y -> x mod max 1 y) (compile_exp a) (compile_exp b)
  | Lt (a, b) -> int_op (fun x y -> if x < y then 1 else 0) (compile_exp a) (compile_exp b)
  | Pair (a, b) ->
      let a = compile_exp a and b = compile_exp b in
      fun env -> P (a env, b env)
  | Fst a -> (
      let a = compile_exp a in
      fun env -> match a env with P (x, _) -> x | v -> v)

let rec compile_stmt = function
  | Set (i, e) ->
      let e = compile_exp e in
      fun env -> env.(i) <- e env
  | While (c, body) ->
      let c = compile_exp c and body = List.map compile_stmt body in
      fun env ->
        while c env = I 1 do
          List.iter (fun f -> f env) body
        done
  | If (c, t, f) ->
      let c = compile_exp c and t = List.map compile_stmt t and f = List.map compile_stmt f in
      fun env -> List.iter (fun g -> g env) (if c env = I 1 then t else f)

let reference_program =
  List.map compile_stmt
    [
      Set (0, Const 0);
      Set (1, Const 0);
      While
        ( Lt (Var 0, Const 60_000),
          [
            Set (2, Pair (Var 0, Var 1));
            If
              ( Lt (Mod (Var 0, Const 3), Const 1),
                [ Set (1, Add (Var 1, Fst (Var 2))) ],
                [ Set (1, Sub (Var 1, Const 1)) ] );
            Set (3, Pair (Var 2, Var 3));
            If (Lt (Mod (Var 0, Const 97), Const 1), [ Set (3, Const 0) ], []);
            Set (0, Add (Var 0, Const 1));
          ] );
    ]

(** About what the reference takes on an idle host of this class. *)
let nominal_ref_s = 0.0125

let ref_samples = ref []
let last_ref = ref neg_infinity

let sample_reference () =
  Gc.compact ();
  let env = Array.make 4 (I 0) in
  let t0 = now () in
  List.iter (fun f -> f env) reference_program;
  last_ref := now ();
  ref_samples := (!last_ref -. t0) :: !ref_samples

(** [f ()] after a [Gc.compact], with a reference sample first when the
    last one is more than 0.1 s old: result, seconds, MB allocated. *)
let timed f =
  if now () -. !last_ref > 0.1 then sample_reference ();
  Gc.compact ();
  measure f

(** [f ()] after a [Gc.compact], untimed. Every heavy call starts from a
    compacted heap, so the peak heap is set by the largest single call
    and not by how far the major GC had got. In four short runs of one
    seed of [analyze], [peak_heap_mb] ranged 41.10-43.49 MB without this
    and 38.99-39.03 MB with it. *)
let untimed f =
  Gc.compact ();
  f ()

(* Each metric is summed (a peak: maximized) over the cells of one pass;
   [close_pass] scales the pass's seconds to the nominal host and files
   every value as one sample. A run reports the median sample. *)
let pass : (string, float) Hashtbl.t = Hashtbl.create 64
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64
let get name = Option.value ~default:0. (Hashtbl.find_opt pass name)
let add name v = Hashtbl.replace pass name (get name +. v)
let add_max name v = Hashtbl.replace pass name (Float.max (get name) v)

let is_seconds name =
  String.ends_with ~suffix:"_s" name || String.ends_with ~suffix:".s" name

let close_pass () =
  if !ref_samples = [] then sample_reference ();
  let ref_s = median !ref_samples in
  ref_samples := [];
  let file name v =
    let prev = Option.value ~default:[] (Hashtbl.find_opt samples name) in
    Hashtbl.replace samples name (v :: prev)
  in
  Hashtbl.iter
    (fun name v -> file name (if is_seconds name then v *. nominal_ref_s /. ref_s else v))
    pass;
  file "host.ref_s" ref_s;
  Hashtbl.reset pass

let reported name =
  match Hashtbl.find_opt samples name with
  | Some xs -> median xs
  | None -> Fmt.failwith "metric %s was never measured" name

(* ------------------------------------------------------------------ *)
(* Checks: every timed output is verified; pass_rate = verified/attempted *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Fmt.epr "perfbench: check failed: %s@." what
  end

let check_same what a b =
  match Runner.same_execution a b with
  | Ok () -> check what true
  | Error d -> check (Fmt.str "%s: %a" what Runner.pp_divergence d) false

(** Golden record ticks, read-only, from the tier-1 snapshot. *)
let golden_ticks () : (string * int) list =
  let ic = open_in "test/golden/golden_counters.expected" in
  let rec rows acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | name :: cols when name <> "bench" ->
            let ticks = List.nth cols (List.length cols - 1) in
            rows ((name, int_of_string ticks) :: acc)
        | _ -> rows acc)
    | exception End_of_file ->
        close_in ic;
        acc
  in
  rows []

(* ------------------------------------------------------------------ *)
(* Workloads *)

type spec = {
  w_benches : (string * int) list;  (** bench, input scale *)
  w_workers : int;
  w_profile_runs : int;
  w_strategies : Engine.strategy list;
  w_weak_timeout : int;
  w_segmented : bool;
      (** record through the spilling recorder and replay by streaming *)
  w_events_per_segment : int;
  w_golden : bool;  (** the programs run the golden-counter config *)
}

let eval_scale name = (Reg.by_name name).b_eval_scale

(** Small enough that most programs' recordings span several segments,
    so a windowed replay really stops early. *)
let events_per_segment = 128

(** Workers of the programs whose segmented recordings the windowed leg
    replays. *)
let window_workers = 4

let base =
  {
    w_benches = [];
    w_workers = 4;
    w_profile_runs = 6;
    w_strategies = [ Engine.Sdefault ];
    w_weak_timeout = Engine.default_config.weak_timeout;
    w_segmented = false;
    w_events_per_segment = events_per_segment;
    w_golden = false;
  }

(* Why these four (perfbench/README.md has the numbers): [analyze] is
   dominated by profiling; [record-logheavy] has the largest order logs,
   so encoding, decoding and compression carry record and replay, and it
   runs the golden config; [server-sustained] goes through the spilling
   recorder and the disk; [storm-contended] is the only one where
   weak-lock timeouts, forced releases and handoffs fire. *)
let spec_of_name = function
  | "analyze" ->
      Some
        {
          base with
          w_benches = List.map (fun n -> (n, eval_scale n)) Reg.names;
          w_profile_runs = 12;
        }
  | "record-logheavy" ->
      Some
        {
          base with
          w_benches =
            List.map
              (fun n -> (n, eval_scale n))
              [ "pfscan"; "pbzip2"; "ocean"; "water" ];
          w_golden = true;
        }
  | "server-sustained" ->
      Some
        {
          base with
          w_benches = [ ("knot", 250); ("apache", 64) ];
          w_segmented = true;
          (* at 128 events a pass sealed about 170 segments; sealing was
             half of record_s and spread it to 14-15% IQR over ten runs *)
          w_events_per_segment = 512;
        }
  | "storm-contended" ->
      Some
        {
          base with
          w_benches = [ ("pfscan", 8); ("ocean", 3); ("fft", 6); ("apache", 2) ];
          w_workers = 16;
          w_strategies = [ Engine.Sstorm; Engine.Spct ];
          w_weak_timeout = 640;
        }
  | _ -> None

type prog = {
  p_bench : Reg.bench;
  p_workers : int;
  p_scale : int;
  p_parsed : Minic.Ast.program;
  p_checked : Minic.Ast.program;  (** type-checked original *)
  mutable p_instr : Minic.Ast.program option;  (** from the last analysis *)
}

type cell = {
  c_prog : prog;
  c_name : string;
  c_config : Engine.config;
  c_io : Interp.Iomodel.t;
  c_native_ticks : int;
  c_dir : string;  (** the cell's segment directory *)
  mutable c_mid : int;  (** window bound: the middle segment's last tick *)
  mutable c_digests : (int * string) list;
      (** full streamed replay's digest per segment drain *)
  mutable c_peak_raw : int;
}

let profile_io (p : prog) i = p.p_bench.b_io ~seed:(100 + i) ~scale:p.p_bench.b_profile_scale
let cache_tag (p : prog) = Fmt.str "perfbench:%s:%d" p.p_bench.b_name p.p_scale
let replay_config (c : cell) = { c.c_config with Engine.seed = c.c_config.seed + 7919 }

(** Generate sources and inputs, parse, type-check, and run every cell
    natively for the overhead baseline. Returns the programs, the
    record/replay cells and the windowed-replay cells. *)
let setup ~spec ~seed ~tmp : prog list * cell list * cell list =
  let make_prog ~workers (name, scale) =
    let b = Reg.by_name name in
    let src = b.b_source ~workers ~scale in
    let parsed, dt, mb = measure (fun () -> Minic.Parser.parse ~file:name src) in
    add "minic.parse_s" dt;
    add "minic.parse.alloc_mb" mb;
    {
      p_bench = b;
      p_workers = workers;
      p_scale = scale;
      p_parsed = parsed;
      p_checked = Minic.Typecheck.check parsed;
      p_instr = None;
    }
  in
  let progs = List.map (make_prog ~workers:spec.w_workers) spec.w_benches in
  let make_cell ~native p strategy =
    let config =
      { Engine.default_config with seed; cores = 4; strategy; weak_timeout = spec.w_weak_timeout }
    in
    let io = p.p_bench.b_io ~seed:(1000 + seed) ~scale:p.p_scale in
    let name =
      Fmt.str "%s/%s%s" p.p_bench.b_name (Engine.strategy_name strategy)
        (if p.p_workers = spec.w_workers then "" else Fmt.str "/%dw" p.p_workers)
    in
    let native_ticks =
      if not native then 0
      else begin
        let nat = untimed (fun () -> Runner.native ~config ~io p.p_checked) in
        check (name ^ ": native run completes") (not nat.o_timed_out);
        nat.o_ticks
      end
    in
    {
      c_prog = p;
      c_name = name;
      c_config = config;
      c_io = io;
      c_native_ticks = native_ticks;
      c_dir = Filename.concat tmp (String.map (function '/' -> '-' | ch -> ch) name);
      c_mid = 0;
      c_digests = [];
      c_peak_raw = 0;
    }
  in
  let cells =
    List.concat_map (fun p -> List.map (make_cell ~native:true p) spec.w_strategies) progs
  in
  (* The windowed leg replays each program's default-schedule recording
     with [window_workers] workers (a segmented workload's own
     recordings). Streamed replay of contended multi-segment recordings
     is defective (README.md, "Known defects": it can deadlock under
     [storm] and report claim drift at 16 workers), so storm-contended's
     recordings are replayed monolithically only, and its windowed leg
     runs 4-worker variants of its programs at their evaluation scale,
     analyzed in the warm-up. *)
  let windows =
    if spec.w_segmented then cells
    else if spec.w_workers <> window_workers then
      List.map
        (fun p ->
          let name = p.p_bench.b_name in
          make_cell ~native:false
            (make_prog ~workers:window_workers (name, eval_scale name))
            Engine.Sdefault)
        progs
    else
      List.map
        (fun p ->
          match
            List.find_opt (fun c -> c.c_prog == p && c.c_config.strategy = Engine.Sdefault) cells
          with
          | Some c -> c
          | None -> make_cell ~native:false p Engine.Sdefault)
        progs
  in
  (progs, cells, windows)

(* ------------------------------------------------------------------ *)
(* One pass: analyze every program, then record and replay every cell *)

let stage_metric = function
  | "profile" -> "profiling.s"
  | "plan" -> "instrument.plan_s"
  | stage -> stage ^ ".s"

let analyze_prog ~spec ~cache ~first ~traced (p : prog) =
  let profile_runs = spec.w_profile_runs and profile_io = profile_io p in
  let cache_tag = cache_tag p in
  let stage_sink = if traced then Some (fun stage dt -> add (stage_metric stage) dt) else None in
  (* the first pass's cold analysis populates the store the warm calls hit *)
  let store = if first then Some cache else None in
  let cold, dt, mb =
    timed (fun () ->
        Pipeline.analyze ~profile_runs ~profile_io ?cache:store ~cache_tag ?stage_sink
          p.p_parsed)
  in
  add "analyze_s" dt;
  add "analyze.alloc_mb" mb;
  if traced then begin
    let key, dt, mb =
      timed (fun () ->
          Pipeline.cache_key ~opts:Instrument.Plan.all_opts ~profile_runs
            ~profile_config:Engine.default_config ~mhp:true ~lockopt:true ~cache_tag
            p.p_checked)
    in
    add "ancache.key_s" dt;
    add "ancache.key.alloc_mb" mb;
    let found, dt, mb = timed (fun () -> Ancache.find cache ~key) in
    add "ancache.find_s" dt;
    add "ancache.find.alloc_mb" mb;
    add "ancache.finds" 1.;
    if Result.is_ok found then add "ancache.hits" 1.
  end;
  let hit = ref false in
  let cache_log line = if String.starts_with ~prefix:"analysis cache hit" line then hit := true in
  let warm, dt, _ =
    timed (fun () ->
        Pipeline.analyze ~profile_runs ~profile_io ~cache ~cache_tag ~cache_log p.p_parsed)
  in
  add "analyze_warm_s" dt;
  let name = p.p_bench.b_name in
  check (name ^ ": warm analyze is a cache hit") !hit;
  check (name ^ ": warm instrumented program equals cold")
    (warm.an_instrumented = cold.an_instrumented);
  p.p_instr <- Some cold.an_instrumented

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let flip_byte s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
  Bytes.to_string b

let damage_segment dir =
  let file = Filename.concat dir (Seglog.segment_file 0) in
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin file in
  output_string oc (flip_byte s);
  close_out oc

let add_counters (o : Engine.outcome) =
  let st = o.o_stats in
  add "runtime.weak_acq" (float_of_int (Array.fold_left ( + ) 0 st.n_weak_acq));
  add "runtime.weak_block_ticks" (float_of_int (Array.fold_left ( + ) 0 st.weak_block_ticks));
  add "runtime.forced" (float_of_int st.n_forced);
  add "runtime.handoff_served" (float_of_int st.n_handoff_served);
  add "runtime.handoff_expired" (float_of_int st.n_handoff_expired)

let add_overhead (c : cell) (o : Engine.outcome) =
  add "overhead.log_sum" (log (float_of_int o.o_ticks /. float_of_int c.c_native_ticks));
  add "overhead.cells" 1.

(** Replay to the middle of the segmented recording in [c.c_dir] and pin
    its halt digest to the full replay's at the same drain. *)
let window_replay ~traced (c : cell) instr =
  let mf = Seglog.read_manifest ~dir:c.c_dir in
  let cover = Seglog.covering_segment mf ~upto:c.c_mid in
  let win, dt, _ =
    try
      timed (fun () ->
          Some
            (Runner.replay_streamed ~config:(replay_config c) ~io:c.c_io ~upto_tick:c.c_mid
               ~dir:c.c_dir instr))
    with Log.Corrupt _ -> (None, 0., 0.)
  in
  add "window_replay_s" dt;
  (match win with
  | Some w ->
      check (c.c_name ^ ": windowed replay halts early") w.st_halted;
      check (c.c_name ^ ": windowed halt digest equals full replay's")
        (List.assoc_opt cover w.st_digests <> None
        && List.assoc_opt cover w.st_digests = List.assoc_opt cover c.c_digests);
      add "replay.seglog.window_segments" (float_of_int w.st_segments_loaded)
  | None -> check (c.c_name ^ ": windowed replay reads its segments") false);
  if traced then begin
    let segs = mf.mf_segments in
    let _, dt, mb =
      timed (fun () -> Array.iter (fun sg -> ignore (Seglog.load_segment ~dir:c.c_dir sg)) segs)
    in
    add "replay.seglog.load_s" dt;
    add "replay.seglog.load.alloc_mb" mb;
    add "replay.seglog.segments" (float_of_int (Array.length segs));
    add_max "replay.seglog.peak_raw_bytes" (float_of_int c.c_peak_raw);
    Array.iteri
      (fun i _ ->
        let f = Filename.concat c.c_dir (Seglog.checkpoint_file i) in
        if Sys.file_exists f then
          add "replay.seglog.snapshot_bytes" (float_of_int (Unix.stat f).st_size))
      segs
  end

(** Record [c] through the spilling recorder into [c.c_dir], replay the
    whole stream, and keep the window bound and digests. *)
let record_segmented ~spec ~damage (c : cell) instr =
  (* into an empty directory, as a new recording would be: removing the
     previous pass's files is file-system work, not recording *)
  rm_rf c.c_dir;
  let sr, dt, _ =
    timed (fun () ->
        Runner.record_segmented ~config:c.c_config ~io:c.c_io ~dir:c.c_dir
          ~events_per_segment:spec.w_events_per_segment ~checkpoint_every:1 instr)
  in
  let mf = sr.sr_manifest in
  let segs = mf.mf_segments in
  c.c_mid <- segs.((Array.length segs - 1) / 2).sg_last_tick;
  c.c_peak_raw <- sr.sr_stats.ws_peak_raw;
  if damage then damage_segment c.c_dir;
  let full, dt_rep, _ =
    try
      timed (fun () ->
          Some (Runner.replay_streamed ~config:(replay_config c) ~io:c.c_io ~dir:c.c_dir instr))
    with Log.Corrupt _ -> (None, 0., 0.)
  in
  (match full with
  | Some full ->
      check_same (c.c_name ^ ": streamed replay matches recording") sr.sr_outcome full.st_outcome;
      check (c.c_name ^ ": no claim drift") (full.st_outcome.o_claim_mismatches = []);
      c.c_digests <- full.st_digests
  | None -> check (c.c_name ^ ": segmented log decodes") false);
  (sr, dt, dt_rep)

(** What the traced run adds per cell: the record run with and without
    phase attribution, and the layers of record and replay called one by one
    (engine, encode, compress, decode, engine) so their sum can be set
    against the end-to-end calls. *)
let trace_cell (c : cell) instr ~ticks =
  let _, dt, _ = timed (fun () -> Runner.record ~config:c.c_config ~io:c.c_io instr) in
  add "trace.untraced_record_s" dt;
  let ph = Interp.Phases.create ~now () in
  let rc, dt, _ = timed (fun () -> Runner.record ~config:c.c_config ~io:c.c_io ~phases:ph instr) in
  add "trace.record_s" dt;
  check (c.c_name ^ ": phase attribution leaves ticks unchanged") (rc.rc_outcome.o_ticks = ticks);
  add "record.interp_s" (Interp.Phases.interp_s ph);
  add "record.recorder_s" (Interp.Phases.recorder_s ph);
  add "record.scheduler_s" (Interp.Phases.scheduler_s ph);
  add "record.weaklock_s" (Interp.Phases.weaklock_s ph);
  let recorded, dt, mb =
    timed (fun () -> Engine.run ~config:c.c_config ~mode:Engine.Record ~io:c.c_io instr)
  in
  add "interp.record_s" dt;
  add "interp.record.alloc_mb" mb;
  let log = (Option.get recorded.o_recorder).log in
  let (input, order), dt, mb =
    timed (fun () ->
        let input = Log.encode_input_log log in
        (input, Log.encode_order_log log))
  in
  add "replay.encode_s" dt;
  add "replay.encode.alloc_mb" mb;
  let _, dt, mb =
    timed (fun () -> Zcompress.compressed_size input + Zcompress.compressed_size order)
  in
  add "zcompress.s" dt;
  add "zcompress.alloc_mb" mb;
  let decoded, dt, mb = timed (fun () -> Log.decode input order) in
  add "replay.decode_s" dt;
  add "replay.decode.alloc_mb" mb;
  let replayed, dt, mb =
    timed (fun () ->
        Engine.run ~config:(replay_config c) ~mode:(Engine.Replay decoded) ~io:c.c_io instr)
  in
  add "interp.replay_s" dt;
  add "interp.replay.alloc_mb" mb;
  check_same (c.c_name ^ ": layer-by-layer replay matches recording") recorded replayed

(** Record the golden-counter cell of [p] (seed 1, inputs 42, 4 cores,
    default strategy) and pin its ticks to the tier-1 snapshot. *)
let check_golden ~golden (p : prog) =
  let name = p.p_bench.b_name in
  let config = { Engine.default_config with seed = 1; cores = 4 } in
  let io = p.p_bench.b_io ~seed:42 ~scale:p.p_scale in
  let rc = untimed (fun () -> Runner.record ~config ~io (Option.get p.p_instr)) in
  match List.assoc_opt name golden with
  | Some ticks -> check (name ^ ": golden record ticks") (rc.rc_outcome.o_ticks = ticks)
  | None -> check (name ^ ": has a golden row") false

let run_pass ~spec ~cache ~first ~traced ~damage ~golden (progs, cells, windows) =
  List.iter (analyze_prog ~spec ~cache ~first ~traced) progs;
  if first && spec.w_golden then List.iter (check_golden ~golden) progs;
  List.iter
    (fun (c : cell) ->
      let instr = Option.get c.c_prog.p_instr in
      let ticks =
        if spec.w_segmented then begin
          let sr, record_s, replay_s = record_segmented ~spec ~damage c instr in
          add "record_s" record_s;
          add "replay_s" replay_s;
          add "log_z_bytes" (float_of_int sr.sr_stats.ws_total_z);
          add "replay.raw_bytes" (float_of_int sr.sr_stats.ws_total_raw);
          add_overhead c sr.sr_outcome;
          add_counters sr.sr_outcome;
          sr.sr_outcome.o_ticks
        end
        else begin
          let rc, record_s, _ =
            timed (fun () -> Runner.record ~config:c.c_config ~io:c.c_io instr)
          in
          add "record_s" record_s;
          add "log_z_bytes" (float_of_int (rc.rc_input_log_z + rc.rc_order_log_z));
          add "replay.raw_bytes" (float_of_int (rc.rc_input_log_raw + rc.rc_order_log_raw));
          add_overhead c rc.rc_outcome;
          add_counters rc.rc_outcome;
          let recorded = rc.rc_outcome in
          let input = Log.encode_input_log rc.rc_log in
          let order = Log.encode_order_log rc.rc_log in
          let input = if damage then flip_byte input else input in
          let replayed, replay_s, _ =
            timed (fun () ->
                match Log.decode input order with
                | log -> Some (Runner.replay ~config:(replay_config c) ~io:c.c_io instr log)
                | exception Log.Corrupt _ -> None)
          in
          add "replay_s" replay_s;
          (match replayed with
          | Some o ->
              check_same (c.c_name ^ ": replay matches recording") recorded o;
              check (c.c_name ^ ": no claim drift") (o.o_claim_mismatches = [])
          | None -> check (c.c_name ^ ": recorded log decodes") false);
          recorded.o_ticks
        end
      in
      if traced then trace_cell c instr ~ticks)
    cells;
  List.iter
    (fun (c : cell) ->
      let p = c.c_prog in
      if Option.is_none p.p_instr then
        (* a window-only program: analyzed once, untimed, in the warm-up *)
        p.p_instr <-
          Some
            (untimed (fun () ->
                 Pipeline.analyze ~profile_runs:spec.w_profile_runs ~profile_io:(profile_io p)
                   p.p_parsed))
              .an_instrumented;
      let instr = Option.get p.p_instr in
      if first && not spec.w_segmented then begin
        (* the segmented recording the windowed replays read *)
        let rc = untimed (fun () -> Runner.record ~config:c.c_config ~io:c.c_io instr) in
        let sr, _, _ = untimed (fun () -> record_segmented ~spec ~damage:false c instr) in
        check_same (c.c_name ^ ": spilling recorder records the same execution")
          rc.rc_outcome sr.sr_outcome
      end;
      window_replay ~traced c instr)
    windows;
  add "record_overhead_x" (exp (get "overhead.log_sum" /. get "overhead.cells"));
  if traced then begin
    let layers = get "interp.record_s" +. get "replay.encode_s" +. get "zcompress.s" in
    add "record.total_s" (get "record_s");
    add "record.layers_s" layers;
    add "record.residual_s" (get "record_s" -. layers);
    let layers = get "replay.decode_s" +. get "interp.replay_s" in
    add "replay.total_s" (get "replay_s");
    add "replay.layers_s" layers;
    add "replay.residual_s" (get "replay_s" -. layers);
    add "trace.phases_overhead_x" (get "trace.record_s" /. get "trace.untraced_record_s");
    add "ancache.hit_ratio" (get "ancache.hits" /. get "ancache.finds");
    let served = get "runtime.handoff_served" and expired = get "runtime.handoff_expired" in
    add "runtime.handoff_ratio"
      (if served +. expired > 0. then served /. (served +. expired) else 0.)
  end

(* ------------------------------------------------------------------ *)
(* Known defects (README.md): the workloads avoid them, so the self-test
   replays their reproducers and reports whether they still reproduce *)

let known_defects ~tmp =
  let probe ~what ~strategy ~seed =
    let name = "fft" and scale = 6 and workers = 16 in
    let b = Reg.by_name name in
    let parsed = Minic.Parser.parse ~file:name (b.b_source ~workers ~scale) in
    let profile_io i = b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale in
    let instr = (Pipeline.analyze ~profile_runs:base.w_profile_runs ~profile_io parsed).an_instrumented in
    let config = { Engine.default_config with seed; cores = 4; strategy; weak_timeout = 640 } in
    let io = b.b_io ~seed:(1000 + seed) ~scale in
    let dir = Filename.concat tmp (Fmt.str "defect-%d" seed) in
    let sr =
      Runner.record_segmented ~config ~io ~dir ~events_per_segment ~checkpoint_every:1 instr
    in
    let status =
      match
        Runner.replay_streamed ~config:{ config with seed = seed + 7919 } ~io ~dir instr
      with
      | st -> (
          match
            (Runner.same_execution sr.sr_outcome st.st_outcome, st.st_outcome.o_claim_mismatches)
          with
          | Ok (), [] -> "no longer reproduces"
          | Ok (), ms -> Fmt.str "reproduces: %d claim mismatches" (List.length ms)
          | Error d, _ -> Fmt.str "reproduces: %a" Runner.pp_divergence d)
      | exception Log.Corrupt msg -> "reproduces: " ^ msg
    in
    Fmt.pr "known defect: %s (%s, %d workers, scale %d, %s, seed %d, %d segments): %s@." what name
      workers scale (Engine.strategy_name strategy) seed
      (Array.length sr.sr_manifest.mf_segments)
      status
  in
  probe ~what:"streamed replay diverges" ~strategy:Engine.Sstorm ~seed:12;
  probe ~what:"streamed replay reports claim drift" ~strategy:Engine.Sdefault ~seed:535462380

(* ------------------------------------------------------------------ *)
(* Driver *)

let end_to_end =
  [
    ("setup_s", "s"); ("analyze_s", "s"); ("analyze_warm_s", "s"); ("record_s", "s");
    ("replay_s", "s"); ("window_replay_s", "s"); ("record_overhead_x", "x");
    ("log_z_bytes", "bytes"); ("peak_heap_mb", "MB"); ("pass_rate", "ratio");
  ]

let per_layer =
  [
    ("pointer.s", "s"); ("relay.s", "s"); ("mhp.s", "s"); ("profiling.s", "s");
    ("instrument.plan_s", "s"); ("lockopt.s", "s"); ("analyze.alloc_mb", "MB");
    ("minic.parse_s", "s"); ("minic.parse.alloc_mb", "MB"); ("ancache.key_s", "s");
    ("ancache.key.alloc_mb", "MB"); ("ancache.find_s", "s"); ("ancache.find.alloc_mb", "MB");
    ("ancache.hit_ratio", "ratio"); ("interp.record_s", "s"); ("interp.record.alloc_mb", "MB");
    ("replay.encode_s", "s"); ("replay.encode.alloc_mb", "MB"); ("zcompress.s", "s");
    ("zcompress.alloc_mb", "MB"); ("replay.decode_s", "s"); ("replay.decode.alloc_mb", "MB");
    ("interp.replay_s", "s"); ("interp.replay.alloc_mb", "MB"); ("replay.raw_bytes", "bytes");
    ("record.total_s", "s"); ("record.layers_s", "s"); ("record.residual_s", "s");
    ("replay.total_s", "s"); ("replay.layers_s", "s"); ("replay.residual_s", "s");
    ("record.interp_s", "s"); ("record.recorder_s", "s"); ("record.scheduler_s", "s");
    ("record.weaklock_s", "s"); ("trace.record_s", "s"); ("trace.phases_overhead_x", "x");
    ("runtime.weak_acq", "count"); ("runtime.forced", "count");
    ("runtime.weak_block_ticks", "ticks"); ("runtime.handoff_served", "count");
    ("runtime.handoff_expired", "count"); ("runtime.handoff_ratio", "ratio");
    ("replay.seglog.segments", "count"); ("replay.seglog.peak_raw_bytes", "bytes");
    ("replay.seglog.snapshot_bytes", "bytes"); ("replay.seglog.load_s", "s");
    ("replay.seglog.load.alloc_mb", "MB"); ("replay.seglog.window_segments", "count");
    ("host.ref_s", "s");
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload analyze|record-logheavy|server-sustained|storm-contended \
     --seed N --seconds S --trace 0|1 [--damage]\n       bench.exe --known-defects";
  exit 2

(** A fresh scratch directory under .bench_tmp/, removed on exit. *)
let make_tmp name =
  let tmp = Fmt.str ".bench_tmp/%s-%d" name (Unix.getpid ()) in
  rm_rf tmp;
  (try Unix.mkdir ".bench_tmp" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir tmp 0o755;
  at_exit (fun () ->
      rm_rf tmp;
      try Sys.rmdir ".bench_tmp" with Sys_error _ -> ());
  tmp

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and traced = ref false in
  let damage = ref false and defects = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> traced := v = "1"; parse rest
    | "--damage" :: rest -> damage := true; parse rest
    | "--known-defects" :: rest -> defects := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !defects then begin
    known_defects ~tmp:(make_tmp "defects");
    exit 0
  end;
  let spec = match spec_of_name !workload with Some s -> s | None -> usage () in
  let golden = golden_ticks () in
  let tmp = make_tmp !workload in
  let cache = Ancache.create ~dir:(Filename.concat tmp "cache") () in
  (* set-up is repeated and reported as its median, like every timing *)
  let ctx = ref None in
  for _ = 1 to 3 do
    ctx := None;
    sample_reference ();
    sample_reference ();
    Gc.compact ();
    let t0 = now () in
    ctx := Some (setup ~spec ~seed:!seed ~tmp);
    add "setup_s" (now () -. t0);
    sample_reference ();
    close_pass ()
  done;
  let ctx = Option.get !ctx in
  let one_pass ~first =
    run_pass ~spec ~cache ~first ~traced:!traced ~damage:!damage ~golden ctx
  in
  (* warm-up: fills the analysis cache and writes the segment logs the
     windowed replays read; its figures are discarded *)
  one_pass ~first:true;
  Hashtbl.reset pass;
  ref_samples := [];
  let t0 = now () and n = ref 0 in
  while !n < 3 || now () -. t0 < !seconds do
    one_pass ~first:false;
    close_pass ();
    incr n;
    Fmt.epr "perfbench: %s pass %d: analyze %.3fs record %.3fs replay %.3fs@." !workload !n
      (List.hd (Hashtbl.find samples "analyze_s"))
      (List.hd (Hashtbl.find samples "record_s"))
      (List.hd (Hashtbl.find samples "replay_s"))
  done;
  let heap_mb = mb_of_words (float_of_int (Gc.quick_stat ()).top_heap_words) in
  let value name =
    match name with
    | "peak_heap_mb" -> heap_mb
    | "pass_rate" -> float_of_int (!attempted - !failed) /. float_of_int !attempted
    | _ -> reported name
  in
  let metrics = if !traced then per_layer else end_to_end in
  let body =
    List.map
      (fun (name, unit) -> Fmt.str {|"%s": {"value": %.17g, "unit": "%s"}|} name (value name) unit)
      metrics
  in
  Fmt.pr {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}@.|} (!failed = 0)
    !attempted !failed (String.concat ", " body);
  exit (if !failed = 0 then 0 else 1)
