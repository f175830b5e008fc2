(** A generator of random concurrent MiniC programs, used to fuzz the
    whole Chimera pipeline (test_fuzz.ml).

    Generated programs are well-formed by construction:
    - they terminate: every loop has a constant bound, and barriers are
      balanced (a globally chosen number of phases, identical across all
      worker functions);
    - they never fault: array indices are loop variables bounded by the
      array size or mask expressions [e & (size-1)] over power-of-two
      sizes, and there is no division;
    - each worker has a local array [la] of 8 ints, read and written at
      masked indices, and expressions read [c0], a global initialized
      and never written: threads run ahead through both (DESIGN.md
      §25);
    - locks are block-scoped (lock/unlock always paired);
    - they are aggressively racy: unprotected accesses to shared scalars
      and arrays from several worker threads, mixed with properly locked
      and barrier-phased accesses — exactly the input mix Chimera must
      order. *)

module G = QCheck.Gen

type cfg = {
  n_scalars : int;          (* shared int globals *)
  arrays : int list;        (* power-of-two sizes *)
  n_mutexes : int;
  n_workers : int;          (* worker function count *)
  n_threads : int;          (* spawned threads, round-robin over workers *)
  n_phases : int;           (* barrier-separated phases per worker *)
}

let gen_cfg : cfg G.t =
  let open G in
  let* n_scalars = int_range 1 3 in
  let* n_arrays = int_range 1 2 in
  let* arrays = flatten_l (List.init n_arrays (fun _ -> oneofl [ 8; 16 ])) in
  let* n_mutexes = int_range 1 2 in
  let* n_workers = int_range 1 2 in
  let* n_threads = int_range 2 3 in
  let* n_phases = int_range 1 2 in
  return { n_scalars; arrays; n_mutexes; n_workers; n_threads; n_phases }

(* expression over: locals t0/t1, id, loop vars in scope, shared scalars,
   the never-written global c0, shared and local array reads with safe
   indices *)
let rec gen_expr cfg ~loops ~depth : string G.t =
  let open G in
  let atom =
    oneof
      ([
         map string_of_int (int_range 0 9);
         oneofl [ "t0"; "t1"; "id" ];
         map (fun k -> Fmt.str "g%d" k) (int_range 0 (cfg.n_scalars - 1));
         return "c0";
       ]
      @ (if loops = [] then [] else [ oneofl loops ])
      @ [ gen_array_read cfg ~loops; gen_local_read ~loops ])
  in
  if depth <= 0 then atom
  else
    frequency
      [
        (3, atom);
        ( 2,
          let* a = gen_expr cfg ~loops ~depth:(depth - 1) in
          let* b = gen_expr cfg ~loops ~depth:(depth - 1) in
          let* op = oneofl [ "+"; "-"; "|" ] in
          return (Fmt.str "(%s %s %s)" a op b) );
        ( 1,
          let* a = gen_expr cfg ~loops ~depth:(depth - 1) in
          let* c = int_range 2 5 in
          return (Fmt.str "(%s * %d)" a c) );
      ]

and gen_index cfg ~loops k : string G.t =
  let open G in
  let size = List.nth cfg.arrays k in
  let bounded_loops =
    (* loop vars are generated with bounds <= 8 <= min array size *)
    loops
  in
  oneof
    ([
       map string_of_int (int_range 0 (size - 1));
       map (fun v -> Fmt.str "(%s & %d)" v (size - 1)) (oneofl [ "t0"; "t1"; "id" ]);
     ]
    @ if bounded_loops = [] then [] else [ oneofl bounded_loops ])

(* a masked index into the worker's local array [la] *)
and gen_local_index ~loops : string G.t =
  G.map (fun v -> Fmt.str "(%s & 7)" v) (G.oneofl ([ "t0"; "t1"; "id" ] @ loops))

and gen_local_read ~loops : string G.t =
  G.map (fun idx -> Fmt.str "la[%s]" idx) (gen_local_index ~loops)

and gen_array_read cfg ~loops : string G.t =
  let open G in
  let* k = int_range 0 (List.length cfg.arrays - 1) in
  let* idx = gen_index cfg ~loops k in
  return (Fmt.str "a%d[%s]" k idx)

(* statements; [loops] = loop variables in scope, [depth] bounds nesting;
   [in_lock] forbids further lock statements — nested locks in random
   order would let the *generated program* deadlock by lock-order
   inversion, which is not the property under test *)
let rec gen_stmts cfg ~loops ~depth ?(in_lock = false) ~n () : string list G.t
    =
  let open G in
  flatten_l (List.init n (fun _ -> gen_stmt cfg ~loops ~depth ~in_lock))

and gen_stmt cfg ~loops ~depth ~in_lock : string G.t =
  let open G in
  let assign_local =
    let* e = gen_expr cfg ~loops ~depth:2 in
    let* t = oneofl [ "t0"; "t1" ] in
    return (Fmt.str "%s = %s;" t e)
  in
  let assign_scalar =
    let* k = int_range 0 (cfg.n_scalars - 1) in
    let* e = gen_expr cfg ~loops ~depth:2 in
    return (Fmt.str "g%d = %s;" k e)
  in
  let assign_array =
    let* k = int_range 0 (List.length cfg.arrays - 1) in
    let* idx = gen_index cfg ~loops k in
    let* e = gen_expr cfg ~loops ~depth:1 in
    return (Fmt.str "a%d[%s] = %s;" k idx e)
  in
  let assign_local_array =
    let* idx = gen_local_index ~loops in
    let* e = gen_expr cfg ~loops ~depth:1 in
    return (Fmt.str "la[%s] = %s;" idx e)
  in
  let locked_block =
    let* m = int_range 0 (cfg.n_mutexes - 1) in
    let* body = gen_stmts cfg ~loops ~depth:0 ~in_lock:true ~n:2 () in
    return
      (Fmt.str "lock(&m%d); %s unlock(&m%d);" m (String.concat " " body) m)
  in
  let for_loop =
    let v = Fmt.str "i%d" (List.length loops) in
    let* bound = int_range 2 8 in
    let* n = int_range 1 3 in
    let* body =
      gen_stmts cfg ~loops:(v :: loops) ~depth:(depth - 1) ~in_lock ~n ()
    in
    return
      (Fmt.str "for (%s = 0; %s < %d; %s++) { %s }" v v bound v
         (String.concat " " body))
  in
  let if_stmt =
    let* c = gen_expr cfg ~loops ~depth:1 in
    let* body = gen_stmts cfg ~loops ~depth:0 ~in_lock ~n:1 () in
    return (Fmt.str "if ((%s & 1) == 1) { %s }" c (String.concat " " body))
  in
  let base =
    [
      (3, assign_local);
      (3, assign_scalar);
      (3, assign_array);
      (2, assign_local_array);
    ]
  in
  let with_lock =
    if in_lock then [] else [ ((if depth <= 0 then 1 else 2), locked_block) ]
  in
  if depth <= 0 then frequency (base @ with_lock)
  else
    frequency
      (base @ with_lock @ [ (2, for_loop); (1, if_stmt) ])

let gen_worker cfg ~name : string G.t =
  let open G in
  let* phases =
    flatten_l
      (List.init cfg.n_phases (fun _ ->
           let* n = int_range 2 4 in
           let* stmts = gen_stmts cfg ~loops:[] ~depth:2 ~n () in
           return (String.concat "\n  " stmts)))
  in
  let body =
    String.concat "\n  barrier_wait(&bar);\n  " phases
  in
  return
    (Fmt.str
       {|void %s(int *idp) {
  int t0; int t1; int id; int i0; int i1; int i2; int la[8];
  id = *idp;
  %s
}|}
       name body)

(** Generate a complete program as source text. *)
let gen_program : string G.t =
  let open G in
  let* cfg = gen_cfg in
  let* c0 = G.int_range 1 9 in
  let* workers =
    flatten_l
      (List.init cfg.n_workers (fun k -> gen_worker cfg ~name:(Fmt.str "w%d" k)))
  in
  let globals =
    String.concat "\n"
      (List.init cfg.n_scalars (fun k -> Fmt.str "int g%d;" k)
      @ [ Fmt.str "int c0 = %d;" c0 ]
      @ List.mapi (fun k size -> Fmt.str "int a%d[%d];" k size) cfg.arrays
      @ List.init cfg.n_mutexes (fun k -> Fmt.str "int m%d;" k)
      @ [ "int bar;"; Fmt.str "int ids[%d];" cfg.n_threads ])
  in
  (* main: init arrays, spawn round-robin, join, output checksums *)
  let init =
    String.concat "\n  "
      (List.mapi
         (fun k size ->
           Fmt.str "for (i0 = 0; i0 < %d; i0++) { a%d[i0] = i0 * %d; }" size k
             (k + 3))
         cfg.arrays)
  in
  let spawns =
    String.concat "\n  "
      (List.init cfg.n_threads (fun k ->
           Fmt.str "ids[%d] = %d; t[%d] = spawn(w%d, &ids[%d]);" k (k + 1) k
             (k mod cfg.n_workers) k))
  in
  let joins =
    String.concat "\n  "
      (List.init cfg.n_threads (fun k -> Fmt.str "join(t[%d]);" k))
  in
  let outputs =
    String.concat "\n  "
      (List.init cfg.n_scalars (fun k -> Fmt.str "output(g%d);" k)
      @ List.mapi
          (fun k size ->
            Fmt.str
              "t0 = 0; for (i0 = 0; i0 < %d; i0++) { t0 = t0 + a%d[i0]; } \
               output(t0);"
              size k)
          cfg.arrays)
  in
  return
    (Fmt.str
       {|%s

%s

int main() {
  int t[%d]; int i0; int t0;
  %s
  barrier_init(&bar, %d);
  %s
  %s
  %s
  return 0;
}|}
       globals
       (String.concat "\n\n" workers)
       cfg.n_threads init cfg.n_threads spawns joins outputs)

let arbitrary_program =
  QCheck.make ~print:(fun s -> s) gen_program

(* ------------------------------------------------------------------ *)
(* Contended shapes for the stress matrix: programs engineered to make
   the instrumented run weak-lock-heavy — every thread hammers the same
   shared scalars through read-modify-writes in tight loops (contended
   claims on one object), sweeps overlapping array ranges (contended
   range claims), and crosses extra barrier phases (cliques where every
   thread re-synchronizes). Long hot loops make lock holders outlast
   weak timeouts, exercising forced-release handoffs — the storm
   strategy then squeezes the timeouts further. *)

let gen_contended_cfg : cfg G.t =
  let open G in
  let* n_scalars = int_range 1 2 in
  let* arrays = flatten_l [ oneofl [ 8; 16 ] ] in
  let* n_workers = int_range 1 2 in
  let* n_threads = int_range 3 4 in
  let* n_phases = int_range 2 3 in
  return { n_scalars; arrays; n_mutexes = 1; n_workers; n_threads; n_phases }

(* one hot block: a tight RMW loop over a shared scalar interleaved with
   an overlapping-range array sweep, from every thread at once *)
let gen_hot_block cfg ~loop_var : string G.t =
  let open G in
  let* k = int_range 0 (cfg.n_scalars - 1) in
  let size = List.hd cfg.arrays in
  let* bound = int_range 6 12 in
  let* stride = oneofl [ 1; 2; 3 ] in
  return
    (Fmt.str
       "for (%s = 0; %s < %d; %s++) { g%d = g%d + a0[(%s * %d) & %d]; \
        a0[(%s + id) & %d] = g%d; }"
       loop_var loop_var bound loop_var k k loop_var stride (size - 1)
       loop_var (size - 1) k)

let gen_contended_worker cfg ~name : string G.t =
  let open G in
  let* phases =
    flatten_l
      (List.init cfg.n_phases (fun _ ->
           let* hot = gen_hot_block cfg ~loop_var:"i1" in
           let* n = int_range 1 2 in
           let* filler = gen_stmts cfg ~loops:[] ~depth:1 ~n () in
           return (String.concat "\n  " (hot :: filler))))
  in
  let body = String.concat "\n  barrier_wait(&bar);\n  " phases in
  return
    (Fmt.str
       {|void %s(int *idp) {
  int t0; int t1; int id; int i0; int i1; int i2; int la[8];
  id = *idp;
  %s
}|}
       name body)

(** A complete contended program: the stress-matrix input mix. *)
let gen_contended_program : string G.t =
  let open G in
  let* cfg = gen_contended_cfg in
  let* c0 = G.int_range 1 9 in
  let* workers =
    flatten_l
      (List.init cfg.n_workers (fun k ->
           gen_contended_worker cfg ~name:(Fmt.str "w%d" k)))
  in
  let globals =
    String.concat "\n"
      (List.init cfg.n_scalars (fun k -> Fmt.str "int g%d;" k)
      @ [ Fmt.str "int c0 = %d;" c0 ]
      @ List.mapi (fun k size -> Fmt.str "int a%d[%d];" k size) cfg.arrays
      @ List.init cfg.n_mutexes (fun k -> Fmt.str "int m%d;" k)
      @ [ "int bar;"; Fmt.str "int ids[%d];" cfg.n_threads ])
  in
  let init =
    String.concat "\n  "
      (List.mapi
         (fun k size ->
           Fmt.str "for (i0 = 0; i0 < %d; i0++) { a%d[i0] = i0 * %d; }" size k
             (k + 3))
         cfg.arrays)
  in
  let spawns =
    String.concat "\n  "
      (List.init cfg.n_threads (fun k ->
           Fmt.str "ids[%d] = %d; t[%d] = spawn(w%d, &ids[%d]);" k (k + 1) k
             (k mod cfg.n_workers) k))
  in
  let joins =
    String.concat "\n  "
      (List.init cfg.n_threads (fun k -> Fmt.str "join(t[%d]);" k))
  in
  let outputs =
    String.concat "\n  "
      (List.init cfg.n_scalars (fun k -> Fmt.str "output(g%d);" k)
      @ List.mapi
          (fun k size ->
            Fmt.str
              "t0 = 0; for (i0 = 0; i0 < %d; i0++) { t0 = t0 + a%d[i0]; } \
               output(t0);"
              size k)
          cfg.arrays)
  in
  return
    (Fmt.str
       {|%s

%s

int main() {
  int t[%d]; int i0; int t0;
  %s
  barrier_init(&bar, %d);
  %s
  %s
  %s
  return 0;
}|}
       globals
       (String.concat "\n\n" workers)
       cfg.n_threads init cfg.n_threads spawns joins outputs)

let arbitrary_contended =
  QCheck.make ~print:(fun s -> s) gen_contended_program
