(** Off-line profiling (Section 4 of the paper).

    Chimera runs the program over a set of representative inputs and
    observes:

    - which {e function pairs ever execute concurrently}: a pair (f, g)
      is concurrent if an invocation of f in one thread overlaps in time
      with an invocation of g in another (either function may be anywhere
      on its thread's call stack). Racy function pairs never observed
      concurrent become candidates for coarse function-locks;
    - the {e average instructions per iteration} of each loop, used by
      the instrumenter to decide whether an imprecisely-bounded racy loop
      is cheap enough to serialize whole (Section 5.3's
      loop-body-threshold).

    Profiles from multiple runs aggregate by union / weighted mean. *)

module Pairset = Set.Make (struct
  type t = string * string
  let compare = compare
end)

type t = {
  mutable concurrent_pairs : Pairset.t;
  loop_iters : (int, int ref) Hashtbl.t;  (** lid -> total iterations *)
  loop_insns : (int, int ref) Hashtbl.t;
      (** lid -> total statements executed. Counters are refs so the
          per-statement hot path increments in place instead of paying a
          lookup + reinsert per event. *)
  mutable runs : int;
}

let create () =
  {
    concurrent_pairs = Pairset.empty;
    loop_iters = Hashtbl.create 32;
    loop_insns = Hashtbl.create 32;
    runs = 0;
  }

(* one entry of a thread's dynamic loop stack. It caches its loop's
   statement and iteration counters once resolved: lazily, on the first
   statement (iteration) of that loop entry, so a loop that iterates
   without executing a statement still leaves no [loop_insns] entry. *)
type loop_slot = {
  s_lid : int;
  mutable s_ctr : int ref option;
  mutable s_iters : int ref option;
}

(* a thread's call stack (a multiset: recursion-safe) and loop stack *)
type tstate = { mutable calls : string list; mutable loops : loop_slot list }

let norm_pair f g = if f <= g then (f, g) else (g, f)

let concurrent (t : t) f g = Pairset.mem (norm_pair f g) t.concurrent_pairs

let counter (tbl : (int, int ref) Hashtbl.t) (k : int) : int ref =
  match Hashtbl.find_opt tbl k with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace tbl k r;
      r

(** Average executed statements per iteration of loop [lid]; [None] if the
    loop never ran in any profile run. *)
let avg_loop_body (t : t) (lid : int) : float option =
  match (Hashtbl.find_opt t.loop_insns lid, Hashtbl.find_opt t.loop_iters lid) with
  | Some insns, Some iters when !iters > 0 ->
      Some (float_of_int !insns /. float_of_int !iters)
  | _ -> None

(** Instrument [hooks] so that one engine run feeds this profile. Returns
    the hooks for convenience. *)
let attach (t : t) (hooks : Interp.Engine.hooks) : Interp.Engine.hooks =
  let states : (int, tstate) Hashtbl.t = Hashtbl.create 16 in
  (* Per-thread state behind a direct-mapped cache of 16 slots keyed by
     tid. The cores interleave their threads tick by tick, so the last
     thread queried is rarely the next one; the cache makes the
     per-statement and per-iteration paths an int compare and a load. *)
  let cache_tid = Array.make 16 min_int in
  let cache_st = Array.make 16 { calls = []; loops = [] } in
  let state tid =
    let i = tid land 15 in
    if Array.unsafe_get cache_tid i = tid then Array.unsafe_get cache_st i
    else begin
      let st =
        match Hashtbl.find_opt states tid with
        | Some st -> st
        | None ->
            let st = { calls = []; loops = [] } in
            Hashtbl.replace states tid st;
            st
      in
      cache_tid.(i) <- tid;
      cache_st.(i) <- st;
      st
    end
  in
  hooks.on_enter_fun <-
    Some
      (fun tid f ->
        (* every function live on any *other* thread's stack overlaps the
           new invocation of f *)
        Hashtbl.iter
          (fun tid' st ->
            if tid' <> tid then
              List.iter
                (fun g ->
                  t.concurrent_pairs <-
                    Pairset.add (norm_pair f g) t.concurrent_pairs)
                (List.sort_uniq compare st.calls))
          states;
        let st = state tid in
        st.calls <- f :: st.calls);
  hooks.on_exit_fun <-
    Some
      (fun tid _f ->
        let st = state tid in
        match st.calls with [] -> () | _ :: rest -> st.calls <- rest);
  hooks.on_loop_enter <-
    Some
      (fun tid lid ->
        let st = state tid in
        st.loops <- { s_lid = lid; s_ctr = None; s_iters = None } :: st.loops);
  hooks.on_loop_exit <-
    Some
      (fun tid _lid ->
        let st = state tid in
        match st.loops with [] -> () | _ :: rest -> st.loops <- rest);
  hooks.on_loop_iter <-
    Some
      (fun tid lid ->
        match (state tid).loops with
        | slot :: _ when slot.s_lid = lid -> (
            match slot.s_iters with
            | Some r -> incr r
            | None ->
                let r = counter t.loop_iters lid in
                slot.s_iters <- Some r;
                incr r)
        | _ -> incr (counter t.loop_iters lid));
  hooks.on_stmt <-
    Some
      (fun tid _sid ->
        match (state tid).loops with
        | slot :: _ -> (
            match slot.s_ctr with
            | Some r -> incr r
            | None ->
                let r = counter t.loop_insns slot.s_lid in
                slot.s_ctr <- Some r;
                incr r)
        | [] -> ());
  hooks

(** Profile [prog] once under the given seed/io. *)
let profile_run ?(config = Interp.Engine.default_config) ~io (t : t)
    (prog : Minic.Ast.program) : Interp.Engine.outcome =
  let hooks = attach t (Interp.Engine.no_hooks ()) in
  t.runs <- t.runs + 1;
  Interp.Engine.run ~config ~hooks ~mode:Interp.Engine.Native ~io prog

(** Merge [src] into [dst]: union of concurrent pairs, summed loop
    counters, summed run counts. Merging per-run profiles in any order
    yields the same profile as accumulating the runs serially into one
    [t] — unions and sums are commutative — which is what makes parallel
    profiling observationally identical to serial. *)
let merge ~(into : t) (src : t) : unit =
  into.concurrent_pairs <- Pairset.union into.concurrent_pairs src.concurrent_pairs;
  let add_into tbl k v =
    let r = counter tbl k in
    r := !r + !v
  in
  Hashtbl.iter (add_into into.loop_iters) src.loop_iters;
  Hashtbl.iter (add_into into.loop_insns) src.loop_insns;
  into.runs <- into.runs + src.runs

(** Confirming runs the stop rule needs: profiling stops after run [i]
    once [view] of the merged profile is the same after runs
    [i - stable_runs] through [i]. *)
let stable_runs = 2

(** Profile over at most [runs] seeds (the paper uses 20 runs with
    varied inputs; inputs vary through the io-model seed here). Without
    [view], exactly [runs] runs. With [view], profiling stops early once
    [view] of the merged profile has not changed for {!stable_runs}
    consecutive runs; [view] must return a canonical value, compared
    with structural equality.

    With [pool], runs execute in rounds of [Pool.size] — each into its
    own fresh profile — and merge in run order up to the stop point; the
    rest of the last round is discarded. The result, [runs] included, is
    the serial one. *)
let profile_many ?(config = Interp.Engine.default_config) ?(pool : Par.Pool.t option)
    ?view ~(io_of : int -> Interp.Iomodel.t) ?(runs = 20)
    (prog : Minic.Ast.program) : t =
  let run_one i =
    let t = create () in
    let config =
      { config with Interp.Engine.seed = config.Interp.Engine.seed + (i * 7919) }
    in
    ignore (profile_run ~config ~io:(io_of i) t prog);
    t
  in
  let width = Option.fold ~none:1 ~some:Par.Pool.size pool in
  let acc = create () in
  (* [last]: the view after the previous merge; [same]: how many
     consecutive merges left it unchanged *)
  let last = ref None and same = ref 0 in
  let stable () =
    match view with
    | None -> false
    | Some view ->
        let v = view acc in
        if !last = Some v then incr same else same := 0;
        last := Some v;
        !same >= stable_runs
  in
  let rec round first =
    if first <= runs then begin
      let batch = List.init (min width (runs - first + 1)) (fun k -> first + k) in
      let rec absorb = function
        | [] -> round (first + width)
        | t :: rest ->
            merge ~into:acc t;
            if not (stable ()) then absorb rest
      in
      absorb (Par.Pool.map_opt pool run_one batch)
    end
  in
  round 1;
  acc

let n_concurrent_pairs t = Pairset.cardinal t.concurrent_pairs

let pp ~cap ppf (t : t) =
  Fmt.pf ppf "profile: %d of at most %d runs, %d concurrent pairs" t.runs cap
    (Pairset.cardinal t.concurrent_pairs)
