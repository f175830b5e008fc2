(** Granularity selection (paper Sections 2.2, 4, 5.3): turn RELAY race
    pairs plus profile and symbolic-bounds information into a weak-lock
    instrumentation plan — which function / loop / basic-block /
    statement regions exist and which lock acquisitions (with address
    ranges) each performs. *)

open Minic.Ast

type site_info = {
  si_fname : string;
  si_loops : stmt list;  (** enclosing While statements, outermost first *)
  si_run : int;          (** head sid of the enclosing simple-stmt run *)
  si_run_call : bool;    (** the run contains a function call *)
}

type index = {
  ix_sites : (int, site_info) Hashtbl.t;
  ix_loop_stmt : (int, string * stmt list) Hashtbl.t;
}

val build_index : program -> index

type region =
  | RFunc of string
  | RLoop of string * int  (** fname, lid *)
  | RRun of string * int   (** fname, head sid *)
  | RStmt of int

val region_gran : region -> granularity
val pp_region : region Fmt.t

type side_decision = {
  sd_region : region;
  sd_ranges : warange list;  (** loop-lock ranges; empty = total *)
  sd_reason : string;
}

type pair_decision = {
  pd_pair : Relay.Detect.race_pair;
  pd_lock : weak_lock;  (** shared by both sides *)
  pd_s1 : side_decision;
  pd_s2 : side_decision;
}

type t = {
  pl_func : (string, weak_acq list) Hashtbl.t;
  pl_loop : (int, weak_acq list) Hashtbl.t;
  pl_run : (int, weak_acq list) Hashtbl.t;
  pl_stmt : (int, weak_acq list) Hashtbl.t;
  pl_decisions : pair_decision list;
  pl_cliques : Clique.t;
  pl_n_locks : int;
  pl_static_pairs : int;  (** RELAY candidate pairs before MHP pruning *)
  pl_pruned_pairs : int;  (** pairs the MHP pass removed statically *)
}

type options = {
  opt_funcs : bool;  (** profile-guided function-locks (Section 4) *)
  opt_loops : bool;  (** symbolic-bounds loop-locks (Section 5) *)
  opt_bb : bool;     (** basic-block coarsening *)
  opt_masks : bool;  (** extension: model [e & c] as [0, c] (ablation) *)
  loop_body_threshold : float;
}

val all_opts : options
val with_masks : options

(** Figure 5's configurations. *)
val naive : options

val funcs_only : options
val loops_only : options

(** What {!compute} reads of a profile: the sorted concurrent pairs and
    the sorted ids of loops whose average body reaches
    [loop_body_threshold]. Equal views give equal plans; the pipeline
    profiles until the view is stable. *)
type profile_view = (string * string) list * int list

val profile_view : options -> Profiling.Profile.t -> profile_view

val compute :
  ?opts:options -> program -> Relay.Detect.report -> Profiling.Profile.t -> t

(** Total lock acquisitions across all region tables (static count). *)
val n_acquisitions : t -> int

val pp_summary : t Fmt.t
