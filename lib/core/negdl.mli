(** Negation by fixpoint — the public API.

    An executable reproduction of Kolaitis & Papadimitriou, "Why Not
    Negation by Fixpoint?" (PODS 1988 / JCSS 43, 1991): a DATALOG-not
    engine with the paper's full semantics zoo (least fixpoint, inflationary,
    stratified, well-founded), a fixpoint searcher implementing the
    Section 3 decision problems on top of a built-in CDCL SAT solver, and
    the paper's reductions as program generators.

    This module re-exports the underlying libraries under one namespace and
    adds the high-level entry points most callers want.  The components:

    - {!Symbol}, {!Tuple}, {!Relation}, {!Schema}, {!Database}: finite
      relational structures;
    - {!Ast}, {!Parser}, {!Pretty}, {!Dsl}, {!Check}, {!Depgraph},
      {!Stratify}: the DATALOG-not language;
    - {!Idb}, {!Theta}, {!Naive}, {!Inflationary}, {!Stratified},
      {!Wellfounded}, {!Ground}, {!Saturate}, {!Engine}: evaluation;
    - {!Fixpoints} (= [Fixpointlib.Solve]), {!Fixpoints_brute}: the
      fixpoint query suite;
    - {!Sat_db}, {!Fagin}, {!Coloring3}, {!Succinct3col}, {!Distance},
      {!Prop1}, {!Toggle}: the paper's constructions;
    - {!Fo}, {!Nnf}, {!Eso}, {!Ifp}: the logic side;
    - {!Digraph}, {!Generate}, {!Traverse}, {!Scc}, {!Graph_coloring},
      {!Hamilton}: graphs;
    - {!Cnf}, {!Sat_solver}, {!Sat_brute}, {!Sat_enumerate}, {!Dimacs},
      {!Sat_workload}: propositional logic;
    - {!Circuit}, {!Circuit_build}, {!Tseitin}, {!Succinct}: circuits. *)

(** {1 Relational substrate} *)

module Symbol = Relalg.Symbol
module Tuple = Relalg.Tuple
module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Database = Relalg.Database

(** {1 Language} *)

module Ast = Datalog.Ast
module Parser = Datalog.Parser
module Pretty = Datalog.Pretty
module Dsl = Datalog.Dsl
module Check = Datalog.Check
module Depgraph = Datalog.Depgraph
module Stratify = Datalog.Stratify
module Magic = Datalog.Magic
module Transform = Datalog.Transform

(** {1 Evaluation} *)

module Idb = Evallib.Idb
module Engine = Evallib.Engine
module Theta = Evallib.Theta
module Saturate = Evallib.Saturate
module Naive = Evallib.Naive
module Inflationary = Evallib.Inflationary
module Stratified = Evallib.Stratified
module Wellfounded = Evallib.Wellfounded
module Fitting = Evallib.Fitting
module Unfounded = Evallib.Unfounded
module Ground = Evallib.Ground
module Query = Evallib.Query
module Provenance = Evallib.Provenance
module Dred = Evallib.Dred
module Serve = Evallib.Serve
module Equiv = Evallib.Equiv

(** {1 Fixpoint queries} *)

module Fixpoints = Fixpointlib.Solve
module Fixpoints_brute = Fixpointlib.Brute
module Fixpoint_encode = Fixpointlib.Encode
module Stable = Fixpointlib.Stable

(** {1 The paper's constructions} *)

module Sat_db = Reductions.Sat_db
module Fagin = Reductions.Fagin
module Coloring3 = Reductions.Coloring
module Succinct3col = Reductions.Succinct3col
module Distance = Reductions.Distance
module Prop1 = Reductions.Prop1
module Toggle = Reductions.Toggle
module Fixpoint_formula = Reductions.Fixpoint_formula
module Expressiveness = Reductions.Expressiveness
module Classics = Reductions.Classics

(** {1 Logic} *)

module Fo = Folog.Fo
module Nnf = Folog.Nnf
module Eso = Folog.Eso
module Ifp = Folog.Ifp

(** {1 Graphs} *)

module Digraph = Graphlib.Digraph
module Generate = Graphlib.Generate
module Traverse = Graphlib.Traverse
module Scc = Graphlib.Scc
module Graph_coloring = Graphlib.Coloring
module Hamilton = Graphlib.Hamilton
module Kernel = Graphlib.Kernel

(** {1 Propositional logic} *)

module Cnf = Satlib.Cnf
module Sat_solver = Satlib.Solver
module Sat_brute = Satlib.Brute
module Sat_enumerate = Satlib.Enumerate
module Dimacs = Satlib.Dimacs
module Sat_workload = Satlib.Workload
module Sat_count = Satlib.Count
module Sat_outcome = Satlib.Outcome
module Sat_stats = Satlib.Sat_stats

(** {1 Circuits} *)

module Circuit = Circuitlib.Circuit
module Circuit_build = Circuitlib.Build
module Tseitin = Circuitlib.Tseitin
module Succinct = Circuitlib.Succinct

(** {1 Utilities} *)

module Plan = Planlib.Plan
module Plan_cache = Planlib.Cache
module Snapshot = Snapshotlib.Snapshot
module Prng = Negdl_util.Prng
module Stats = Evallib.Stats

(** {1 High-level entry points} *)

type semantics =
  | Semantics_inflationary
      (** Section 4's proposal: total, PTIME, default. *)
  | Semantics_stratified  (** Chandra-Harel; partial. *)
  | Semantics_well_founded
      (** Three-valued; the result reports the true facts and, when the
          model is partial, the unknown ones as a second valuation. *)
  | Semantics_kripke_kleene
      (** Fitting's three-valued least fixpoint; at most as decided as the
          well-founded model. *)
  | Semantics_least_fixpoint
      (** Positive DATALOG only. *)

val semantics_of_string : string -> (semantics, string) result
(** Accepts "inflationary", "stratified", "well-founded" / "wellfounded",
    "kripke-kleene" / "kk" / "fitting", "least" / "lfp". *)

val semantics_to_string : semantics -> string

type run_result = {
  facts : Idb.t;  (** The derived relations (true facts). *)
  unknown : Idb.t option;
      (** Under the well-founded semantics, the undetermined facts (when
          any); [None] for the two-valued semantics. *)
}

val run :
  ?engine:[ `Seminaive ] ->
  ?planner:Plan.planner ->
  ?plan_cache:Plan_cache.t ->
  ?indexing:Engine.indexing ->
  ?storage:Relation.storage ->
  ?stats:Stats.t ->
  semantics ->
  Ast.program ->
  Database.t ->
  (run_result, string) result
(** Evaluates a program under the chosen semantics; errors are returned as
    human-readable strings (not stratifiable, negation under least-fixpoint
    semantics, inconsistent arities, a database that disagrees with the
    program on an EDB predicate's arity ({!Check.validate_database}),
    ...).  Programs with limit
    declarations are only defined under [Semantics_stratified] (the
    tighten-union fixpoint); every other semantics returns an error for
    them.  Evaluation is semi-naive and sequential ({!Saturate}).
    [engine], [indexing] and [storage] are ignored (they remain for the
    same reason as {!Relation.storage}: the frozen [bench/e2e] harness
    still passes them), and so is [planner] (see {!Plan.planner});
    [plan_cache], when given, retains the compiled plans — the CLI's
    [--explain] prints them back with estimated and actual cardinalities;
    [stats], when given, accumulates evaluation counters and stage timings
    (the Kripke-Kleene semantics only records plan counters through its
    grounding). *)

type fixpoint_report = {
  ground_atoms : int;
  ground_rules : int;
  has_fixpoint : bool;
      (** Meaningful only when [existence_unknown] is [None]. *)
  existence_unknown : Satlib.Outcome.reason option;
      (** [Some r] when the existence SAT search ran out of its budget
          before deciding; the census, uniqueness and least-fixpoint
          fields are then skipped. *)
  fixpoint_count : int option;  (** Counted up to [count_limit]. *)
  exact_count : Satlib.Outcome.count option;
      (** #SAT census (requested via [count_budget]); a [Lower_bound] when
          the node budget ran out, or when the count does not fit in an
          [int] ([Count_overflow], bound [max_int]). *)
  count_limit : int;
  unique : bool;
  least : Idb.t option;
  example : Idb.t option;
}

val analyze_fixpoints :
  ?planner:Plan.planner ->
  ?plan_cache:Plan_cache.t ->
  ?count_limit:int ->
  ?sat_budget:int ->
  ?count_budget:int ->
  Ast.program ->
  Database.t ->
  fixpoint_report
(** Runs the whole Section 3 query suite on (pi, D) via the SAT encoding.
    [count_limit] (default 256) caps the census.  [sat_budget] bounds the
    existence search in CDCL conflicts (unbounded by default); exhaustion
    is reported through [existence_unknown], never raised.  [count_budget]
    additionally runs the exact #SAT census with that node budget and
    fills [exact_count].  [planner] is ignored, as in {!run}.
    @raise Invalid_argument for a program with limit declarations, or a
    database that disagrees with the program on an EDB predicate's arity
    ({!Check.validate_database}). *)

val parse_program : string -> (Ast.program, string) result
(** Alias of {!Parser.parse_program}. *)

val parse_database : string -> (Database.t, string) result
(** Alias of {!Database.parse}. *)

val version : string
