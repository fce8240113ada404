module Symbol = Relalg.Symbol
module Tuple = Relalg.Tuple
module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Database = Relalg.Database
module Ast = Datalog.Ast
module Parser = Datalog.Parser
module Pretty = Datalog.Pretty
module Dsl = Datalog.Dsl
module Check = Datalog.Check
module Depgraph = Datalog.Depgraph
module Stratify = Datalog.Stratify
module Magic = Datalog.Magic
module Transform = Datalog.Transform
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
module Fixpoints = Fixpointlib.Solve
module Fixpoints_brute = Fixpointlib.Brute
module Fixpoint_encode = Fixpointlib.Encode
module Stable = Fixpointlib.Stable
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
module Fo = Folog.Fo
module Nnf = Folog.Nnf
module Eso = Folog.Eso
module Ifp = Folog.Ifp
module Digraph = Graphlib.Digraph
module Generate = Graphlib.Generate
module Traverse = Graphlib.Traverse
module Scc = Graphlib.Scc
module Graph_coloring = Graphlib.Coloring
module Hamilton = Graphlib.Hamilton
module Kernel = Graphlib.Kernel
module Cnf = Satlib.Cnf
module Sat_solver = Satlib.Solver
module Sat_brute = Satlib.Brute
module Sat_enumerate = Satlib.Enumerate
module Dimacs = Satlib.Dimacs
module Sat_workload = Satlib.Workload
module Sat_count = Satlib.Count
module Sat_outcome = Satlib.Outcome
module Sat_stats = Satlib.Sat_stats
module Circuit = Circuitlib.Circuit
module Circuit_build = Circuitlib.Build
module Tseitin = Circuitlib.Tseitin
module Succinct = Circuitlib.Succinct
module Plan = Planlib.Plan
module Plan_cache = Planlib.Cache
module Snapshot = Snapshotlib.Snapshot
module Prng = Negdl_util.Prng
module Stats = Evallib.Stats

type semantics =
  | Semantics_inflationary
  | Semantics_stratified
  | Semantics_well_founded
  | Semantics_kripke_kleene
  | Semantics_least_fixpoint

let semantics_of_string s =
  match String.lowercase_ascii s with
  | "inflationary" | "ifp" -> Ok Semantics_inflationary
  | "stratified" -> Ok Semantics_stratified
  | "well-founded" | "wellfounded" | "wf" -> Ok Semantics_well_founded
  | "kripke-kleene" | "kk" | "fitting" -> Ok Semantics_kripke_kleene
  | "least" | "lfp" | "least-fixpoint" -> Ok Semantics_least_fixpoint
  | other ->
    Error
      (Printf.sprintf
         "unknown semantics %S (expected inflationary, stratified, \
          well-founded, kripke-kleene or least)"
         other)

let semantics_to_string = function
  | Semantics_inflationary -> "inflationary"
  | Semantics_stratified -> "stratified"
  | Semantics_well_founded -> "well-founded"
  | Semantics_kripke_kleene -> "kripke-kleene"
  | Semantics_least_fixpoint -> "least"

type run_result = {
  facts : Idb.t;
  unknown : Idb.t option;
}

(* Limit declarations are defined by the tighten-union fixpoint of the
   stratified evaluator; the other semantics would silently compute the
   pair-materializing reading, so they refuse limit programs instead. *)
let refuse_limits who (program : Ast.program) =
  match program.limits with
  | [] -> Ok ()
  | l :: _ ->
    Error
      (Printf.sprintf
         "%s: limit predicates (%s %s) require the stratified semantics" who
         l.limit_pred
         (Ast.limit_kind_to_string l.kind))

let reject_limits who program =
  match refuse_limits who program with
  | Ok () -> ()
  | Error msg -> invalid_arg msg

let run ?engine:(_ : [ `Seminaive ] option) ?planner:(_ : Plan.planner option)
    ?plan_cache
    ?indexing:(_ : Engine.indexing option)
    ?storage:(_ : Relation.storage option) ?stats semantics program db =
  let cache = plan_cache in
  try
    (match Check.validate_database program db with
    | Error e -> invalid_arg (Check.error_to_string e)
    | Ok () -> ());
    (match semantics with
    | Semantics_stratified -> ()
    | _ -> reject_limits (semantics_to_string semantics) program);
    match semantics with
    | Semantics_inflationary ->
      Ok
        {
          facts = Inflationary.eval ?cache ?stats program db;
          unknown = None;
        }
    | Semantics_least_fixpoint ->
      Ok
        {
          facts = Naive.least_fixpoint ?cache ?stats program db;
          unknown = None;
        }
    | Semantics_stratified -> (
      match Stratified.eval ?cache ?stats program db with
      | Ok facts -> Ok { facts; unknown = None }
      | Error e -> Error (Stratified.error_to_string e))
    | Semantics_well_founded ->
      let model = Wellfounded.eval ?cache ?stats program db in
      let unknown = Wellfounded.unknown model in
      Ok
        {
          facts = model.Wellfounded.true_facts;
          unknown = (if Idb.is_empty unknown then None else Some unknown);
        }
    | Semantics_kripke_kleene ->
      let model = Fitting.eval ?cache program db in
      let unknown = Fitting.unknown model in
      Ok
        {
          facts = model.Fitting.true_facts;
          unknown = (if Idb.is_empty unknown then None else Some unknown);
        }
  with Invalid_argument msg -> Error msg

type fixpoint_report = {
  ground_atoms : int;
  ground_rules : int;
  has_fixpoint : bool;
  existence_unknown : Satlib.Outcome.reason option;
  fixpoint_count : int option;
  exact_count : Satlib.Outcome.count option;
  count_limit : int;
  unique : bool;
  least : Idb.t option;
  example : Idb.t option;
}

let analyze_fixpoints ?planner:(_ : Plan.planner option) ?plan_cache
    ?(count_limit = 256) ?sat_budget ?count_budget program db =
  reject_limits "fixpoint analysis" program;
  (match Check.validate_database program db with
  | Error e -> invalid_arg ("fixpoint analysis: " ^ Check.error_to_string e)
  | Ok () -> ());
  let solver = Fixpoints.prepare ?plan_cache program db in
  let ground = Fixpoints.ground solver in
  let example, existence_unknown =
    match sat_budget with
    | None -> (Fixpoints.find solver, None)
    | Some budget -> (
      match Fixpoints.find_outcome ~conflict_budget:budget solver with
      | `Found fp -> (Some fp, None)
      | `No_fixpoint -> (None, None)
      | `Unknown r -> (None, Some r))
  in
  let has_fixpoint = example <> None in
  let decided = existence_unknown = None in
  let count =
    if not decided then None
    else if has_fixpoint then Some (Fixpoints.count ~limit:count_limit solver)
    else Some 0
  in
  let exact_count =
    match count_budget with
    | Some budget when decided -> Some (Fixpoints.count_exact ~budget solver)
    | _ -> None
  in
  {
    ground_atoms = Ground.atom_count ground;
    ground_rules = Ground.rule_count ground;
    has_fixpoint;
    existence_unknown;
    fixpoint_count = count;
    exact_count;
    count_limit;
    unique = (count = Some 1);
    least = (if has_fixpoint && decided then Fixpoints.least solver else None);
    example;
  }

let parse_program = Parser.parse_program

let parse_database = Database.parse

let version = "1.0.0"
