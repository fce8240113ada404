(* Cross-cutting property tests: a random DATALOG-not program generator and
   the equivalences every component pair must satisfy.

   These are the strongest correctness checks in the repository: for
   arbitrary small programs and databases,
     - the semi-naive inflationary evaluation agrees with Theta-hat
       iterated by its definition;
     - the inflationary limit is a fixpoint of the inflationary operator
       (Theta(S) subset of S) and its stage deltas partition the result;
     - the grounding's immediate consequence operator tracks Theta along
       the inflationary iteration;
     - brute-force and SAT-based fixpoint censuses agree, and every model
       returned really is a fixpoint;
     - on positive programs, naive least fixpoint = inflationary =
       stratified, and a least fixpoint always exists;
     - on stratifiable programs the well-founded model is total and equals
       the stratified semantics;
     - the Proposition 1 operator translation preserves semantics;
     - Theta, the inflationary fixpoint and the stratified model agree with
       a plain-set reference written straight from the definitions
       (test/support/reference.ml), which shares no code with the engine. *)

module Ast = Datalog.Ast
module Idb = Evallib.Idb
module Theta = Evallib.Theta
module Ground = Evallib.Ground
module Generate = Graphlib.Generate
module Digraph = Graphlib.Digraph

(* The shared random program/database generator lives in
   test/support/gen_programs.ml so every suite draws from the same space. *)

let arb_case = Testsupport.Gen_programs.arb_case

let positivise = Testsupport.Gen_programs.positivise

module Reference = Testsupport.Reference

(* The engine's valuation as reference facts. *)
let facts_of_idb s = Reference.facts_of_bindings (Idb.bindings s)

let matches_reference reference s =
  Reference.Facts.equal reference (facts_of_idb s)

let stratified_reference p db =
  match Reference.stratified p (Reference.of_database db) with
  | Some m -> m
  | None -> QCheck.Test.fail_report "reference finds the program unstratifiable"

(* --- properties ------------------------------------------------------------ *)

(* Theta-hat by its definition: S := S union Theta(S) from the empty
   valuation until nothing changes, every rule through its full plan —
   the naive iteration the semi-naive chase must agree with. *)
let naive_inflationary p db =
  let rec go s =
    let s' = Theta.inflate p db s in
    if Idb.equal s' s then s else go s'
  in
  go (Idb.of_program p)

let prop_engines_agree =
  QCheck.Test.make ~name:"naive and seminaive inflationary engines agree"
    ~count:150 arb_case (fun (p, db) ->
      Idb.equal (naive_inflationary p db) (Evallib.Inflationary.eval p db))

(* The evaluator must compute the model the reference computes from the
   definitions — the fixpoint is a semantic object, not an artefact of
   evaluation order. *)
let prop_engine_matrix_inflationary =
  QCheck.Test.make ~name:"all engines = reference (inflationary fixpoint)"
    ~count:60 arb_case (fun (p, db) ->
      matches_reference
        (Reference.inflationary p (Reference.of_database db))
        (Evallib.Inflationary.eval p db))

let prop_engine_matrix_positive =
  QCheck.Test.make ~name:"all engines = reference (positive lfp)" ~count:60
    arb_case (fun (p, db) ->
      let p = positivise p in
      (* A positive program is one stratum: the reference's stratified
         model is the least fixpoint of Theta. *)
      matches_reference
        (stratified_reference p db)
        (Evallib.Naive.least_fixpoint p db))

let prop_engine_matrix_semantics =
  QCheck.Test.make
    ~name:"all engines = reference (stratified + well-founded)" ~count:40
    arb_case (fun (p, db) ->
      QCheck.assume (Datalog.Stratify.is_stratified p);
      let strat_ref = stratified_reference p db in
      (* On a stratifiable program the well-founded model is total and
         equals the stratified one. *)
      let wf_matches reference (m : Evallib.Wellfounded.model) =
        matches_reference reference m.Evallib.Wellfounded.true_facts
        && matches_reference reference m.Evallib.Wellfounded.possible
      in
      matches_reference strat_ref (Evallib.Stratified.eval_exn p db)
      && wf_matches strat_ref (Evallib.Wellfounded.eval p db))

(* The partitioned packed store must be observationally identical to the
   plain-set semantics: the reference's stratified model is compared
   against the store's. *)
let prop_partitioned_store_oracle =
  QCheck.Test.make
    ~name:"partitioned hashed store matches the plain-set reference"
    ~count:40 arb_case (fun (p, db) ->
      if not (Datalog.Stratify.is_stratified p) then true
      else
        matches_reference
          (stratified_reference p db)
          (Evallib.Stratified.eval_exn p db))

(* Theta itself, not just its limits: one application at every stage of
   the inflationary iteration matches the reference operator. *)
let prop_theta_matches_reference =
  QCheck.Test.make ~name:"Theta = reference Theta along the iteration"
    ~count:100 arb_case (fun (p, db) ->
      let rdb = Reference.of_database db in
      let rec walk s n =
        n = 0
        ||
        let step = Theta.apply p db s in
        matches_reference (Reference.theta p rdb (facts_of_idb s)) step
        && walk (Idb.union s step) (n - 1)
      in
      walk (Idb.of_program p) 4)

let prop_limit_is_inflationary_fixpoint =
  QCheck.Test.make ~name:"Theta(limit) is contained in the limit" ~count:150
    arb_case (fun (p, db) ->
      let limit = Evallib.Inflationary.eval p db in
      Idb.subset (Theta.apply p db limit) limit)

let prop_deltas_partition =
  QCheck.Test.make ~name:"stage deltas are disjoint and union to the limit"
    ~count:100 arb_case (fun (p, db) ->
      let trace = Evallib.Inflationary.eval_trace p db in
      let union =
        List.fold_left Idb.union (Idb.of_program p) trace.Evallib.Saturate.deltas
      in
      let rec disjoint = function
        | [] -> true
        | d :: rest ->
          List.for_all (fun d' -> Idb.is_empty (Idb.inter d d')) rest
          && disjoint rest
      in
      Idb.equal union trace.Evallib.Saturate.result
      && disjoint trace.Evallib.Saturate.deltas)

let prop_ground_tracks_theta =
  QCheck.Test.make ~name:"ground apply = Theta along the iteration" ~count:100
    arb_case (fun (p, db) ->
      let g = Ground.ground p db in
      let rec walk s n =
        n = 0
        ||
        let via_theta = Theta.apply p db s in
        Idb.equal via_theta (Ground.apply g s)
        && walk (Idb.union s via_theta) (n - 1)
      in
      walk (Idb.of_program p) 3)

let prop_census_agrees =
  QCheck.Test.make ~name:"brute and SAT fixpoint censuses agree" ~count:60
    arb_case (fun (p, db) ->
      let g = Ground.ground p db in
      QCheck.assume (Ground.atom_count g <= 14);
      let solver = Fixpointlib.Solve.prepare p db in
      Fixpointlib.Brute.count g = Fixpointlib.Solve.count solver)

let prop_solve_models_are_fixpoints =
  QCheck.Test.make ~name:"every enumerated fixpoint satisfies Theta(S)=S"
    ~count:60 arb_case (fun (p, db) ->
      let solver = Fixpointlib.Solve.prepare p db in
      List.for_all
        (fun fp -> Theta.is_fixpoint p db fp)
        (Fixpointlib.Solve.enumerate ~limit:8 solver))

let prop_least_is_least =
  QCheck.Test.make ~name:"reported least fixpoint is below every fixpoint"
    ~count:60 arb_case (fun (p, db) ->
      let solver = Fixpointlib.Solve.prepare p db in
      match Fixpointlib.Solve.least solver with
      | None -> true
      | Some least ->
        Theta.is_fixpoint p db least
        && List.for_all
             (fun fp -> Idb.subset least fp)
             (Fixpointlib.Solve.enumerate ~limit:16 solver))

let prop_positive_semantics_coincide =
  QCheck.Test.make ~name:"positive: naive lfp = inflationary = stratified"
    ~count:100 arb_case (fun (p, db) ->
      let p = positivise p in
      let lfp = Evallib.Naive.least_fixpoint p db in
      Idb.equal lfp (Evallib.Inflationary.eval p db)
      && Idb.equal lfp (Evallib.Stratified.eval_exn p db))

let prop_positive_has_least_fixpoint =
  QCheck.Test.make ~name:"positive programs have a least fixpoint = naive lfp"
    ~count:40 arb_case (fun (p, db) ->
      let p = positivise p in
      let g = Ground.ground p db in
      QCheck.assume (Ground.atom_count g <= 12);
      match Fixpointlib.Solve.least (Fixpointlib.Solve.prepare p db) with
      | None -> false
      | Some least -> Idb.equal least (Evallib.Naive.least_fixpoint p db))

let prop_wellfounded_on_stratified =
  QCheck.Test.make ~name:"stratifiable: well-founded total and = stratified"
    ~count:100 arb_case (fun (p, db) ->
      QCheck.assume (Datalog.Stratify.is_stratified p);
      let m = Evallib.Wellfounded.eval p db in
      Evallib.Wellfounded.is_total m
      && Idb.equal m.Evallib.Wellfounded.true_facts
           (Evallib.Stratified.eval_exn p db))

let prop_wellfounded_bounds =
  QCheck.Test.make ~name:"well-founded: true facts within possible facts"
    ~count:100 arb_case (fun (p, db) ->
      let m = Evallib.Wellfounded.eval p db in
      Idb.subset m.Evallib.Wellfounded.true_facts m.Evallib.Wellfounded.possible)

let prop_prop1_translation =
  QCheck.Test.make ~name:"Prop 1 operator translation preserves semantics"
    ~count:60 arb_case (fun (p, db) -> Reductions.Prop1.agree p db)

let prop_wellfounded_algorithms_agree =
  QCheck.Test.make
    ~name:"alternating fixpoint = unfounded sets (well-founded model)"
    ~count:120 arb_case (fun (p, db) ->
      let via_alternation = Evallib.Wellfounded.eval p db in
      let via_unfounded = Evallib.Unfounded.eval p db in
      Idb.equal via_alternation.Evallib.Wellfounded.true_facts
        via_unfounded.Evallib.Wellfounded.true_facts
      && Idb.equal
           (Evallib.Wellfounded.unknown via_alternation)
           (Evallib.Wellfounded.unknown via_unfounded))

let prop_kripke_kleene_within_wellfounded =
  QCheck.Test.make ~name:"Kripke-Kleene is at most as decided as well-founded"
    ~count:100 arb_case (fun (p, db) ->
      let kk = Evallib.Fitting.eval p db in
      let wf = Evallib.Wellfounded.eval p db in
      Idb.subset kk.Evallib.Fitting.true_facts wf.Evallib.Wellfounded.true_facts
      && Idb.subset wf.Evallib.Wellfounded.possible kk.Evallib.Fitting.possible)

(* Limit predicates: the plan-path tightening evaluation must agree with
   a brute-force reference that materializes every cost tuple (same rules,
   no limit declarations) and then keeps only the dominant tuple of each
   group.  Because the generator's guards match the limit kind's polarity
   (min with <=, max with >=), the strata above the limit predicate are
   insensitive to the dominant filter, so the whole models must
   coincide. *)
let prop_limit_differential =
  QCheck.Test.make ~name:"limit tightening = dominant filter of pair model"
    ~count:60 Testsupport.Gen_programs.arb_limit_case
    (fun (limit_p, pairs_p, db) ->
      let pairs = Evallib.Stratified.eval_exn pairs_p db in
      let reference =
        List.fold_left
          (fun idb (l : Ast.limit) ->
            let kind =
              match l.Ast.kind with Ast.Min -> `Min | Ast.Max -> `Max
            in
            Idb.set idb l.Ast.limit_pred
              (Relalg.Relation.dominant ~kind ~col:l.Ast.column
                 (Idb.get pairs l.Ast.limit_pred)))
          pairs limit_p.Ast.limits
      in
      Idb.equal reference (Evallib.Stratified.eval_exn limit_p db))

let prop_pretty_roundtrip =
  QCheck.Test.make ~name:"pretty-printed programs re-parse identically"
    ~count:150 arb_case (fun (p, _db) ->
      Datalog.Parser.parse_program_exn (Datalog.Pretty.program_to_string p) = p)

let () =
  Alcotest.run "properties"
    [
      ( "random-programs",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engines_agree;
            prop_engine_matrix_inflationary;
            prop_engine_matrix_positive;
            prop_engine_matrix_semantics;
            prop_partitioned_store_oracle;
            prop_limit_is_inflationary_fixpoint;
            prop_deltas_partition;
            prop_ground_tracks_theta;
            prop_census_agrees;
            prop_solve_models_are_fixpoints;
            prop_least_is_least;
            prop_positive_semantics_coincide;
            prop_positive_has_least_fixpoint;
            prop_wellfounded_on_stratified;
            prop_wellfounded_bounds;
            prop_wellfounded_algorithms_agree;
            prop_prop1_translation;
            prop_kripke_kleene_within_wellfounded;
            prop_limit_differential;
            prop_pretty_roundtrip;
            prop_theta_matches_reference;
          ] );
    ]
