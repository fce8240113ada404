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

(* The packed store must be observationally identical to the plain-set
   semantics: the reference's stratified model is compared against the
   store's.  The name is kept from when the store was partitioned into
   stripes, so that the property list's indices do not move. *)
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

(* --- the limit workloads ----------------------------------------------------

   Single-source shortest path (min) over a ring of 48 with 144 weighted
   chords, and critical path (max) over a 12 x 6 layered DAG, each as a
   limit program and as the pair-materializing program: the same rules
   without the declaration, which keeps every (node, cost) pair (the
   ring's [S <= 48] guard makes it terminate).  Tightening keeps one bound
   per node, so it derives far fewer tuples (Kaminski et al.), and its
   model is the dominant filter of the pair model, strata above
   included. *)

module Prng = Negdl_util.Prng
module Symbol = Relalg.Symbol
module Tuple = Relalg.Tuple
module Database = Relalg.Database
module Relation = Relalg.Relation
module Stats = Evallib.Stats
module Stratified = Evallib.Stratified

let min_text =
  "dist(X, 0) :- source(X).\n\
   dist(Y, S) :- dist(X, D), edge(X, Y, W), S = D + W, S <= 48.\n\
   near(X) :- dist(X, D), D <= 24.\n\
   far(X) :- node(X), !near(X)."

let max_text =
  "best(X, 0) :- source(X).\n\
   best(Y, S) :- best(X, D), edge(X, Y, W), S = D + W.\n\
   good(X) :- best(X, D), D >= 24.\n\
   modest(X) :- node(X), !good(X)."

let add_fact pred args db =
  Database.add_fact pred (Tuple.of_list args) (Database.add_universe args db)

let ring_vertex i = Symbol.intern (Printf.sprintf "n%d" i)

let weight rng = Symbol.of_int (1 + Prng.int rng 9)

let limit_ring () =
  let n = 48 and rng = Prng.create 20260808 in
  let db = ref (Database.create ~universe:[]) in
  let edge a b w =
    db := add_fact "edge" [ ring_vertex a; ring_vertex b; w ] !db
  in
  db := add_fact "source" [ ring_vertex 0 ] !db;
  for i = 0 to n - 1 do
    edge i ((i + 1) mod n) (weight rng)
  done;
  for _ = 1 to 3 * n do
    let w = weight rng in
    let b = Prng.int rng n in
    let a = Prng.int rng n in
    edge a b w
  done;
  for i = 0 to n - 1 do
    db := add_fact "node" [ ring_vertex i ] !db
  done;
  !db

let limit_dag () =
  let layers = 12 and width = 6 and rng = Prng.create 424242 in
  let v l i = Symbol.intern (Printf.sprintf "l%d_%d" l i) in
  let db = ref (Database.create ~universe:[]) in
  for i = 0 to width - 1 do
    db := add_fact "source" [ v 0 i ] !db
  done;
  for l = 0 to layers - 2 do
    for i = 0 to width - 1 do
      for _ = 1 to 3 do
        let j = Prng.int rng width in
        db := add_fact "edge" [ v l i; v (l + 1) j; weight rng ] !db
      done
    done
  done;
  for l = 0 to layers - 1 do
    for i = 0 to width - 1 do
      db := add_fact "node" [ v l i ] !db
    done
  done;
  !db

let check_tightening ~decl ~kind ~pred ~above text db =
  let limit_p = Datalog.Parser.parse_program_exn (decl ^ "\n" ^ text) in
  let pairs_p = Datalog.Parser.parse_program_exn text in
  (match Datalog.Stratify.stratify limit_p with
  | Datalog.Stratify.Stratified s ->
    Alcotest.(check bool) "a stratum above the limit predicate" true
      (List.length s.Datalog.Stratify.strata >= 2)
  | _ -> Alcotest.fail "the limit program does not stratify");
  let eval p =
    let stats = Stats.create () in
    let m = Stratified.eval_exn ~stats p db in
    (m, stats.Stats.tuples_derived)
  in
  let limit, limit_work = eval limit_p in
  let pairs, pairs_work = eval pairs_p in
  if 5 * limit_work > pairs_work then
    Alcotest.failf "tightening derived %d tuples, pairs %d: under 5x"
      limit_work pairs_work;
  Alcotest.(check bool) "bounds = dominant filter of the pairs" true
    (Relation.equal (Idb.get limit pred)
       (Relation.dominant ~kind ~col:1 (Idb.get pairs pred)));
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " agrees") true
        (Relation.equal (Idb.get limit p) (Idb.get pairs p)))
    above

let test_min_ring () =
  check_tightening ~decl:"dist min 2." ~kind:`Min ~pred:"dist"
    ~above:[ "near"; "far" ] min_text (limit_ring ())

let test_max_dag () =
  check_tightening ~decl:"best max 2." ~kind:`Max ~pred:"best"
    ~above:[ "good"; "modest" ] max_text (limit_dag ())

(* 24 batches, each inserting a random weighted edge of the ring or
   deleting it when present: maintenance relaxes a deleted bound to its
   second-best support on the delta path, never re-applying a rule in
   full, and tracks recomputation at every quarter. *)
let test_limit_serve () =
  let program =
    Datalog.Parser.parse_program_exn ("dist min 2.\n" ^ min_text)
  in
  let stats = Stats.create () in
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let t = ok (Evallib.Serve.create ~stats program (limit_ring ())) in
  let rng = Prng.create 987654321 in
  for i = 1 to 24 do
    let a = Prng.int rng 48 in
    let b = Prng.int rng 48 in
    let tup = Tuple.of_list [ ring_vertex a; ring_vertex b; weight rng ] in
    let db = Evallib.Serve.database t in
    ignore
      (ok
         (if Database.mem_fact "edge" tup db then
            Evallib.Serve.delete t [ ("edge", tup) ]
          else Evallib.Serve.insert t [ ("edge", tup) ]));
    if i mod 6 = 0 then
      Alcotest.(check bool)
        (Printf.sprintf "model after batch %d = recomputation's" i)
        true
        (Idb.equal (Evallib.Serve.snapshot t)
           (Stratified.eval_exn program (Evallib.Serve.database t)))
  done;
  Alcotest.(check int) "no full applications" 0
    (Option.value ~default:0
       (List.assoc_opt "dred full applications" stats.Stats.extra))

(* The counts of the experiments E1-E8 that an evaluation could corrupt,
   taken before and after the limit workloads: running them must leave
   every entry as it was. *)
let experiment_fingerprint () =
  let module Solve = Fixpointlib.Solve in
  let module Sat_db = Reductions.Sat_db in
  let module Workload = Satlib.Workload in
  let db_of = Digraph.to_database in
  let pi1 = Datalog.Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y)." in
  let census g = Solve.count (Solve.prepare pi1 (db_of g)) in
  let bit b = if b then 1 else 0 in
  let kernel =
    let open Folog.Fo in
    match
      Reductions.Fagin.compile_sentence
        {
          Folog.Eso.second_order = [ ("S", 1) ];
          matrix =
            forall [ "x" ]
              (exists [ "y" ]
                 (Or
                    ( atom "S" [ var "x" ],
                      And (atom "e" [ var "x"; var "y" ], atom "S" [ var "y" ])
                    )));
        }
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let tc =
    Datalog.Parser.parse_program_exn
      "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y)."
  in
  let trace =
    Evallib.Inflationary.eval_trace tc
      (db_of (Generate.random ~seed:31 ~n:30 ~p:0.13))
  in
  let wf = Evallib.Wellfounded.eval pi1 (db_of (Generate.cycle 5)) in
  let distance g =
    [
      Relation.cardinal (Reductions.Distance.inflationary g);
      Relation.cardinal (Reductions.Distance.stratified g);
    ]
  in
  List.map census
    [
      Generate.cycle 4;
      Generate.cycle 5;
      Generate.cycle 6;
      Generate.path 5;
      Generate.disjoint_copies 2 (Generate.cycle 4);
    ]
  @ List.map
      (fun seed ->
        Solve.count
          (Sat_db.solver
             (Workload.random_3cnf ~seed ~vars:5 ~clauses:(10 + (2 * seed)))))
      [ 1; 2; 3 ]
  @ List.map
      (fun g -> bit (Reductions.Fagin.has_fixpoint kernel (db_of g)))
      [ Generate.path 3; Generate.cycle 3; Generate.cycle 4 ]
  @ List.map
      (fun k ->
        bit (Solve.has_unique (Sat_db.solver (Workload.exactly_k_models 3 k))))
      [ 0; 1; 2 ]
  @ List.map
      (fun solver -> bit (Solve.least solver <> None))
      [
        Solve.prepare pi1 (db_of (Generate.path 5));
        Solve.prepare pi1 (db_of (Generate.cycle 4));
        Sat_db.solver (Satlib.Cnf.of_list 2 [ [ 1; 2 ] ]);
      ]
  @ List.map
      (fun g -> bit (Reductions.Coloring.has_fixpoint g))
      [ Generate.complete 3; Generate.cycle 5; Generate.grid 2 3 ]
  @ [
      Idb.total_cardinal trace.Evallib.Saturate.result;
      List.length trace.Evallib.Saturate.deltas;
    ]
  @ distance (Generate.path 7)
  @ distance (Generate.random ~seed:41 ~n:6 ~p:0.25)
  @ [
      Idb.total_cardinal wf.Evallib.Wellfounded.true_facts;
      Idb.total_cardinal wf.Evallib.Wellfounded.possible;
    ]

let test_fingerprints_survive () =
  let before = experiment_fingerprint () in
  Alcotest.(check int) "28 entries" 28 (List.length before);
  test_min_ring ();
  test_max_dag ();
  test_limit_serve ();
  Alcotest.(check (list int)) "E1-E8 counts unchanged" before
    (experiment_fingerprint ())

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
      ( "limit-workloads",
        [
          Alcotest.test_case "min ring: tightening derives 5x fewer tuples"
            `Quick test_min_ring;
          Alcotest.test_case "max DAG: tightening derives 5x fewer tuples"
            `Quick test_max_dag;
          Alcotest.test_case "mixed serve session on the ring" `Quick
            test_limit_serve;
          Alcotest.test_case "E1-E8 counts survive the limit workloads"
            `Quick test_fingerprints_survive;
        ] );
    ]
