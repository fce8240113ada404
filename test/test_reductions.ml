(* Tests for the paper's constructions: Example 1 / Theorem 1 (pi_SAT and
   the generic Fagin compiler), Theorem 2 (unique fixpoints vs unique SAT),
   Theorem 3 (least fixpoints), Lemma 1 (pi_COL), Theorem 4 (succinct
   3-coloring), Proposition 2 (the distance query) and Proposition 1
   (Inflationary DATALOG vs existential FO+IFP). *)

open Reductions
module Cnf = Satlib.Cnf
module SatBrute = Satlib.Brute
module Solve = Fixpointlib.Solve
module FixBrute = Fixpointlib.Brute
module Idb = Evallib.Idb
module Theta = Evallib.Theta
module Ground = Evallib.Ground
module Generate = Graphlib.Generate
module Digraph = Graphlib.Digraph
module GColoring = Graphlib.Coloring
module Relation = Relalg.Relation

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Example 1: pi_SAT --------------------------------------------------- *)

let sample_cnfs =
  [
    ("unit", Cnf.of_list 1 [ [ 1 ] ]);
    ("contradiction", Cnf.of_list 1 [ [ 1 ]; [ -1 ] ]);
    ("two free", Cnf.create 2);
    ("implication chain", Cnf.of_list 3 [ [ -1; 2 ]; [ -2; 3 ]; [ 1 ] ]);
    ("xor-ish", Cnf.of_list 2 [ [ 1; 2 ]; [ -1; -2 ] ]);
    ("unsat 2cnf", Cnf.of_list 2 [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ]);
    ("random 3cnf", Satlib.Workload.random_3cnf ~seed:11 ~vars:4 ~clauses:9);
  ]

let test_pi_sat_existence () =
  List.iter
    (fun (name, cnf) ->
      let expected = SatBrute.is_satisfiable cnf in
      check bool name expected (Solve.exists (Sat_db.solver cnf)))
    sample_cnfs

(* The instances of EXPERIMENTS' E2 table. *)
let e2_cnfs =
  ("forced-sat 6v 20c", Satlib.Workload.forced_sat ~seed:3 ~vars:6 ~clauses:20 ~k:3)
  :: ("pigeonhole 2", Satlib.Workload.pigeonhole 2)
  :: List.init 6 (fun i ->
         let seed = i + 1 in
         ( Printf.sprintf "random 3cnf seed %d" seed,
           Satlib.Workload.random_3cnf ~seed ~vars:5 ~clauses:(10 + (2 * seed)) ))

let test_pi_sat_bijection () =
  (* Satisfying assignments and fixpoints correspond one to one. *)
  List.iter
    (fun (name, cnf) ->
      let models = SatBrute.count_models cnf in
      let fixpoints = Solve.count (Sat_db.solver cnf) in
      check int (name ^ ": counts equal") models fixpoints)
    (sample_cnfs @ e2_cnfs);
  check int "forced-sat 6v 20c has 11 models" 11
    (SatBrute.count_models (List.assoc "forced-sat 6v 20c" e2_cnfs))

let test_pi_sat_assignment_extraction () =
  let cnf = Cnf.of_list 3 [ [ -1; 2 ]; [ -2; 3 ]; [ 1 ] ] in
  let solver = Sat_db.solver cnf in
  List.iter
    (fun fp ->
      let assignment = Sat_db.assignment_of_fixpoint cnf fp in
      check bool "assignment satisfies" true
        (Cnf.eval cnf (fun v -> assignment.(v))))
    (Solve.enumerate solver)

let test_pi_sat_fixpoint_construction () =
  (* fixpoint_of_assignment really is a fixpoint of (pi_SAT, D(I)). *)
  let cnf = Cnf.of_list 2 [ [ 1; 2 ] ] in
  let db = Sat_db.database_of_cnf cnf in
  List.iter
    (fun model ->
      let fp = Sat_db.fixpoint_of_assignment cnf model in
      check bool "constructed fixpoint" true
        (Theta.is_fixpoint Sat_db.program db fp))
    (SatBrute.all_models cnf)

let test_pi_sat_database_roundtrip () =
  let cnf = Cnf.of_list 3 [ [ 1; -2 ]; [ 2; 3 ]; [ -3 ] ] in
  match Sat_db.cnf_of_database (Sat_db.database_of_cnf cnf) with
  | Error e -> Alcotest.fail e
  | Ok cnf' ->
    check int "same model count" (SatBrute.count_models cnf)
      (SatBrute.count_models cnf');
    check int "same vars" (Cnf.num_vars cnf) (Cnf.num_vars cnf')

(* --- Theorem 2: unique fixpoints ----------------------------------------- *)

let test_unique_fixpoint_iff_unique_sat () =
  List.iter
    (fun (name, cnf) ->
      let expected = SatBrute.count_models cnf = 1 in
      check bool name expected (Solve.has_unique (Sat_db.solver cnf)))
    sample_cnfs;
  (* Engineered counts. *)
  for k = 0 to 4 do
    let cnf = Satlib.Workload.exactly_k_models 3 k in
    check bool
      (Printf.sprintf "exactly %d models" k)
      (k = 1)
      (Solve.has_unique (Sat_db.solver cnf))
  done

(* --- Theorem 3: least fixpoints on pi_SAT -------------------------------- *)

let test_least_fixpoint_horn () =
  (* A Horn CNF with a least model: x1, and x2 forced, x3 free -> two
     models {x1,x2} and {x1,x2,x3}; the intersection is a model, so a least
     fixpoint exists. *)
  let cnf = Cnf.of_list 3 [ [ 1 ]; [ -1; 2 ] ] in
  let solver = Sat_db.solver cnf in
  match Solve.least solver with
  | None -> Alcotest.fail "expected a least fixpoint"
  | Some fp ->
    let assignment = Sat_db.assignment_of_fixpoint cnf fp in
    check bool "least model {x1, x2}" true
      (assignment.(1) && assignment.(2) && not assignment.(3))

let test_no_least_fixpoint_on_disjunction () =
  (* x1 \/ x2 with neither forced: models {x1}, {x2}, {x1, x2}; the
     intersection (empty) is not a model, so no least fixpoint. *)
  let cnf = Cnf.of_list 2 [ [ 1; 2 ] ] in
  check bool "no least" true (Solve.least (Sat_db.solver cnf) = None)

(* --- Theorem 1 generic: the Fagin compiler ------------------------------- *)

(* The SAT sentence of Example 1, as a first-order matrix. *)
let sat_sentence =
  let open Folog.Fo in
  {
    Folog.Eso.second_order = [ ("S", 1) ];
    matrix =
      forall [ "x" ]
        (exists [ "y" ]
           (And
              ( Implies (atom "S" [ var "x" ], atom "v" [ var "x" ]),
                Implies
                  ( Not (atom "v" [ var "x" ]),
                    Or
                      ( And
                          ( atom "p" [ var "x"; var "y" ],
                            atom "S" [ var "y" ] ),
                        And
                          ( atom "n" [ var "x"; var "y" ],
                            Not (atom "S" [ var "y" ]) ) ) ) )));
  }

let test_fagin_on_sat_sentence () =
  let compiled =
    match Fagin.compile_sentence sat_sentence with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (name, cnf) ->
      let db = Sat_db.database_of_cnf cnf in
      let expected = SatBrute.is_satisfiable cnf in
      (* Three independent deciders agree: brute-force ESO model checking,
         the compiled program's fixpoints, and the hand-written pi_SAT. *)
      check bool (name ^ ": eso") expected (Folog.Eso.holds db sat_sentence);
      check bool (name ^ ": compiled") expected (Fagin.has_fixpoint compiled db);
      check bool (name ^ ": pi_sat") expected
        (Solve.exists (Sat_db.solver cnf)))
    (* Keep universes small: ESO checking enumerates 2^|A| values of S. *)
    [
      ("unit", Cnf.of_list 1 [ [ 1 ] ]);
      ("contradiction", Cnf.of_list 1 [ [ 1 ]; [ -1 ] ]);
      ("xor-ish", Cnf.of_list 2 [ [ 1; 2 ]; [ -1; -2 ] ]);
      ("unsat 2cnf", Cnf.of_list 2 [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ]);
    ]

let test_fagin_graph_property () =
  (* "There is a set S containing, for every vertex x, either x or all its
     successors... " keep it simple: S is a kernel-ish set: every vertex is
     in S or has an out-neighbour in S.  ESO: exists S forall x exists y
     (S(x) \/ (e(x,y) /\ S(y))). *)
  let open Folog.Fo in
  let sentence =
    {
      Folog.Eso.second_order = [ ("S", 1) ];
      matrix =
        forall [ "x" ]
          (exists [ "y" ]
             (Or
                ( atom "S" [ var "x" ],
                  And (atom "e" [ var "x"; var "y" ], atom "S" [ var "y" ]) )));
    }
  in
  let compiled =
    match Fagin.compile_sentence sentence with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun g ->
      let db = Digraph.to_database g in
      check bool "fagin agrees with eso" (Folog.Eso.holds db sentence)
        (Fagin.has_fixpoint compiled db))
    [
      Generate.path 3;
      Generate.cycle 3;
      Generate.cycle 4;
      Digraph.make 3 [];
      Generate.star 3;
    ]

let test_fagin_rejects_bad_prefix () =
  (* exists y forall x e(x, y) has an existential-then-universal prefix. *)
  let open Folog.Fo in
  let sentence =
    {
      Folog.Eso.second_order = [ ("S", 1) ];
      matrix = exists [ "y" ] (forall [ "x" ] (atom "e" [ var "x"; var "y" ]));
    }
  in
  match Fagin.compile_sentence sentence with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected prefix rejection"

(* --- Lemma 1: pi_COL ------------------------------------------------------ *)

let coloring_graphs =
  [
    ("triangle", Generate.complete 3, true);
    ("k4", Generate.complete 4, false);
    ("odd cycle", Generate.cycle 5, true);
    ("path", Generate.path 4, true);
    ("self-loop", Digraph.make 2 [ (0, 0); (0, 1) ], false);
    ("empty", Digraph.make 3 [], true);
  ]

let test_pi_col_matches_backtracking () =
  List.iter
    (fun (name, g, expected) ->
      check bool (name ^ ": backtracking") expected (GColoring.is_3colorable g);
      check bool (name ^ ": pi_col") expected (Coloring.has_fixpoint g))
    coloring_graphs

let test_pi_col_fixpoints_are_colorings () =
  let g = Generate.cycle 5 in
  let solver = Coloring.solver g in
  let fps = Solve.enumerate ~limit:5 solver in
  check bool "some fixpoint" true (fps <> []);
  List.iter
    (fun fp ->
      let colors = Coloring.coloring_of_fixpoint g fp in
      check bool "proper coloring" true (GColoring.check_coloring ~k:3 g colors))
    fps

let test_pi_col_fixpoint_count_is_coloring_count () =
  let g = Generate.path 3 in
  check int "count = colorings"
    (GColoring.count_colorings ~k:3 g)
    (Solve.count (Coloring.solver g))

(* --- Theorem 4: succinct 3-coloring -------------------------------------- *)

let test_succinct_matches_explicit () =
  let cases =
    [
      ("hypercube 2", Circuitlib.Succinct.hypercube 2);
      ("complete 2", Circuitlib.Succinct.complete 2);
      ("empty 2", Circuitlib.Succinct.empty 2);
      ("explicit triangle+1", Circuitlib.Succinct.of_explicit (Generate.complete 3));
      ("explicit k4", Circuitlib.Succinct.of_explicit (Generate.complete 4));
    ]
  in
  List.iter
    (fun (name, sg) ->
      let explicit = Circuitlib.Succinct.expand sg in
      let expected = GColoring.is_3colorable explicit in
      let compiled = Succinct3col.compile sg in
      check bool name expected (Succinct3col.has_fixpoint compiled))
    cases

let test_succinct_program_shape () =
  let sg = Circuitlib.Succinct.empty 2 in
  let compiled = Succinct3col.compile sg in
  check int "bits" 2 compiled.Succinct3col.bits;
  (* 11 pi_COL rules plus one or two rules per gate. *)
  check bool "has rules" true
    (List.length compiled.Succinct3col.program.Datalog.Ast.rules > 11)

(* --- Proposition 2: the distance query ----------------------------------- *)

let distance_graphs =
  [
    ("path", Generate.path 5);
    ("cycle", Generate.cycle 4);
    ("two components", Digraph.disjoint_union (Generate.path 3) (Generate.cycle 3));
    ("random dag-ish", Generate.random ~seed:5 ~n:6 ~p:0.2);
    ("star", Generate.star 4);
  ]

let test_distance_inflationary_is_distance_query () =
  List.iter
    (fun (name, g) ->
      check bool name true
        (Relation.equal (Distance.inflationary g) (Distance.reference g)))
    distance_graphs

let test_distance_stratified_is_tc_pair () =
  List.iter
    (fun (name, g) ->
      check bool name true
        (Relation.equal (Distance.stratified g)
           (Distance.reference_stratified g)))
    distance_graphs

let test_distance_semantics_differ () =
  (* On the path 0 -> 1 -> 2 -> 3 the quadruple (0, 1, 0, 3) is in the
     distance query (dist 1 <= dist 3) but not in TC /\ not TC (both pairs
     are in the closure).  So the same program means different things. *)
  let g = Generate.path 4 in
  let infl = Distance.inflationary g in
  let strat = Distance.stratified g in
  let witness = Distance.quad 0 1 0 3 in
  check bool "inflationary has it" true (Relation.mem witness infl);
  check bool "stratified lacks it" false (Relation.mem witness strat);
  check bool "relations differ" false (Relation.equal infl strat)

let test_distance_program_is_stratifiable () =
  check bool "stratifiable" true (Datalog.Stratify.is_stratified Distance.program)

(* --- Proposition 1: inflationary datalog = existential FO+IFP ------------ *)

let prop1_programs =
  [
    ("tc", Distance.program);
    ("pi1", Datalog.Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y).");
    ("toggle", Datalog.Parser.parse_program_exn "t(Z) :- !t(W).");
    ( "mixed",
      Datalog.Parser.parse_program_exn
        "p(X) :- e(X, Y), !q(Y). q(X) :- e(Y, X), p(Y). r(X, Y) :- p(X), q(Y), X != Y."
    );
  ]

let test_prop1_program_to_operators () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun seed ->
          let g = Generate.random ~seed:(700 + seed) ~n:4 ~p:0.3 in
          check bool
            (Printf.sprintf "%s seed %d" name seed)
            true
            (Prop1.agree p (Digraph.to_database g)))
        [ 1; 2; 3 ])
    prop1_programs

let test_prop1_roundtrip () =
  (* program -> operators -> program preserves inflationary semantics. *)
  List.iter
    (fun (name, p) ->
      let p' = Prop1.program_of_operators_exn (Prop1.operators_of_program p) in
      List.iter
        (fun seed ->
          let g = Generate.random ~seed:(800 + seed) ~n:4 ~p:0.3 in
          let db = Digraph.to_database g in
          check bool
            (Printf.sprintf "%s seed %d" name seed)
            true
            (Idb.equal
               (Evallib.Inflationary.eval p db)
               (Evallib.Inflationary.eval p' db)))
        [ 1; 2 ])
    prop1_programs

let test_prop1_rejects_universal_operator () =
  let open Folog.Fo in
  let op =
    {
      Folog.Ifp.pred = "s";
      vars = [ "V1" ];
      body = forall [ "z" ] (atom "e" [ var "V1"; var "z" ]);
    }
  in
  match Prop1.program_of_operators [ op ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "universal operator accepted"

(* --- Expressiveness (Section 5) ------------------------------------------- *)

let tc_prog =
  Datalog.Parser.parse_program_exn
    "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y)."

let test_tc_is_monotone_empirically () =
  let query g =
    Idb.get (Evallib.Naive.least_fixpoint tc_prog (Digraph.to_database g)) "s"
  in
  let preserved, violated =
    Expressiveness.monotonicity_trials ~seed:5 ~trials:60 ~query
  in
  check bool "some trials ran" true (preserved > 20);
  check int "no violations" 0 violated

let test_distance_is_not_monotone () =
  let g, g', quad = Expressiveness.distance_witness () in
  check bool "inclusion of graphs" true
    (List.for_all
       (fun (u, v) -> Digraph.has_edge g' u v)
       (Digraph.edges g));
  let d = Distance.inflationary g in
  let d' = Distance.inflationary g' in
  check bool "witness in D(G)" true (Relation.mem quad d);
  check bool "witness not in D(G')" false (Relation.mem quad d');
  check bool "hence not monotone" false (Relation.subset d d')

let test_distance_violations_found_randomly () =
  let preserved, violated =
    Expressiveness.monotonicity_trials ~seed:11 ~trials:80
      ~query:Distance.inflationary
  in
  ignore preserved;
  check bool "random search also finds violations" true (violated > 0)

let test_stage_growth () =
  (* The distance program's stage count grows with the path length
     (non-first-order behaviour); pi_1 stabilises immediately. *)
  let make_db n = Digraph.to_database (Generate.path n) in
  let distance_stages =
    Expressiveness.stage_counts Distance.program ~make_db [ 3; 5; 7; 9 ]
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  check bool "distance stages grow" true (strictly_increasing distance_stages);
  let pi1 = Datalog.Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y)." in
  let pi1_stages = Expressiveness.stage_counts pi1 ~make_db [ 3; 5; 7; 9 ] in
  check bool "pi_1 stages constant" true
    (List.for_all (fun s -> s = List.hd pi1_stages) pi1_stages)

(* --- the classics library --------------------------------------------------- *)

let test_classics_all_evaluate () =
  (* Every canonical program parses, validates, and evaluates under the
     inflationary semantics on a small graph database without raising. *)
  let db =
    Relalg.Database.merge
      (Digraph.to_database (Generate.random ~seed:3 ~n:4 ~p:0.3))
      (Relalg.Database.of_facts ~universe:[]
         [
           ("source", [ "v0" ]); ("node", [ "v0" ]); ("node", [ "v1" ]);
           ("up", [ "v0"; "v1" ]); ("flat", [ "v1"; "v2" ]);
           ("down", [ "v2"; "v3" ]);
         ])
  in
  List.iter
    (fun (name, p) ->
      (match Datalog.Check.validate p with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "%s does not validate" name);
      ignore (Evallib.Inflationary.eval p db))
    Classics.all;
  check int "eight classics" 8 (List.length Classics.all)

let test_classics_known_facts () =
  check bool "pi1 = the paper's program" true
    (Classics.pi1 = Datalog.Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y).");
  check bool "toggle unstratifiable" false
    (Datalog.Stratify.is_stratified Classics.toggle);
  check bool "tc positive" true (Datalog.Ast.is_positive Classics.transitive_closure);
  check bool "pi2 stratifiable" true (Datalog.Stratify.is_stratified Classics.pi2)

(* --- The fixpoint formula phi_pi (Section 3) ------------------------------ *)

let phi_programs =
  [
    ("pi_1", Datalog.Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y).");
    ("toggle", Datalog.Parser.parse_program_exn "t(Z) :- !t(W).");
    ( "two preds",
      Datalog.Parser.parse_program_exn "p(X) :- e(X, Y), !q(Y). q(X) :- p(X)."
    );
  ]

let test_phi_characterises_fixpoints () =
  (* D |= phi_pi(S) iff Theta(S) = S, for every S over tiny universes. *)
  List.iter
    (fun (name, p) ->
      let g = Generate.random ~seed:17 ~n:3 ~p:0.4 in
      let db = Digraph.to_database g in
      let ground = Ground.ground p db in
      (* Enumerate all subsets of derivable atoms plus a few sprinkled
         valuations; formula truth must track the fixpoint test. *)
      let atoms = Ground.atoms ground in
      let n = List.length atoms in
      for mask = 0 to min 63 ((1 lsl n) - 1) do
        let subset = List.filteri (fun i _ -> (mask lsr i) land 1 = 1) atoms in
        let s = Ground.to_idb ground subset in
        check bool
          (Printf.sprintf "%s mask %d" name mask)
          (Theta.is_fixpoint p db s)
          (Fixpoint_formula.is_fixpoint_via_formula p db s)
      done)
    phi_programs

let test_phi_existence_sentence () =
  (* exists S-bar phi_pi holds iff a fixpoint exists; witness count =
     fixpoint count. *)
  List.iter
    (fun (name, p) ->
      List.iter
        (fun g ->
          let db = Digraph.to_database g in
          let solver = Solve.prepare p db in
          let sentence = Fixpoint_formula.existence_sentence p in
          check bool
            (name ^ ": existence agrees")
            (Solve.exists solver)
            (Folog.Eso.holds db sentence);
          check int
            (name ^ ": witness count = fixpoint count")
            (Solve.count solver)
            (Fixpoint_formula.count_witnesses p db))
        [ Generate.path 3; Generate.cycle 3; Generate.cycle 4 ])
    phi_programs

let test_phi_unique_fixpoint_logical_form () =
  (* Theorem 2's logical form: unique fixpoint iff exactly one witness. *)
  let p = Datalog.Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y)." in
  List.iter
    (fun (g, expected_unique) ->
      let db = Digraph.to_database g in
      check bool "unique iff one witness" expected_unique
        (Fixpoint_formula.count_witnesses p db = 1))
    [ (Generate.path 3, true); (Generate.cycle 4, false); (Generate.cycle 3, false) ]

(* --- Toggle gadget -------------------------------------------------------- *)

let test_toggle_shapes () =
  let r = Toggle.bare () in
  check bool "bare has empty-head body" true (List.length r.Datalog.Ast.body = 1);
  let g = Toggle.guarded ~guard:"q" ~guard_arity:2 () in
  check int "guarded body size" 2 (List.length g.Datalog.Ast.body)

let () =
  Alcotest.run "reductions"
    [
      ( "pi_sat",
        [
          Alcotest.test_case "existence" `Quick test_pi_sat_existence;
          Alcotest.test_case "bijection" `Quick test_pi_sat_bijection;
          Alcotest.test_case "assignment extraction" `Quick
            test_pi_sat_assignment_extraction;
          Alcotest.test_case "fixpoint construction" `Quick
            test_pi_sat_fixpoint_construction;
          Alcotest.test_case "database roundtrip" `Quick
            test_pi_sat_database_roundtrip;
        ] );
      ( "unique",
        [
          Alcotest.test_case "iff unique sat" `Quick
            test_unique_fixpoint_iff_unique_sat;
        ] );
      ( "least",
        [
          Alcotest.test_case "horn has least" `Quick test_least_fixpoint_horn;
          Alcotest.test_case "disjunction has none" `Quick
            test_no_least_fixpoint_on_disjunction;
        ] );
      ( "fagin",
        [
          Alcotest.test_case "sat sentence" `Quick test_fagin_on_sat_sentence;
          Alcotest.test_case "graph property" `Quick test_fagin_graph_property;
          Alcotest.test_case "bad prefix" `Quick test_fagin_rejects_bad_prefix;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "matches backtracking" `Quick
            test_pi_col_matches_backtracking;
          Alcotest.test_case "fixpoints are colorings" `Quick
            test_pi_col_fixpoints_are_colorings;
          Alcotest.test_case "counts" `Quick
            test_pi_col_fixpoint_count_is_coloring_count;
        ] );
      ( "succinct",
        [
          Alcotest.test_case "matches explicit" `Slow
            test_succinct_matches_explicit;
          Alcotest.test_case "program shape" `Quick test_succinct_program_shape;
        ] );
      ( "distance",
        [
          Alcotest.test_case "inflationary = distance" `Quick
            test_distance_inflationary_is_distance_query;
          Alcotest.test_case "stratified = tc pair" `Quick
            test_distance_stratified_is_tc_pair;
          Alcotest.test_case "semantics differ" `Quick
            test_distance_semantics_differ;
          Alcotest.test_case "stratifiable" `Quick
            test_distance_program_is_stratifiable;
        ] );
      ( "prop1",
        [
          Alcotest.test_case "program to operators" `Quick
            test_prop1_program_to_operators;
          Alcotest.test_case "roundtrip" `Quick test_prop1_roundtrip;
          Alcotest.test_case "rejects universal" `Quick
            test_prop1_rejects_universal_operator;
        ] );
      ("toggle", [ Alcotest.test_case "shapes" `Quick test_toggle_shapes ]);
      ( "classics",
        [
          Alcotest.test_case "all evaluate" `Quick test_classics_all_evaluate;
          Alcotest.test_case "known facts" `Quick test_classics_known_facts;
        ] );
      ( "expressiveness",
        [
          Alcotest.test_case "tc monotone" `Quick test_tc_is_monotone_empirically;
          Alcotest.test_case "distance not monotone" `Quick
            test_distance_is_not_monotone;
          Alcotest.test_case "random violations" `Quick
            test_distance_violations_found_randomly;
          Alcotest.test_case "stage growth" `Quick test_stage_growth;
        ] );
      ( "phi_pi",
        [
          Alcotest.test_case "characterises fixpoints" `Quick
            test_phi_characterises_fixpoints;
          Alcotest.test_case "existence sentence" `Quick
            test_phi_existence_sentence;
          Alcotest.test_case "unique logical form" `Quick
            test_phi_unique_fixpoint_logical_form;
        ] );
    ]
