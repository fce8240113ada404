(* Tests for fixpoint search: the Section 2 census of pi_1's fixpoints on
   paths, cycles and disjoint unions of cycles, brute force vs the SAT
   encoding, and the least-fixpoint characterisation of Theorem 3. *)

open Fixpointlib
module Idb = Evallib.Idb
module Ground = Evallib.Ground
module Theta = Evallib.Theta
module Parser = Datalog.Parser
module Generate = Graphlib.Generate
module Digraph = Graphlib.Digraph
module Relation = Relalg.Relation
module Tuple = Relalg.Tuple

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let pi1 = Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y)."

let pi3 =
  Parser.parse_program_exn "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y)."

let toggle = Parser.parse_program_exn "t(Z) :- !t(W)."

let db_of_graph g = Digraph.to_database g

let solve_of g = Solve.prepare pi1 (db_of_graph g)

let ground_of p g = Ground.ground p (db_of_graph g)

(* --- The paper's census (Section 2) ------------------------------------- *)

let test_path_unique_fixpoint () =
  (* On L_n the program pi_1 has a unique fixpoint: the even positions
     {2, 4, ...} in the paper's 1-based numbering = odd indices 0-based. *)
  for n = 1 to 7 do
    let g = Generate.path n in
    let ground = ground_of pi1 g in
    let fps = Brute.all_fixpoints ground in
    check int (Printf.sprintf "L%d has one fixpoint" n) 1 (List.length fps);
    let expected_vertices =
      List.filter (fun v -> v mod 2 = 1) (Digraph.vertices g)
    in
    let expected =
      List.fold_left
        (fun r v -> Relation.add (Tuple.singleton (Digraph.vertex_symbol v)) r)
        (Relation.empty 1) expected_vertices
    in
    match fps with
    | [ fp ] ->
      let t =
        if Idb.mem fp "t" then Idb.get fp "t" else Relation.empty 1
      in
      check bool
        (Printf.sprintf "L%d fixpoint = even positions" n)
        true
        (Relation.equal t expected)
    | _ -> Alcotest.fail "expected exactly one fixpoint"
  done

let test_cycle_census () =
  (* C_n: no fixpoint for odd n, exactly two for even n. *)
  for n = 2 to 9 do
    let expected = if n mod 2 = 0 then 2 else 0 in
    let count = Brute.count (ground_of pi1 (Generate.cycle n)) in
    check int (Printf.sprintf "C%d" n) expected count
  done

let test_even_cycle_fixpoints_incomparable () =
  let ground = ground_of pi1 (Generate.cycle 6) in
  match Brute.all_fixpoints ground with
  | [ a; b ] ->
    check bool "incomparable" true
      ((not (Idb.subset a b)) && not (Idb.subset b a))
  | _ -> Alcotest.fail "expected two fixpoints"

let test_disjoint_cycles_exponential () =
  (* k disjoint copies of C_4 give 2^k pairwise incomparable fixpoints and
     no least fixpoint (the paper's G_n, with C_4 instead of C_n to keep the
     atom count small). *)
  for k = 1 to 3 do
    let g = Generate.disjoint_copies k (Generate.cycle 4) in
    let ground = ground_of pi1 g in
    let fps = Brute.all_fixpoints ground in
    check int (Printf.sprintf "2^%d fixpoints" k) (1 lsl k) (List.length fps);
    check bool "no least fixpoint" true (Brute.least ground = None);
    (* All pairwise incomparable. *)
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if not (Idb.equal a b) then
              check bool "incomparable" false (Idb.subset a b))
          fps)
      fps
  done

let test_exact_census_matches_enumeration () =
  List.iter
    (fun g ->
      let solver = solve_of g in
      match Solve.count_exact solver with
      | Satlib.Outcome.Lower_bound _ -> Alcotest.fail "budget should suffice"
      | Satlib.Outcome.Exact n ->
        check int "exact = enumerated" (List.length (Solve.enumerate solver)) n)
    [
      Generate.path 5;
      Generate.cycle 4;
      Generate.cycle 5;
      Generate.disjoint_copies 3 (Generate.cycle 4);
      Generate.star 4;
    ]

(* One component with 2^15 + 1 fixpoints: either u(c0) holds and each
   t(X) is free, or it fails and forces every t(X) false.  Without a
   limit, [Solve.count] counts them exactly, where enumeration would take
   one solver call per model; with one, enumeration stops at the cap. *)
let test_census_without_limit () =
  let p =
    Parser.parse_program_exn
      "t(X) :- t(X), u(X0), k(X0). u(X) :- u(X), k(X)."
  in
  let db =
    Relalg.Database.parse_exn
      (String.concat " "
         ("k(c0)." :: List.init 14 (fun i -> Printf.sprintf "d(c%d)." (i + 1))))
  in
  let s = Solve.prepare p db in
  let cnf = Encode.cnf (Encode.build (Solve.ground s)) in
  check int "one component" 1
    (List.length (Satlib.Count.components (Satlib.Cnf.clauses cnf)));
  check int "2^15 + 1 fixpoints" 32_769 (Solve.count s);
  check int "capped" 100 (Solve.count ~limit:100 s)

let test_exact_census_scales_to_big_gn () =
  (* 10 disjoint C_4's: 2^10 fixpoints counted without enumerating them
     (the component decomposition mirrors the graph's disjointness). *)
  let g = Generate.disjoint_copies 10 (Generate.cycle 4) in
  match Solve.count_exact (solve_of g) with
  | Satlib.Outcome.Exact n -> check int "2^10" 1024 n
  | Satlib.Outcome.Lower_bound _ -> Alcotest.fail "components keep this cheap"

(* 2^61 fits in an OCaml int, 2^62 does not: the census product saturates
   into a lower bound instead of wrapping to a negative or zero "exact"
   count. *)
let test_exact_census_overflow () =
  let census k =
    Solve.count_exact (solve_of (Generate.disjoint_copies k (Generate.cycle 4)))
  in
  check bool "61 x C_4 exact" true
    (census 61 = Satlib.Outcome.Exact (1 lsl 61));
  check bool "62 x C_4 saturates" true
    (census 62
    = Satlib.Outcome.Lower_bound (max_int, Satlib.Outcome.Count_overflow))

(* --- Brute force vs SAT -------------------------------------------------- *)

let test_sat_agrees_with_brute_on_census () =
  let graphs =
    [
      Generate.path 3;
      Generate.path 5;
      Generate.cycle 3;
      Generate.cycle 4;
      Generate.cycle 5;
      Generate.cycle 6;
      Generate.disjoint_copies 2 (Generate.cycle 4);
      Generate.star 4;
      Generate.complete 3;
    ]
  in
  List.iter
    (fun g ->
      let ground = ground_of pi1 g in
      let solve = solve_of g in
      check int "counts agree" (Brute.count ground) (Solve.count solve);
      check bool "existence agrees" (Brute.exists ground) (Solve.exists solve);
      check bool "uniqueness agrees" (Brute.has_unique ground)
        (Solve.has_unique solve))
    graphs

let test_sat_agrees_on_random_graphs () =
  List.iter
    (fun seed ->
      let g = Generate.random ~seed ~n:5 ~p:0.3 in
      let ground = ground_of pi1 g in
      let solve = solve_of g in
      check int
        (Printf.sprintf "count seed %d" seed)
        (Brute.count ground) (Solve.count solve))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_found_fixpoints_check_out () =
  List.iter
    (fun seed ->
      let g = Generate.random ~seed:(50 + seed) ~n:5 ~p:0.35 in
      let db = db_of_graph g in
      let solve = Solve.prepare pi1 db in
      List.iter
        (fun fp ->
          check bool "is a fixpoint" true (Theta.is_fixpoint pi1 db fp))
        (Solve.enumerate solve))
    [ 1; 2; 3; 4; 5 ]

(* --- Least fixpoints (Theorem 3) ----------------------------------------- *)

let test_least_on_positive_program () =
  (* A positive program always has a least fixpoint, and it is the naive
     evaluation result. *)
  List.iter
    (fun seed ->
      let g = Generate.random ~seed:(80 + seed) ~n:4 ~p:0.4 in
      let db = db_of_graph g in
      let solve = Solve.prepare pi3 db in
      match Solve.least solve with
      | None -> Alcotest.fail "positive program must have a least fixpoint"
      | Some lfp ->
        check bool "least = naive lfp" true
          (Idb.equal lfp (Evallib.Naive.least_fixpoint pi3 db)))
    [ 1; 2; 3 ]

let test_least_agrees_with_brute () =
  let graphs =
    [
      Generate.path 4;
      Generate.cycle 4;
      Generate.cycle 5;
      Generate.disjoint_copies 2 (Generate.cycle 4);
    ]
  in
  List.iter
    (fun g ->
      let ground = ground_of pi1 g in
      let solve = solve_of g in
      let brute = Brute.least ground in
      let sat = Solve.least solve in
      match (brute, sat) with
      | None, None -> ()
      | Some a, Some b -> check bool "least agree" true (Idb.equal a b)
      | _ -> Alcotest.fail "least-fixpoint existence disagrees")
    graphs

let test_unique_fixpoint_is_least () =
  (* On a path the unique fixpoint is trivially the least one. *)
  let solve = solve_of (Generate.path 5) in
  check bool "unique" true (Solve.has_unique solve);
  check bool "least exists" true (Solve.least solve <> None)

let test_even_cycle_no_least_but_minimal () =
  let solve = solve_of (Generate.cycle 4) in
  check bool "no least" true (Solve.least solve = None);
  match Solve.minimal solve with
  | None -> Alcotest.fail "C4 has fixpoints"
  | Some m ->
    (* A minimal fixpoint of pi_1 on C_4 has exactly 2 elements. *)
    check int "minimal size" 2 (Idb.total_cardinal m)

let test_intersection_on_even_cycle () =
  (* The two fixpoints on C_4 are disjoint, so the intersection is empty —
     and empty is not a fixpoint (every vertex has a predecessor). *)
  let solve = solve_of (Generate.cycle 4) in
  match Solve.intersection solve with
  | None -> Alcotest.fail "C4 has fixpoints"
  | Some inter -> check int "empty intersection" 0 (Idb.total_cardinal inter)

(* pi_SAT's census counted exactly.  Multiplied out, the toggle rule's
   |A|^3 instances put this 3-variable instance past 1,000 counting nodes
   (and the 5-variable one past minutes); factored, both are small. *)
let test_exact_census_pi_sat () =
  let exact cnf =
    Solve.count_exact ~budget:1_000 (Reductions.Sat_db.solver cnf)
  in
  let forced = Satlib.Workload.forced_sat ~seed:1 ~vars:3 ~clauses:8 ~k:3 in
  check bool "forced_sat 3v 8c: Exact 3" true
    (exact forced = Satlib.Outcome.Exact 3);
  let random = Satlib.Workload.random_3cnf ~seed:4 ~vars:5 ~clauses:10 in
  let models = Satlib.Brute.count_models random in
  check int "random_3cnf 5v 10c has 5 models" 5 models;
  check bool "random_3cnf 5v 10c: Exact 5" true
    (exact random = Satlib.Outcome.Exact models)

(* --- Factoring ------------------------------------------------------------ *)

let test_factoring_toggle_shape () =
  (* The toggle rule grounds to one aux atom per component, each defined
     by |A| instances, and |A| instances of its own; q's rule has no
     component to factor. *)
  let p = Parser.parse_program_exn "t(Z) :- !q(U), !t(W). q(X) :- e(X, X)." in
  let db =
    Relalg.Database.of_facts ~universe:[ "a"; "b"; "c" ] [ ("e", [ "a"; "a" ]) ]
  in
  let g = Ground.ground p db in
  check int "program atoms q(a), t(a), t(b), t(c)" 4 (Ground.atom_count g);
  check int "two aux atoms" 2 (Ground.aux_count g);
  check int "encoded instances: 1 + 3 + 3 + 3" 10 (Ground.rule_count g);
  check int "the program's own: 1 + 27" 28 (Ground.instance_count g);
  check int "the program's own, listed" 28
    (List.length (String.split_on_char '\n' (Format.asprintf "%a" Ground.pp g)))

let test_factoring_shrinks_pi_sat () =
  (* pi_SAT on a small instance: the toggle rule's |A|^3 instances
     collapse to 3|A|. *)
  let cnf = Satlib.Workload.random_3cnf ~seed:2 ~vars:6 ~clauses:12 in
  let g = Solve.ground (Reductions.Sat_db.solver cnf) in
  check bool "rules shrink by >10x" true
    (Ground.rule_count g * 10 < Ground.instance_count g)

let test_factoring_keeps_components_apart () =
  (* [!e(Z, X)] reads no IDB atom, so its aux atoms always hold; q is
     underivable, so no instance reads the aux atoms of [r(Z, Y)].
     Neither may tie r's atoms together in the encoding: unfactored, each
     r(x, y) is a component of its own, and the census multiplies sixteen
     counts of 2 instead of enumerating 65,536 models. *)
  let p =
    Parser.parse_program_exn
      "r(Y, Y) :- r(Z, Y), q(X), !p(Y).\n\
       r(X, Y) :- r(X, Y), !e(Z, X).\n\
       q(Y) :- p(X)."
  in
  let db =
    Relalg.Database.of_facts
      ~universe:[ "v0"; "v1"; "v2"; "v3" ]
      [ ("e", [ "v0"; "v1" ]); ("e", [ "v1"; "v0" ]); ("e", [ "v3"; "v2" ]) ]
  in
  let s = Solve.prepare p db in
  let g = Solve.ground s in
  check int "one aux atom per x, none per y" 4 (Ground.aux_count g);
  let comps =
    Satlib.Count.components
      (Satlib.Cnf.clauses (Encode.cnf (Encode.build g)))
  in
  check int "each r atom is a component of its own" 16
    (List.length
       (List.filter
          (fun (_, vs) ->
            Satlib.Count.ISet.exists (fun v -> v <= Ground.atom_count g) vs)
          comps));
  check int "census" 65_536 (Solve.count s)

let test_factoring_census_on_pi_sat () =
  let cnf = Satlib.Cnf.of_list 3 [ [ 1; 2 ]; [ -2; 3 ] ] in
  let solve = Reductions.Sat_db.solver cnf in
  let models = Satlib.Brute.count_models cnf in
  check int "fixpoints = models" models (Solve.count solve);
  check bool "uniqueness agrees" (models = 1) (Solve.has_unique solve)

(* --- Toggle rule --------------------------------------------------------- *)

let test_toggle_no_fixpoint () =
  (* T(z) <- !T(w) has no fixpoint on any nonempty universe. *)
  for n = 1 to 4 do
    let db = Relalg.Database.create_ints n in
    let solve = Solve.prepare toggle db in
    check bool (Printf.sprintf "toggle n=%d" n) false (Solve.exists solve);
    check bool "brute agrees" false (Brute.exists (Ground.ground toggle db))
  done

let test_conditional_toggle () =
  (* T(z) <- !Q(u), !T(w) with Q IDB but underivable: still no fixpoint.
     With Q covering the universe (via an EDB copy rule), T = empty works. *)
  let p = Parser.parse_program_exn "q(X) :- base(X). t(Z) :- !q(U), !t(W)." in
  let full =
    Relalg.Database.of_facts ~universe:[ "a"; "b" ]
      [ ("base", [ "a" ]); ("base", [ "b" ]) ]
  in
  let partial =
    Relalg.Database.of_facts ~universe:[ "a"; "b" ] [ ("base", [ "a" ]) ]
  in
  check bool "full coverage: fixpoint exists" true
    (Solve.exists (Solve.prepare p full));
  check bool "gap in q: no fixpoint" false
    (Solve.exists (Solve.prepare p partial))

(* --- Limit programs ------------------------------------------------------ *)

(* Grounding keeps every candidate tuple, which is not the limit reading
   (on examples/shortest_path it found one "stable model" with dist =
   {(a, 0)}), so the fixpoint search and the grounding refuse limit
   programs. *)
let test_limits_refused () =
  let p =
    Parser.parse_program_exn
      "dist min 2. dist(X, 0) :- source(X). dist(Y, S) :- dist(X, D), \
       edge(X, Y, W), S = D + W. near(X) :- dist(X, D), D <= 2. far(X) :- \
       node(X), !near(X)."
  in
  let db =
    Relalg.Database.parse_exn
      "source(a). edge(a, b, 1). edge(b, c, 1). edge(c, d, 1). edge(a, c, \
       5). edge(b, d, 9). node(a). node(b). node(c). node(d)."
  in
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a limit program" name
    | exception Invalid_argument msg ->
      check bool (name ^ " names the declaration") true
        (String.ends_with msg
           ~suffix:
             "limit predicates (dist min) require the stratified semantics")
  in
  refused "Solve.prepare" (fun () -> ignore (Solve.prepare p db));
  refused "Ground.ground" (fun () -> ignore (Ground.ground p db))

(* --- Minimal fixpoints --------------------------------------------------- *)

let test_minimal_is_fixpoint_and_minimal () =
  let g = Generate.disjoint_copies 2 (Generate.cycle 4) in
  let db = db_of_graph g in
  let solve = Solve.prepare pi1 db in
  match Solve.minimal solve with
  | None -> Alcotest.fail "fixpoints exist"
  | Some m ->
    check bool "is fixpoint" true (Theta.is_fixpoint pi1 db m);
    let all = Brute.all_fixpoints (Ground.ground pi1 db) in
    check bool "nothing strictly below" true
      (not
         (List.exists
            (fun s -> (not (Idb.equal s m)) && Idb.subset s m)
            all))

let test_brute_minimal_census () =
  (* On 2 disjoint C_4's all four fixpoints are minimal. *)
  let g = Generate.disjoint_copies 2 (Generate.cycle 4) in
  let ground = ground_of pi1 g in
  check int "all minimal" 4 (List.length (Brute.minimal_fixpoints ground))

(* --- Differential battery ------------------------------------------------- *)

let option_equal eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | _ -> false

(* Random DATALOG-not programs: the whole Section 3 query suite, answered
   through the SAT encoding, must agree with brute-force enumeration of all
   fixpoints. *)
let prop_queries_match_brute =
  QCheck.Test.make
    ~name:"differential: exists/census/least/intersection = brute"
    ~count:500 ~max_gen:100_000 Testsupport.Gen_programs.arb_case
    (fun (p, db) ->
      let ground = Ground.ground p db in
      QCheck.assume (Ground.atom_count ground <= 10);
      let fps = Brute.all_fixpoints ground in
      let expected_count = List.length fps in
      let expected_least = Brute.least ground in
      let expected_inter =
        match fps with
        | [] -> None
        | first :: rest -> Some (List.fold_left Idb.inter first rest)
      in
      let s = Solve.prepare p db in
      Solve.exists s = (fps <> [])
      && (match Solve.count_exact ~budget:500_000 s with
         | Satlib.Outcome.Exact n -> n = expected_count
         | Satlib.Outcome.Lower_bound _ -> false)
      && Solve.count s = expected_count
      && option_equal Idb.equal (Solve.least s) expected_least
      && option_equal Idb.equal (Solve.intersection s) expected_inter)

(* The same queries against an oracle that shares no code with the
   grounding: the reference's brute-force fixpoints over its own
   grounding, and its Kripke-Kleene model.  The two-component bodies of
   [arb_hoist_case] are the toggle shape: their rule [h] factors. *)
module Reference = Testsupport.Reference

let facts_of_idb s = Reference.facts_of_bindings (Idb.bindings s)

let agrees_with_reference (p, db) =
  let d = Reference.of_database db in
  let s = Solve.prepare p db in
  let fixpoint_queries =
    Reference.fixpoint_search_size p d > 16
    ||
    let fps = Reference.fixpoints p d in
    let n = List.length fps in
    let inter =
      match fps with
      | [] -> None
      | f :: rest -> Some (List.fold_left Reference.Facts.inter f rest)
    in
    let least =
      match inter with
      | Some i when List.exists (Reference.Facts.equal i) fps -> Some i
      | _ -> None
    in
    let as_set l = List.sort_uniq Reference.Facts.compare l in
    let facts = Option.map facts_of_idb in
    Solve.exists s = (n > 0)
    && Solve.count s = n
    && Solve.count_exact ~budget:500_000 s = Satlib.Outcome.Exact n
    && List.equal Reference.Facts.equal
         (as_set (List.map facts_of_idb (Solve.enumerate s)))
         (as_set fps)
    && option_equal Reference.Facts.equal (facts (Solve.least s)) least
    && option_equal Reference.Facts.equal (facts (Solve.intersection s)) inter
  in
  let kk = Evallib.Fitting.eval p db in
  let kk_true, kk_possible = Reference.kripke_kleene p d in
  let wf = Evallib.Wellfounded.eval p db in
  let uf = Evallib.Unfounded.eval p db in
  fixpoint_queries
  && Reference.Facts.equal (facts_of_idb kk.Evallib.Fitting.true_facts) kk_true
  && Reference.Facts.equal (facts_of_idb kk.Evallib.Fitting.possible) kk_possible
  && Idb.equal wf.Evallib.Wellfounded.true_facts uf.Evallib.Wellfounded.true_facts
  && Idb.equal wf.Evallib.Wellfounded.possible uf.Evallib.Wellfounded.possible

let prop_reference =
  QCheck.Test.make ~name:"fixpoints, Kripke-Kleene, unfounded = reference"
    ~count:300 Testsupport.Gen_programs.arb_case agrees_with_reference

let prop_reference_two_components =
  QCheck.Test.make
    ~name:"fixpoints, Kripke-Kleene, unfounded = reference (two components)"
    ~count:100 Testsupport.Gen_programs.arb_hoist_case agrees_with_reference

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_queries_match_brute ]

let () =
  Alcotest.run "fixpoint"
    [
      ( "census",
        [
          Alcotest.test_case "path unique" `Quick test_path_unique_fixpoint;
          Alcotest.test_case "cycle parity" `Quick test_cycle_census;
          Alcotest.test_case "even cycle incomparable" `Quick
            test_even_cycle_fixpoints_incomparable;
          Alcotest.test_case "disjoint cycles 2^k" `Quick
            test_disjoint_cycles_exponential;
          Alcotest.test_case "exact census" `Quick
            test_exact_census_matches_enumeration;
          Alcotest.test_case "exact census scales" `Quick
            test_exact_census_scales_to_big_gn;
          Alcotest.test_case "exact census overflow" `Quick
            test_exact_census_overflow;
          Alcotest.test_case "exact census on pi_SAT" `Quick
            test_exact_census_pi_sat;
          Alcotest.test_case "census without a limit" `Quick
            test_census_without_limit;
        ] );
      ( "factoring",
        [
          Alcotest.test_case "toggle shape" `Quick test_factoring_toggle_shape;
          Alcotest.test_case "shrinks grounding" `Quick
            test_factoring_shrinks_pi_sat;
          Alcotest.test_case "census on pi_SAT" `Quick
            test_factoring_census_on_pi_sat;
          Alcotest.test_case "components stay apart" `Quick
            test_factoring_keeps_components_apart;
        ] );
      ( "sat-vs-brute",
        [
          Alcotest.test_case "census graphs" `Quick
            test_sat_agrees_with_brute_on_census;
          Alcotest.test_case "random graphs" `Quick
            test_sat_agrees_on_random_graphs;
          Alcotest.test_case "models are fixpoints" `Quick
            test_found_fixpoints_check_out;
        ] );
      ( "least",
        [
          Alcotest.test_case "positive program" `Quick
            test_least_on_positive_program;
          Alcotest.test_case "agrees with brute" `Quick
            test_least_agrees_with_brute;
          Alcotest.test_case "unique implies least" `Quick
            test_unique_fixpoint_is_least;
          Alcotest.test_case "even cycle minimal" `Quick
            test_even_cycle_no_least_but_minimal;
          Alcotest.test_case "intersection" `Quick
            test_intersection_on_even_cycle;
        ] );
      ( "toggle",
        [
          Alcotest.test_case "no fixpoint" `Quick test_toggle_no_fixpoint;
          Alcotest.test_case "conditional" `Quick test_conditional_toggle;
        ] );
      ("limits", [ Alcotest.test_case "refused" `Quick test_limits_refused ]);
      ( "minimal",
        [
          Alcotest.test_case "solve minimal" `Quick
            test_minimal_is_fixpoint_and_minimal;
          Alcotest.test_case "brute census" `Quick test_brute_minimal_census;
        ] );
      ("parallel", qcheck_tests);
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [ prop_reference; prop_reference_two_components ] );
    ]
