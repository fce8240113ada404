(* Tests for the evaluation engines: the immediate consequence operator,
   naive/semi-naive least fixpoints, inflationary semantics, stratified
   semantics, the well-founded model, and grounding.  The workloads are the
   paper's own examples: pi_1 = T(x) <- E(y,x), !T(y) on paths and cycles,
   the transitive-closure program pi_3, and the toggle rule. *)

open Evallib
module Ast = Datalog.Ast
module Parser = Datalog.Parser
module Relation = Relalg.Relation
module Tuple = Relalg.Tuple
module Digraph = Graphlib.Digraph
module Generate = Graphlib.Generate
module Traverse = Graphlib.Traverse

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* The paper's programs, in concrete syntax. *)
let pi1 = Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y)."

let pi3 =
  Parser.parse_program_exn "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y)."

let toggle = Parser.parse_program_exn "t(Z) :- !t(W)."

let db_of_graph g = Digraph.to_database g

let vsym = Digraph.vertex_symbol

(* Relation {(vi, vj) : (i, j) in edges g} for comparisons. *)
let relation_of_graph g =
  List.fold_left
    (fun r (u, v) -> Relation.add (Tuple.pair (vsym u) (vsym v)) r)
    (Relation.empty 2) (Digraph.edges g)

let unary_of_vertices vs =
  List.fold_left
    (fun r v -> Relation.add (Tuple.singleton (vsym v)) r)
    (Relation.empty 1) vs

(* --- Theta -------------------------------------------------------------- *)

let test_theta_empty_idb () =
  (* Theta(empty) for pi_1 on L_3: T gets every vertex with a predecessor,
     because !T(y) is vacuously true. *)
  let db = db_of_graph (Generate.path 3) in
  let s0 = Idb.of_program pi1 in
  let s1 = Theta.apply pi1 db s0 in
  check bool "T = {v1, v2}" true
    (Relation.equal (Idb.get s1 "t") (unary_of_vertices [ 1; 2 ]))

let test_theta_fixpoint_detection () =
  (* On L_4 = 0->1->2->3 the unique fixpoint of pi_1 is {1, 3} (paper: even
     positions with 1-based vertex numbering). *)
  let db = db_of_graph (Generate.path 4) in
  let fp = Idb.set (Idb.of_program pi1) "t" (unary_of_vertices [ 1; 3 ]) in
  check bool "fixpoint" true (Theta.is_fixpoint pi1 db fp);
  let not_fp = Idb.set (Idb.of_program pi1) "t" (unary_of_vertices [ 1 ]) in
  check bool "not a fixpoint" false (Theta.is_fixpoint pi1 db not_fp)

let test_theta_odd_cycle_no_fixpoint () =
  (* C_3: no subset of vertices is a fixpoint. *)
  let db = db_of_graph (Generate.cycle 3) in
  for mask = 0 to 7 do
    let vs = List.filter (fun v -> (mask lsr v) land 1 = 1) [ 0; 1; 2 ] in
    let s = Idb.set (Idb.of_program pi1) "t" (unary_of_vertices vs) in
    check bool "no fixpoint on C3" false (Theta.is_fixpoint pi1 db s)
  done

let test_theta_even_cycle_two_fixpoints () =
  let db = db_of_graph (Generate.cycle 4) in
  let evens = Idb.set (Idb.of_program pi1) "t" (unary_of_vertices [ 0; 2 ]) in
  let odds = Idb.set (Idb.of_program pi1) "t" (unary_of_vertices [ 1; 3 ]) in
  check bool "evens fixpoint" true (Theta.is_fixpoint pi1 db evens);
  check bool "odds fixpoint" true (Theta.is_fixpoint pi1 db odds);
  let all = Idb.set (Idb.of_program pi1) "t" (unary_of_vertices [ 0; 1; 2; 3 ]) in
  check bool "all is not" false (Theta.is_fixpoint pi1 db all)

let test_theta_iterate_converges_on_path () =
  (* On paths the naive Theta iteration from empty actually reaches the
     unique fixpoint of pi_1. *)
  let db = db_of_graph (Generate.path 4) in
  match Theta.iterate pi1 db (Idb.of_program pi1) with
  | Theta.Reached_fixpoint { fixpoint; steps } ->
    check bool "is the unique fixpoint" true
      (Relation.equal (Idb.get fixpoint "t") (unary_of_vertices [ 1; 3 ]));
    check bool "few steps" true (steps <= 8)
  | _ -> Alcotest.fail "expected convergence"

let test_theta_iterate_oscillates_on_cycles () =
  (* On cycles (odd or even) the orbit is empty <-> everything: period 2,
     and the iteration never discovers the even cycle's two fixpoints. *)
  List.iter
    (fun n ->
      let db = db_of_graph (Generate.cycle n) in
      match Theta.iterate pi1 db (Idb.of_program pi1) with
      | Theta.Entered_cycle { period; entry; states } ->
        check int (Printf.sprintf "C%d period" n) 2 period;
        check int "from the start" 0 entry;
        check int "two states" 2 (List.length states)
      | _ -> Alcotest.fail "expected oscillation")
    [ 3; 4; 5; 6 ]

let test_theta_iterate_toggle () =
  let db = db_of_graph (Generate.path 3) in
  match Theta.iterate toggle db (Idb.of_program toggle) with
  | Theta.Entered_cycle { period; _ } -> check int "toggle period" 2 period
  | _ -> Alcotest.fail "expected oscillation"

let test_theta_iterate_positive_reaches_lfp () =
  let g = Generate.random ~seed:9 ~n:5 ~p:0.3 in
  let db = db_of_graph g in
  match Theta.iterate pi3 db (Idb.of_program pi3) with
  | Theta.Reached_fixpoint { fixpoint; _ } ->
    check bool "equals naive lfp" true
      (Idb.equal fixpoint (Naive.least_fixpoint pi3 db))
  | _ -> Alcotest.fail "monotone iteration must converge"

(* --- Naive / least fixpoint --------------------------------------------- *)

(* Theta-hat by its definition: S := S union Theta(S) from the empty
   valuation until nothing changes, every rule through its full plan —
   the naive iteration the semi-naive chase must agree with. *)
let naive_inflationary p db =
  let rec go s =
    let s' = Theta.inflate p db s in
    if Idb.equal s' s then s else go s'
  in
  go (Idb.of_program p)

let tc_via_datalog g = Idb.get (Naive.least_fixpoint pi3 (db_of_graph g)) "s"

let test_tc_on_path () =
  let g = Generate.path 5 in
  check bool "tc path" true
    (Relation.equal (tc_via_datalog g)
       (relation_of_graph (Traverse.transitive_closure g)))

let test_tc_on_random_graphs () =
  for seed = 1 to 12 do
    let g = Generate.random ~seed ~n:8 ~p:0.2 in
    let expected = relation_of_graph (Traverse.transitive_closure g) in
    check bool
      (Printf.sprintf "tc random seed %d (seminaive)" seed)
      true
      (Relation.equal (tc_via_datalog g) expected);
    check bool
      (Printf.sprintf "tc random seed %d (naive)" seed)
      true
      (Relation.equal
         (Idb.get (naive_inflationary pi3 (db_of_graph g)) "s")
         expected)
  done

let test_naive_rejects_negation () =
  let db = db_of_graph (Generate.path 2) in
  Alcotest.check_raises "negation rejected"
    (Invalid_argument
       "Naive.least_fixpoint: the program uses negation or inequality; use \
        the inflationary, stratified or well-founded semantics instead")
    (fun () -> ignore (Naive.least_fixpoint pi1 db))

let test_least_fixpoint_is_fixpoint () =
  for seed = 1 to 8 do
    let g = Generate.random ~seed ~n:6 ~p:0.3 in
    let db = db_of_graph g in
    let lfp = Naive.least_fixpoint pi3 db in
    check bool (Printf.sprintf "lfp is fixpoint %d" seed) true
      (Theta.is_fixpoint pi3 db lfp)
  done

(* --- Inflationary ------------------------------------------------------- *)

let test_inflationary_toggle () =
  (* Theta-infinity of the toggle rule is the whole universe (Section 4). *)
  let db = db_of_graph (Generate.path 4) in
  let result = Inflationary.eval toggle db in
  check int "everything" 4 (Relation.cardinal (Idb.get result "t"))

let test_inflationary_pi1 () =
  (* Section 4: for pi_1, Theta-infinity = Theta^1 = {x : exists y E(y,x)}. *)
  for n = 2 to 6 do
    let g = Generate.cycle n in
    let db = db_of_graph g in
    let result = Inflationary.eval pi1 db in
    let expected = unary_of_vertices (Digraph.vertices g) in
    check bool (Printf.sprintf "C%d saturates" n) true
      (Relation.equal (Idb.get result "t") expected)
  done;
  let db = db_of_graph (Generate.path 4) in
  let result = Inflationary.eval pi1 db in
  check bool "L4: all but the source" true
    (Relation.equal (Idb.get result "t") (unary_of_vertices [ 1; 2; 3 ]))

let test_inflationary_equals_lfp_on_positive () =
  for seed = 1 to 10 do
    let g = Generate.random ~seed:(100 + seed) ~n:7 ~p:0.25 in
    let db = db_of_graph g in
    check bool (Printf.sprintf "seed %d" seed) true
      (Idb.equal (Inflationary.eval pi3 db) (Naive.least_fixpoint pi3 db))
  done

let test_inflationary_engines_agree () =
  let programs =
    [
      pi1;
      pi3;
      toggle;
      Parser.parse_program_exn
        "p(X) :- e(X, Y), !q(Y). q(X) :- e(Y, X), !p(X). r(X, Y) :- p(X), q(Y), X != Y.";
    ]
  in
  List.iter
    (fun p ->
      for seed = 1 to 6 do
        let g = Generate.random ~seed:(200 + seed) ~n:5 ~p:0.3 in
        let db = db_of_graph g in
        check bool "engines agree" true
          (Idb.equal (naive_inflationary p db) (Inflationary.eval p db))
      done)
    programs

let test_inflationary_stages () =
  (* On the path 0->1->...->5, s(0, k) enters the TC at stage k. *)
  let db = db_of_graph (Generate.path 6) in
  let trace = Inflationary.eval_trace pi3 db in
  for k = 1 to 5 do
    check (Alcotest.option Alcotest.int)
      (Printf.sprintf "stage of (0,%d)" k)
      (Some k)
      (Saturate.stage_of trace "s" (Tuple.pair (vsym 0) (vsym k)))
  done

let test_inflationary_monotone_stages () =
  (* The trace deltas are disjoint and union to the result. *)
  let g = Generate.random ~seed:42 ~n:6 ~p:0.3 in
  let db = db_of_graph g in
  let trace = Inflationary.eval_trace pi1 db in
  let union =
    List.fold_left Idb.union (Idb.of_program pi1) trace.Saturate.deltas
  in
  check bool "deltas union to result" true
    (Idb.equal union trace.Saturate.result)

(* --- Stratified --------------------------------------------------------- *)

let strat_prog =
  (* Reachable pairs, and unreachable pairs via negation: two strata. *)
  Parser.parse_program_exn
    "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y).\n\
     u(X, Y) :- !s(X, Y)."

let test_stratified_negation_of_tc () =
  let g = Generate.path 3 in
  let db = db_of_graph g in
  let result = Stratified.eval_exn strat_prog db in
  let tc = relation_of_graph (Traverse.transitive_closure g) in
  check bool "s = tc" true (Relation.equal (Idb.get result "s") tc);
  let universe_sq = Relation.full (Relalg.Database.universe db) 2 in
  check bool "u = complement" true
    (Relation.equal (Idb.get result "u") (Relation.diff universe_sq tc))

let test_stratified_rejects_toggle () =
  let db = db_of_graph (Generate.path 2) in
  match Stratified.eval toggle db with
  | Error (Stratified.Not_stratifiable _) -> ()
  | Error (Stratified.Not_limit_stratifiable _) ->
    Alcotest.fail "toggle has no limits"
  | Ok _ -> Alcotest.fail "toggle rule must not stratify"

let test_stratified_agrees_with_naive_on_positive () =
  for seed = 1 to 8 do
    let g = Generate.random ~seed:(300 + seed) ~n:6 ~p:0.3 in
    let db = db_of_graph g in
    check bool (Printf.sprintf "seed %d" seed) true
      (Idb.equal (Stratified.eval_exn pi3 db) (Naive.least_fixpoint pi3 db))
  done

(* --- Well-founded ------------------------------------------------------- *)

let test_wellfounded_toggle_unknown () =
  (* The toggle rule's well-founded model leaves everything unknown. *)
  let db = db_of_graph (Generate.path 3) in
  let m = Wellfounded.eval toggle db in
  check bool "nothing true" true (Idb.is_empty m.Wellfounded.true_facts);
  check int "all unknown" 3 (Idb.total_cardinal (Wellfounded.unknown m))

let test_wellfounded_total_on_stratified () =
  for seed = 1 to 6 do
    let g = Generate.random ~seed:(400 + seed) ~n:5 ~p:0.3 in
    let db = db_of_graph g in
    let m = Wellfounded.eval strat_prog db in
    check bool "total" true (Wellfounded.is_total m);
    check bool "equals stratified" true
      (Idb.equal m.Wellfounded.true_facts (Stratified.eval_exn strat_prog db))
  done

let test_wellfounded_win_move () =
  (* The game program win(X) :- e(X, Y), !win(Y) on the path 0->1->2->3:
     positions 0 and 2 are winning (move to a losing position), 1 and 3
     losing; everything is determined. *)
  let win = Parser.parse_program_exn "win(X) :- e(X, Y), !win(Y)." in
  let db = db_of_graph (Generate.path 4) in
  let m = Wellfounded.eval win db in
  check bool "total" true (Wellfounded.is_total m);
  check bool "win = {0, 2}" true
    (Relation.equal
       (Idb.get m.Wellfounded.true_facts "win")
       (unary_of_vertices [ 0; 2 ]));
  (* A bare 2-cycle is a draw: neither position has a losing successor, so
     both are unknown in the well-founded model. *)
  let g = Digraph.make 2 [ (0, 1); (1, 0) ] in
  let m = Wellfounded.eval win (db_of_graph g) in
  check bool "cycle undetermined" false (Wellfounded.is_total m);
  check int "both unknown" 2 (Idb.total_cardinal (Wellfounded.unknown m))

let test_reduct_antimonotone () =
  (* A is anti-monotone: S <= S' implies A(S') <= A(S). *)
  let db = db_of_graph (Generate.cycle 5) in
  let a = Wellfounded.reduct_fixpoint pi1 db in
  let small = Idb.of_program pi1 in
  let big = Idb.set small "t" (unary_of_vertices [ 0; 1; 2; 3; 4 ]) in
  check bool "antimonotone" true (Idb.subset (a big) (a small))

(* --- Kripke-Kleene (Fitting) --------------------------------------------- *)

let test_fitting_on_stratified_matches () =
  (* On this stratified program Kripke-Kleene is total and agrees with the
     stratified semantics. *)
  let db = db_of_graph (Generate.path 3) in
  let m = Fitting.eval strat_prog db in
  check bool "total" true (Fitting.is_total m);
  check bool "equals stratified" true
    (Idb.equal m.Fitting.true_facts (Stratified.eval_exn strat_prog db))

let test_fitting_less_decided_than_wf () =
  (* The positive loop p :- p: Kripke-Kleene leaves p unknown, the
     well-founded semantics makes it false. *)
  let p = Parser.parse_program_exn "p(X) :- p(X)." in
  let db = Relalg.Database.create_strings [ "a" ] in
  let kk = Fitting.eval p db in
  check int "kk leaves p unknown" 1 (Idb.total_cardinal (Fitting.unknown kk));
  let wf = Wellfounded.eval p db in
  check bool "wf decides everything" true (Wellfounded.is_total wf);
  check bool "wf makes p false" true (Idb.is_empty wf.Wellfounded.true_facts)

let test_fitting_refines_into_wf () =
  (* KK-true within WF-true and KK-possible contains WF-possible, on a few
     programs and graphs. *)
  let programs =
    [ pi1; strat_prog; Parser.parse_program_exn "win(X) :- e(X, Y), !win(Y)." ]
  in
  List.iter
    (fun p ->
      for seed = 1 to 4 do
        let db = db_of_graph (Generate.random ~seed:(130 + seed) ~n:4 ~p:0.35) in
        let kk = Fitting.eval p db in
        let wf = Wellfounded.eval p db in
        check bool "kk true within wf true" true
          (Idb.subset kk.Fitting.true_facts wf.Wellfounded.true_facts);
        check bool "wf possible within kk possible" true
          (Idb.subset wf.Wellfounded.possible kk.Fitting.possible)
      done)
    programs

let test_fitting_toggle_unknown () =
  let db = db_of_graph (Generate.path 2) in
  let m = Fitting.eval toggle db in
  check bool "nothing true" true (Idb.is_empty m.Fitting.true_facts);
  check int "everything unknown" 2 (Idb.total_cardinal (Fitting.unknown m))

let test_unfounded_positive_loop () =
  (* p :- p has no external support: the greatest unfounded set contains it
     from the very first interpretation, so WF makes it false. *)
  let p = Parser.parse_program_exn "p(X) :- p(X)." in
  let db = Relalg.Database.create_strings [ "a" ] in
  let g = Ground.ground p db in
  let empty = Idb.of_program p in
  (match
     Unfounded.greatest_unfounded_set g ~true_facts:empty ~false_facts:empty
   with
  | [ a ] -> check bool "p(a) unfounded" true (a.Ground.pred = "p")
  | _ -> Alcotest.fail "expected exactly one unfounded atom");
  let m = Unfounded.eval p db in
  check bool "wf false" true (Idb.is_empty m.Wellfounded.true_facts);
  check bool "total" true (Wellfounded.is_total m)

let test_unfounded_agrees_on_examples () =
  List.iter
    (fun (prog, g) ->
      let db = db_of_graph g in
      let a = Wellfounded.eval prog db in
      let b = Unfounded.eval prog db in
      check bool "same true facts" true
        (Idb.equal a.Wellfounded.true_facts b.Wellfounded.true_facts);
      check bool "same unknowns" true
        (Idb.equal (Wellfounded.unknown a) (Wellfounded.unknown b)))
    [
      (pi1, Generate.cycle 4);
      (pi1, Generate.path 5);
      (Parser.parse_program_exn "win(X) :- e(X, Y), !win(Y).", Generate.path 4);
      (toggle, Generate.path 3);
      (strat_prog, Generate.random ~seed:77 ~n:4 ~p:0.3);
    ]

(* --- Grounding ---------------------------------------------------------- *)

let test_ground_counts () =
  (* pi_1 on L_3: instances T(x) <- E(y, x), !T(y) for each edge (y, x). *)
  let db = db_of_graph (Generate.path 3) in
  let g = Ground.ground pi1 db in
  check int "two instances" 2 (Ground.rule_count g);
  check int "two derivable atoms" 2 (Ground.atom_count g)

let test_ground_apply_agrees_with_theta () =
  let programs = [ pi1; pi3; toggle; strat_prog ] in
  List.iter
    (fun p ->
      for seed = 1 to 5 do
        let graph = Generate.random ~seed:(500 + seed) ~n:4 ~p:0.35 in
        let db = db_of_graph graph in
        let g = Ground.ground p db in
        (* Walk the inflationary stages; each stays within the derivable
           atoms, where ground application must equal Theta. *)
        let rec walk s n =
          if n = 0 then ()
          else begin
            let via_theta = Theta.apply p db s in
            let via_ground = Ground.apply g s in
            check bool "ground = theta" true (Idb.equal via_theta via_ground);
            walk (Idb.union s via_theta) (n - 1)
          end
        in
        walk (Idb.of_program p) 4
      done)
    programs

let test_ground_toggle_shape () =
  (* Toggle on a 2-element universe: t(a) <- !t(a); t(a) <- !t(b); etc. *)
  let db = Relalg.Database.create_strings [ "a"; "b" ] in
  let g = Ground.ground toggle db in
  check int "atoms" 2 (Ground.atom_count g);
  check int "instances" 4 (Ground.rule_count g)

let test_ground_prunes_underivable () =
  (* p(X) <- q(X): q is IDB (appears as a head) but underivable on an empty
     database, so everything collapses. *)
  let p = Parser.parse_program_exn "p(X) :- q(X). q(X) :- q(X), r(X)." in
  let db = Relalg.Database.create_strings [ "a" ] in
  let g = Ground.ground p db in
  check int "no derivable atoms" 0 (Ground.atom_count g)

(* --- Provenance ----------------------------------------------------------- *)

let test_provenance_tc_chain () =
  let db = db_of_graph (Generate.path 4) in
  match
    Provenance.explain pi3 db ~pred:"s" (Tuple.pair (vsym 0) (vsym 3))
  with
  | None -> Alcotest.fail "fact is derivable"
  | Some j ->
    check int "entered at stage 3" 3 j.Provenance.stage;
    check bool "consistent" true (Provenance.check j);
    (* The chain has depth 3: s(0,3) <- s(1,3) <- s(2,3) <- e(2,3). *)
    let rec depth j =
      1
      + List.fold_left (fun acc s -> max acc (depth s)) 0 j.Provenance.supports
    in
    check int "depth" 3 (depth j)

let test_provenance_negative_literal () =
  (* pi_1 on C_4: t(v1) fires at stage 1 because t(v0) was absent then —
     although t(v0) also enters at stage 1. *)
  let db = db_of_graph (Generate.cycle 4) in
  match Provenance.explain pi1 db ~pred:"t" (Tuple.singleton (vsym 1)) with
  | None -> Alcotest.fail "derivable"
  | Some j ->
    check int "stage 1" 1 j.Provenance.stage;
    check bool "consistent" true (Provenance.check j);
    (match j.Provenance.absences with
    | [ (a, entered) ] ->
      check bool "negated t(v0)" true
        (a.Ground.pred = "t" && Tuple.equal a.Ground.tuple (Tuple.singleton (vsym 0)));
      check (Alcotest.option int) "which also entered at 1" (Some 1) entered
    | _ -> Alcotest.fail "expected one absence")

let test_provenance_underivable () =
  let db = db_of_graph (Generate.path 3) in
  check bool "no justification for absent fact" true
    (Provenance.explain pi3 db ~pred:"s" (Tuple.pair (vsym 2) (vsym 0)) = None)

let test_provenance_all_facts_explainable () =
  (* Every fact of the inflationary semantics has a consistent
     justification. *)
  let programs = [ pi1; pi3; strat_prog ] in
  List.iter
    (fun p ->
      let g = Generate.random ~seed:91 ~n:4 ~p:0.4 in
      let db = db_of_graph g in
      let result = Inflationary.eval p db in
      List.iter
        (fun (pred, rel) ->
          Relation.iter
            (fun tuple ->
              match Provenance.explain p db ~pred tuple with
              | None -> Alcotest.failf "no justification for %s" pred
              | Some j ->
                check bool "consistent" true (Provenance.check j))
            rel)
        (Idb.bindings result))
    programs

(* --- Universe-ranging variables ----------------------------------------- *)

let test_unbound_head_variable () =
  (* p(X, Y) :- e(X): Y ranges over the whole universe. *)
  let p = Parser.parse_program_exn "p(X, Y) :- e(X)." in
  let db =
    Relalg.Database.of_facts ~universe:[ "a"; "b"; "c" ] [ ("e", [ "a" ]) ]
  in
  let result = Inflationary.eval p db in
  check int "3 tuples" 3 (Relation.cardinal (Idb.get result "p"))

let test_unbound_negative_variable () =
  (* q(X) :- !e(X, Y): holds when some Y is missing an edge from X. *)
  let p = Parser.parse_program_exn "q(X) :- !e(X, Y)." in
  let db =
    Relalg.Database.of_facts ~universe:[ "a"; "b" ]
      [ ("e", [ "a"; "a" ]); ("e", [ "a"; "b" ]); ("e", [ "b"; "a" ]) ]
  in
  let result = Inflationary.eval p db in
  (* a has edges to everything; b is missing (b, b). *)
  check bool "q = {b}" true
    (Relation.equal (Idb.get result "q")
       (Relation.of_list 1 [ Tuple.of_strings [ "b" ] ]))

let test_equality_propagation () =
  let p = Parser.parse_program_exn "r(X, Y) :- e(X, Z), Y = Z." in
  let db = db_of_graph (Generate.path 3) in
  let result = Inflationary.eval p db in
  check bool "r = e" true
    (Relation.equal (Idb.get result "r") (relation_of_graph (Generate.path 3)))

let test_inequality_filter () =
  let p = Parser.parse_program_exn "r(X, Y) :- e(X, Y), X != Y." in
  let g = Digraph.make 2 [ (0, 0); (0, 1) ] in
  let result = Inflationary.eval p (db_of_graph g) in
  check bool "self-loop dropped" true
    (Relation.equal (Idb.get result "r")
       (Relation.of_list 2 [ Tuple.pair (vsym 0) (vsym 1) ]))

let test_constant_in_rule () =
  let p = Parser.parse_program_exn "r(X) :- e(v0, X)." in
  let db = db_of_graph (Generate.path 3) in
  let result = Inflationary.eval p (db_of_graph (Generate.path 3)) in
  ignore db;
  check bool "successors of v0" true
    (Relation.equal (Idb.get result "r") (unary_of_vertices [ 1 ]))

(* --- A program meets a database ------------------------------------------ *)

(* A database relation is read at the arity the program gives it, so a
   disagreement must be refused up front: read as a pair, e(a, b, c)
   answered p(a); read as a triple, e(a, b) died on Tuple.get. *)
let test_database_arity () =
  let narrow = Relalg.Database.of_facts ~universe:[] [ ("e", [ "a"; "b" ]) ] in
  let wide =
    Relalg.Database.of_facts ~universe:[] [ ("e", [ "a"; "b"; "c" ]) ]
  in
  let pair = Parser.parse_program_exn "p(X) :- e(X, Y)." in
  let pair_neg = Parser.parse_program_exn "p(X) :- !e(X, X)." in
  let triple = Parser.parse_program_exn "p(X) :- e(X, Y, Z)." in
  let refused program db ~expect:(program_arity, database_arity) =
    match Datalog.Check.validate_database program db with
    | Error (Datalog.Check.Database_arity e) ->
      check Alcotest.string "predicate" "e" e.pred;
      check int "program arity" program_arity e.program_arity;
      check int "database arity" database_arity e.database_arity;
      check bool "serve refuses" true
        (Result.is_error (Serve.create program db))
    | Error e -> Alcotest.fail (Datalog.Check.error_to_string e)
    | Ok () -> Alcotest.fail "arity mismatch accepted"
  in
  refused pair wide ~expect:(2, 3);
  refused pair_neg wide ~expect:(2, 3);
  refused triple narrow ~expect:(3, 2);
  check bool "matching arities pass" true
    (Datalog.Check.validate_database pair narrow = Ok ());
  (* An unbound EDB predicate reads as empty, at any arity; an IDB
     predicate never reads the database. *)
  check bool "unbound EDB passes" true
    (Datalog.Check.validate_database
       (Parser.parse_program_exn "p(X) :- q(X, Y, Z).")
       narrow
    = Ok ());
  check bool "IDB names are not checked" true
    (Datalog.Check.validate_database
       (Parser.parse_program_exn "e(X) :- q(X). q(a).")
       narrow
    = Ok ())

let () =
  Alcotest.run "eval"
    [
      ( "theta",
        [
          Alcotest.test_case "empty idb" `Quick test_theta_empty_idb;
          Alcotest.test_case "fixpoint detection" `Quick test_theta_fixpoint_detection;
          Alcotest.test_case "odd cycle" `Quick test_theta_odd_cycle_no_fixpoint;
          Alcotest.test_case "even cycle" `Quick test_theta_even_cycle_two_fixpoints;
          Alcotest.test_case "iterate converges on path" `Quick
            test_theta_iterate_converges_on_path;
          Alcotest.test_case "iterate oscillates on cycles" `Quick
            test_theta_iterate_oscillates_on_cycles;
          Alcotest.test_case "iterate toggle" `Quick test_theta_iterate_toggle;
          Alcotest.test_case "iterate positive" `Quick
            test_theta_iterate_positive_reaches_lfp;
        ] );
      ( "naive",
        [
          Alcotest.test_case "tc path" `Quick test_tc_on_path;
          Alcotest.test_case "tc random" `Quick test_tc_on_random_graphs;
          Alcotest.test_case "rejects negation" `Quick test_naive_rejects_negation;
          Alcotest.test_case "lfp is fixpoint" `Quick test_least_fixpoint_is_fixpoint;
        ] );
      ( "inflationary",
        [
          Alcotest.test_case "toggle" `Quick test_inflationary_toggle;
          Alcotest.test_case "pi1" `Quick test_inflationary_pi1;
          Alcotest.test_case "= lfp on positive" `Quick test_inflationary_equals_lfp_on_positive;
          Alcotest.test_case "engines agree" `Quick test_inflationary_engines_agree;
          Alcotest.test_case "stages" `Quick test_inflationary_stages;
          Alcotest.test_case "delta partition" `Quick test_inflationary_monotone_stages;
        ] );
      ( "stratified",
        [
          Alcotest.test_case "negation of tc" `Quick test_stratified_negation_of_tc;
          Alcotest.test_case "rejects toggle" `Quick test_stratified_rejects_toggle;
          Alcotest.test_case "agrees on positive" `Quick test_stratified_agrees_with_naive_on_positive;
        ] );
      ( "wellfounded",
        [
          Alcotest.test_case "toggle unknown" `Quick test_wellfounded_toggle_unknown;
          Alcotest.test_case "total on stratified" `Quick test_wellfounded_total_on_stratified;
          Alcotest.test_case "win-move" `Quick test_wellfounded_win_move;
          Alcotest.test_case "reduct antimonotone" `Quick test_reduct_antimonotone;
        ] );
      ( "fitting",
        [
          Alcotest.test_case "stratified matches" `Quick
            test_fitting_on_stratified_matches;
          Alcotest.test_case "less decided than wf" `Quick
            test_fitting_less_decided_than_wf;
          Alcotest.test_case "refines into wf" `Quick test_fitting_refines_into_wf;
          Alcotest.test_case "toggle unknown" `Quick test_fitting_toggle_unknown;
        ] );
      ( "unfounded",
        [
          Alcotest.test_case "positive loop" `Quick test_unfounded_positive_loop;
          Alcotest.test_case "agrees on examples" `Quick
            test_unfounded_agrees_on_examples;
        ] );
      ( "ground",
        [
          Alcotest.test_case "counts" `Quick test_ground_counts;
          Alcotest.test_case "agrees with theta" `Quick test_ground_apply_agrees_with_theta;
          Alcotest.test_case "toggle shape" `Quick test_ground_toggle_shape;
          Alcotest.test_case "prunes underivable" `Quick test_ground_prunes_underivable;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "tc chain" `Quick test_provenance_tc_chain;
          Alcotest.test_case "negative literal" `Quick
            test_provenance_negative_literal;
          Alcotest.test_case "underivable" `Quick test_provenance_underivable;
          Alcotest.test_case "all facts explainable" `Quick
            test_provenance_all_facts_explainable;
        ] );
      ( "engine",
        [
          Alcotest.test_case "unbound head var" `Quick test_unbound_head_variable;
          Alcotest.test_case "unbound negative var" `Quick test_unbound_negative_variable;
          Alcotest.test_case "equality propagation" `Quick test_equality_propagation;
          Alcotest.test_case "inequality filter" `Quick test_inequality_filter;
          Alcotest.test_case "constant in rule" `Quick test_constant_in_rule;
          Alcotest.test_case "database arity" `Quick test_database_arity;
        ] );
    ]
