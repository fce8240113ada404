(* Tests for the program simplification passes: unit behaviour of each
   pass, plus the blanket property that simplification preserves every
   semantics (inflationary, fixpoint census, well-founded) on random
   programs. *)

module Ast = Datalog.Ast
module Parser = Datalog.Parser
module Transform = Datalog.Transform
module Idb = Evallib.Idb
module Generate = Graphlib.Generate
module Digraph = Graphlib.Digraph

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let rules_of text = (Parser.parse_program_exn text).Ast.rules

let rule_of text = List.hd (rules_of text)

(* --- unit passes ------------------------------------------------------------ *)

let test_dedup_literals () =
  let r = rule_of "p(X) :- e(X, Y), e(X, Y), q(X), e(X, Y)." in
  check int "deduped" 2 (List.length (Transform.dedup_literals r).Ast.body)

let test_simplify_comparisons () =
  (match Transform.simplify_comparisons (rule_of "p(X) :- e(X, X), X = X.") with
  | Some r -> check int "reflexive eq dropped" 1 (List.length r.Ast.body)
  | None -> Alcotest.fail "rule survives");
  (match Transform.simplify_comparisons (rule_of "p(X) :- e(X, X), X != X.") with
  | None -> ()
  | Some _ -> Alcotest.fail "reflexive neq kills the rule");
  (match Transform.simplify_comparisons (rule_of "p(X) :- q(X), a = b.") with
  | None -> ()
  | Some _ -> Alcotest.fail "distinct constants kill the rule");
  match Transform.simplify_comparisons (rule_of "p(X) :- q(X), a = a.") with
  | Some r -> check int "equal constants dropped" 1 (List.length r.Ast.body)
  | None -> Alcotest.fail "rule survives"

let test_dedup_rules () =
  let p = Parser.parse_program_exn "p(X) :- q(X). p(X) :- q(X). r(X) :- q(X)." in
  check int "deduped" 2 (List.length (Transform.dedup_rules p).Ast.rules)

let test_drop_underivable () =
  (* q is IDB but underivable (its only rule needs q itself plus an EDB
     guard that could never bootstrap it); rules using q positively die,
     negations of q evaporate. *)
  let p =
    Parser.parse_program_exn
      "q(X) :- q(X), z(X).\n\
       a(X) :- e(X, Y), q(Y).\n\
       b(X) :- e(X, Y), !q(Y).\n\
       c(X) :- b(X)."
  in
  let p' = Transform.drop_underivable p in
  let preds = Ast.predicates p' in
  check bool "q gone" false (List.mem "q" preds);
  check bool "a gone" false (List.mem "a" preds);
  check bool "b kept" true (List.mem "b" preds);
  (* b's rule lost its negated literal. *)
  let b_rule =
    List.find (fun (r : Ast.rule) -> r.Ast.head.Ast.pred = "b") p'.Ast.rules
  in
  check int "one literal left" 1 (List.length b_rule.Ast.body)

let test_default_simplify_keeps_guessable_relations () =
  (* The default pipeline never drops the self-supporting copy rules the
     paper's constructions use to make relations guessable: pi_SAT must
     come through unchanged. *)
  let p = Reductions.Sat_db.program in
  check bool "pi_SAT unchanged" true (Transform.simplify p = p);
  (* The aggressive pipeline, by contrast, collapses it (sound only for
     the least-fixpoint family). *)
  let p' = Transform.simplify ~aggressive:true p in
  check bool "aggressive drops s" false (List.mem "s" (Ast.predicates p'))

let test_simplify_fagin_output () =
  (* Cheap redundancies disappear; the copy rule stays; idempotent. *)
  let p =
    Parser.parse_program_exn
      "q(X) :- s(X), s(X), X = X.\n\
       s(U1) :- s(U1).\n\
       t(Z) :- !q(U), !t(W)."
  in
  let p' = Transform.simplify p in
  check bool "idempotent" true (Transform.simplify p' = p');
  check bool "copy rule kept" true
    (List.mem (rule_of "s(U1) :- s(U1).") p'.Ast.rules);
  let q_rule =
    List.find (fun (r : Ast.rule) -> r.Ast.head.Ast.pred = "q") p'.Ast.rules
  in
  check int "q body shrunk" 1 (List.length q_rule.Ast.body)

(* --- semantics preservation -------------------------------------------------- *)

(* Shared generator (test/support), paired with a random graph. *)
let arb_case =
  QCheck.make
    QCheck.Gen.(
      pair Testsupport.Gen_programs.gen_program
        (let* seed = int_range 0 10000 in
         let* gn = int_range 2 4 in
         return (Generate.random ~seed ~n:gn ~p:0.35)))
    ~print:(fun (p, g) ->
      Printf.sprintf "%s\n-- graph %d vertices %d edges"
        (Datalog.Pretty.program_to_string p)
        (Digraph.vertex_count g) (Digraph.edge_count g))

let prop_simplify_preserves_inflationary =
  QCheck.Test.make ~name:"simplify preserves inflationary semantics" ~count:120
    arb_case (fun (p, g) ->
      let db = Digraph.to_database g in
      let p' = Transform.simplify ~aggressive:true p in
      let before = Evallib.Inflationary.eval p db in
      QCheck.assume (p'.Ast.rules <> []);
      let after = Evallib.Inflationary.eval p' db in
      (* Predicates kept in p' must agree exactly; predicates dropped must
         have been empty. *)
      List.for_all
        (fun (pred, rel) ->
          if Idb.mem after pred then
            Relalg.Relation.equal rel (Idb.get after pred)
          else Relalg.Relation.is_empty rel)
        (Idb.bindings before))

let prop_simplify_preserves_census =
  QCheck.Test.make ~name:"simplify preserves the fixpoint census" ~count:60
    arb_case (fun (p, g) ->
      let db = Digraph.to_database g in
      let p' = Transform.simplify p in
      QCheck.assume (p'.Ast.rules <> []);
      let c = Fixpointlib.Solve.count (Fixpointlib.Solve.prepare p db) in
      let c' = Fixpointlib.Solve.count (Fixpointlib.Solve.prepare p' db) in
      c = c')

let () =
  Alcotest.run "transform"
    [
      ( "passes",
        [
          Alcotest.test_case "dedup literals" `Quick test_dedup_literals;
          Alcotest.test_case "comparisons" `Quick test_simplify_comparisons;
          Alcotest.test_case "dedup rules" `Quick test_dedup_rules;
          Alcotest.test_case "drop underivable" `Quick test_drop_underivable;
          Alcotest.test_case "keeps guessable relations" `Quick
            test_default_simplify_keeps_guessable_relations;
          Alcotest.test_case "idempotent on generated code" `Quick
            test_simplify_fagin_output;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_simplify_preserves_inflationary;
            prop_simplify_preserves_census;
          ] );
    ]
