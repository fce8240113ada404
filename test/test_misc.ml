(* Edge-case tests that cut across modules: the Idb valuation algebra,
   empty and degenerate universes, digit-initial constants (the {0,1}
   domain of Theorem 4), 0-ary predicates end to end, and schema
   handling. *)

module Idb = Evallib.Idb
module Parser = Datalog.Parser
module Relation = Relalg.Relation
module Tuple = Relalg.Tuple
module Schema = Relalg.Schema
module Database = Relalg.Database

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Idb algebra ------------------------------------------------------------ *)

let schema2 = Schema.of_list [ ("p", 1); ("q", 2) ]

let idb_of facts =
  List.fold_left
    (fun idb (pred, args) -> Idb.add_fact idb pred (Tuple.of_strings args))
    (Idb.empty schema2) facts

let test_idb_set_arity_guard () =
  let idb = Idb.empty schema2 in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Idb.set: p has arity 1, relation has arity 2")
    (fun () -> ignore (Idb.set idb "p" (Relation.empty 2)))

let test_idb_union_diff_inter () =
  let a = idb_of [ ("p", [ "x" ]); ("q", [ "x"; "y" ]) ] in
  let b = idb_of [ ("p", [ "x" ]); ("p", [ "y" ]) ] in
  check int "union" 3 (Idb.total_cardinal (Idb.union a b));
  check int "diff" 1 (Idb.total_cardinal (Idb.diff a b));
  check int "inter" 1 (Idb.total_cardinal (Idb.inter a b));
  check bool "subset" true (Idb.subset (Idb.inter a b) a);
  check bool "not subset" false (Idb.subset b a)

let test_idb_equal_ignores_missing_empties () =
  (* A missing predicate counts as empty for equality. *)
  let narrow = Idb.empty (Schema.of_list [ ("p", 1) ]) in
  let wide = Idb.empty schema2 in
  check bool "both empty" true (Idb.equal narrow wide)

let test_idb_restrict_and_to_database () =
  let a = idb_of [ ("p", [ "x" ]); ("q", [ "x"; "y" ]) ] in
  let only_p = Idb.restrict [ "p" ] a in
  check bool "q gone" false (Idb.mem only_p "q");
  let db = Database.create_strings [ "x"; "y" ] in
  let db' = Idb.to_database a db in
  check bool "facts exposed" true
    (Database.mem_fact "q" (Tuple.of_strings [ "x"; "y" ]) db')

(* --- degenerate universes ----------------------------------------------------- *)

let test_empty_universe () =
  (* No constants at all: every relation is empty under every semantics,
     and the toggle rule vacuously has the empty fixpoint. *)
  let db = Database.create ~universe:[] in
  let toggle = Parser.parse_program_exn "t(Z) :- !t(W)." in
  let result = Evallib.Inflationary.eval toggle db in
  check bool "inflationary empty" true (Idb.is_empty result);
  let solver = Fixpointlib.Solve.prepare toggle db in
  check bool "empty valuation is a fixpoint" true (Fixpointlib.Solve.exists solver);
  check int "exactly one" 1 (Fixpointlib.Solve.count solver)

let test_singleton_universe () =
  let db = Database.create_strings [ "a" ] in
  let toggle = Parser.parse_program_exn "t(Z) :- !t(W)." in
  check bool "no fixpoint on one constant" false
    (Fixpointlib.Solve.exists (Fixpointlib.Solve.prepare toggle db));
  check int "inflationary saturates" 1
    (Idb.total_cardinal (Evallib.Inflationary.eval toggle db))

(* --- digit-initial constants (the {0,1} domain) -------------------------------- *)

let test_digit_constants_parse () =
  let p = Parser.parse_program_exn "g(1, X) :- h(X, 0)." in
  match (List.hd p.Datalog.Ast.rules).Datalog.Ast.head.Datalog.Ast.args with
  | [ Datalog.Ast.Const c; Datalog.Ast.Var "X" ] ->
    check Alcotest.string "constant 1" "1" (Relalg.Symbol.name c)
  | _ -> Alcotest.fail "unexpected head shape"

let test_digit_constants_evaluate () =
  let p = Parser.parse_program_exn "flip(X, Y) :- bit(X), bit(Y), X != Y." in
  let db =
    Database.of_facts ~universe:[] [ ("bit", [ "0" ]); ("bit", [ "1" ]) ]
  in
  let result = Evallib.Inflationary.eval p db in
  check int "two flips" 2 (Relation.cardinal (Idb.get result "flip"))

(* --- 0-ary predicates end to end ----------------------------------------------- *)

let test_zero_ary_pipeline () =
  (* 0-ary IDB flag driven by a unary EDB, with negation. *)
  let p =
    Parser.parse_program_exn
      "nonempty :- mark(X). empty :- !nonempty. out(X) :- elem(X), empty."
  in
  let db_marked =
    Database.of_facts ~universe:[ "a" ] [ ("mark", [ "a" ]); ("elem", [ "a" ]) ]
  in
  let db_unmarked = Database.of_facts ~universe:[ "a" ] [ ("elem", [ "a" ]) ] in
  let strat db = Evallib.Stratified.eval_exn p db in
  check bool "marked: out empty" true
    (Relation.is_empty (Idb.get (strat db_marked) "out"));
  check int "unmarked: out = elem" 1
    (Relation.cardinal (Idb.get (strat db_unmarked) "out"));
  (* The 0-ary atoms also survive grounding and SAT encoding. *)
  let solver = Fixpointlib.Solve.prepare p db_unmarked in
  check bool "fixpoint exists" true (Fixpointlib.Solve.exists solver)

(* --- schema inference corner cases ---------------------------------------------- *)

let test_idb_schema_of_head_only_predicate () =
  (* A predicate appearing only in heads still lands in the IDB schema with
     the right arity. *)
  let p = Parser.parse_program_exn "a(X, Y) :- e(X, Y)." in
  match Datalog.Ast.idb_schema p with
  | Ok s -> check (Alcotest.option int) "a/2" (Some 2) (Schema.arity "a" s)
  | Error e -> Alcotest.fail e

let test_database_relation_or_empty_arity () =
  let db = Database.create_strings [ "a" ] in
  let r = Database.relation_or_empty ~arity:3 "ghost" db in
  check int "requested arity" 3 (Relation.arity r);
  check bool "empty" true (Relation.is_empty r)

(* --- saturate from a non-empty seed ---------------------------------------------- *)

let test_saturate_from_seed () =
  (* Seeding the iteration with facts must behave like inserting them:
     the closure grows from the seed. *)
  let tc =
    Parser.parse_program_exn "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y)."
  in
  let db = Graphlib.Digraph.to_database (Graphlib.Generate.path 3) in
  let schema =
    match Datalog.Ast.idb_schema tc with Ok s -> s | Error e -> failwith e
  in
  let seed =
    Idb.add_fact (Idb.empty schema) "s"
      (Tuple.of_strings [ "v2"; "v0" ])  (* a fake back edge *)
  in
  let trace =
    Evallib.Saturate.run ~rules:tc.Datalog.Ast.rules ~schema
      ~universe:(Database.universe db)
      ~base:(Evallib.Engine.database_source db)
      ~neg:`Current ~init:seed ()
  in
  let s = Idb.get trace.Evallib.Saturate.result "s" in
  (* With the fake s(v2, v0) seeded, e(v1, v2) extends it to s(v1, v0). *)
  check bool "seed is kept" true (Relation.mem (Tuple.of_strings [ "v2"; "v0" ]) s);
  check bool "seed is extended" true
    (Relation.mem (Tuple.of_strings [ "v1"; "v0" ]) s)

let test_stage_of_absent () =
  let tc = Parser.parse_program_exn "s(X, Y) :- e(X, Y)." in
  let db = Graphlib.Digraph.to_database (Graphlib.Generate.path 2) in
  let trace = Evallib.Inflationary.eval_trace tc db in
  check (Alcotest.option int) "absent tuple has no stage" None
    (Evallib.Saturate.stage_of trace "s" (Tuple.of_strings [ "v1"; "v0" ]))

(* --- bounded equivalence checking ------------------------------------------------ *)

let infl = Evallib.Inflationary.eval

let test_equiv_identical_programs () =
  let p = Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y)." in
  match Evallib.Equiv.equivalent_up_to ~eval:infl ~edb:[ ("e", 2) ] p p with
  | Ok checked -> check bool "checked many" true (checked >= 16)
  | Error _ -> Alcotest.fail "a program equals itself"

let test_equiv_detects_difference () =
  (* t <- e(Y,X) vs t <- e(X,Y): differ on asymmetric edge relations. *)
  let p = Parser.parse_program_exn "t(X) :- e(Y, X)." in
  let q = Parser.parse_program_exn "t(X) :- e(X, Y)." in
  match Evallib.Equiv.equivalent_up_to ~eval:infl ~edb:[ ("e", 2) ] p q with
  | Ok _ -> Alcotest.fail "programs differ"
  | Error cex ->
    (* The counterexample really separates them. *)
    check bool "left <> right" false
      (Relation.equal
         (Idb.get cex.Evallib.Equiv.left "t")
         (Idb.get cex.Evallib.Equiv.right "t"))

let test_equiv_simplify_exhaustively () =
  (* Default simplification is inflationary-equivalent on every database up
     to size 2 for a mildly redundant program. *)
  let p =
    Parser.parse_program_exn
      "a(X) :- e(X, Y), e(X, Y), X = X.\n\
       a(X) :- e(X, Y).\n\
       b(X) :- a(X), !e(X, X), Y != Y."
  in
  let q = Datalog.Transform.simplify p in
  match Evallib.Equiv.equivalent_up_to ~eval:infl ~edb:[ ("e", 2) ] p q with
  | Ok checked -> check bool "all small dbs" true (checked > 0)
  | Error _ -> Alcotest.fail "simplify must preserve semantics"

let test_equiv_prop1_roundtrip_exhaustively () =
  let p = Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y)." in
  let q =
    Reductions.Prop1.program_of_operators_exn
      (Reductions.Prop1.operators_of_program p)
  in
  match Evallib.Equiv.equivalent_up_to ~eval:infl ~edb:[ ("e", 2) ] p q with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "Prop 1 round-trip must preserve semantics"

let test_databases_over_count () =
  let universe = [ Relalg.Symbol.intern "k0" ] in
  (* u/1 over one constant: 2 relations; e/2: 2 relations; 4 combinations. *)
  check int "4 databases" 4
    (List.length (Evallib.Equiv.databases_over ~universe [ ("u", 1); ("e", 2) ]))

(* --- Prng: rejection sampling kills the modulo bias ------------------------------ *)

let test_prng_bounds_and_determinism () =
  let rng = Negdl_util.Prng.create 42 in
  for _ = 1 to 1000 do
    let v = Negdl_util.Prng.int rng 7 in
    check bool "in range" true (v >= 0 && v < 7)
  done;
  let a = Negdl_util.Prng.create 9 and b = Negdl_util.Prng.create 9 in
  for _ = 1 to 100 do
    check int "same stream" (Negdl_util.Prng.int a 1000) (Negdl_util.Prng.int b 1000)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument
    "Prng.int: bound must be positive")
    (fun () -> ignore (Negdl_util.Prng.int rng 0))

let test_prng_no_modulo_bias () =
  (* With bound = 3 * 2^60, plain [raw mod bound] on a 62-bit non-negative
     raw would land in [0, 2^60) with probability ~1/2 (the wrapped
     remainder doubles up that low range) instead of the uniform 1/3.
     Rejection sampling must restore ~1/3. *)
  let bound = 3 * (1 lsl 60) in
  let cut = 1 lsl 60 in
  let rng = Negdl_util.Prng.create 1234 in
  let draws = 10_000 in
  let low = ref 0 in
  for _ = 1 to draws do
    if Negdl_util.Prng.int rng bound < cut then incr low
  done;
  let fraction = float_of_int !low /. float_of_int draws in
  (* 1/3 +- 5 sigma (sigma ~ 0.0047); the biased version gives ~0.5. *)
  check bool
    (Printf.sprintf "low-range fraction %.4f is ~1/3" fraction)
    true
    (fraction > 0.309 &&
     fraction < 0.357)

(* --- Relation: persistent column indexes ----------------------------------------- *)

let test_relation_index_incremental () =
  let tup a b = Tuple.of_strings [ a; b ] in
  let r =
    Relation.of_list 2 [ tup "a" "b"; tup "a" "c"; tup "b" "c" ]
  in
  let sym = Relalg.Symbol.intern in
  (* Build the column-0 index, then extend the relation: the derived
     relation must see the new tuple through the same index without a
     rebuild. *)
  check int "matching a" 2 (List.length (Relation.matching 0 (sym "a") r));
  check bool "index built" true (Relation.has_index r 0);
  let r' = Relation.add (tup "a" "d") r in
  check bool "index carried over" true (Relation.has_index r' 0);
  check int "matching a after add" 3
    (List.length (Relation.matching 0 (sym "a") r'));
  check int "original unchanged" 2
    (List.length (Relation.matching 0 (sym "a") r));
  (* Union maintains the bigger side's indexes incrementally. *)
  let extra = Relation.of_list 2 [ tup "a" "e"; tup "c" "a" ] in
  let u = Relation.union r' extra in
  check int "matching a after union" 4
    (List.length (Relation.matching 0 (sym "a") u));
  check int "matching c after union" 1
    (List.length (Relation.matching 0 (sym "c") u));
  (* Removal takes the tuple out of the built index when fewer tuples
     leave than stay, instead of dropping the index. *)
  let shrunk = Relation.remove (tup "a" "b") u in
  check bool "index kept through remove" true (Relation.has_index shrunk 0);
  check int "matching a after remove" 3
    (List.length (Relation.matching 0 (sym "a") shrunk));
  check int "union unchanged by remove" 4
    (List.length (Relation.matching 0 (sym "a") u));
  (* So does a difference, whose emptied buckets disappear. *)
  let d =
    Relation.diff shrunk
      (Relation.of_list 2 [ tup "c" "a"; tup "a" "c"; tup "z" "z" ])
  in
  check bool "index kept through diff" true (Relation.has_index d 0);
  check int "cardinal after diff" 3 (Relation.cardinal d);
  check int "matching a after diff" 2
    (List.length (Relation.matching 0 (sym "a") d));
  check int "matching c after diff" 0
    (List.length (Relation.matching 0 (sym "c") d));
  (* When more tuples leave than stay, the index starts over lazily. *)
  let gutted = Relation.diff u (Relation.remove (tup "b" "c") u) in
  check bool "index dropped when most tuples leave" false
    (Relation.has_index gutted 0);
  check int "what is left" 1
    (List.length (Relation.matching 0 (sym "b") gutted));
  (* A derived relation with different tuples must not share stale
     indexes. *)
  let filtered = Relation.filter (fun t -> Tuple.get t 0 = sym "a") u in
  check bool "fresh memo on filter" false (Relation.has_index filtered 0);
  check int "filtered matching" 4
    (List.length (Relation.matching 0 (sym "a") filtered));
  check int "filtered non-match" 0
    (List.length (Relation.matching 0 (sym "b") filtered))

let () =
  Alcotest.run "misc"
    [
      ( "idb",
        [
          Alcotest.test_case "set arity guard" `Quick test_idb_set_arity_guard;
          Alcotest.test_case "union/diff/inter" `Quick test_idb_union_diff_inter;
          Alcotest.test_case "equal ignores empties" `Quick
            test_idb_equal_ignores_missing_empties;
          Alcotest.test_case "restrict/to_database" `Quick
            test_idb_restrict_and_to_database;
        ] );
      ( "universes",
        [
          Alcotest.test_case "empty" `Quick test_empty_universe;
          Alcotest.test_case "singleton" `Quick test_singleton_universe;
        ] );
      ( "constants",
        [
          Alcotest.test_case "digits parse" `Quick test_digit_constants_parse;
          Alcotest.test_case "digits evaluate" `Quick test_digit_constants_evaluate;
        ] );
      ( "zero-ary",
        [ Alcotest.test_case "pipeline" `Quick test_zero_ary_pipeline ] );
      ( "schema",
        [
          Alcotest.test_case "head-only pred" `Quick
            test_idb_schema_of_head_only_predicate;
          Alcotest.test_case "relation_or_empty" `Quick
            test_database_relation_or_empty_arity;
        ] );
      ( "saturate",
        [
          Alcotest.test_case "from seed" `Quick test_saturate_from_seed;
          Alcotest.test_case "stage of absent" `Quick test_stage_of_absent;
        ] );
      ( "prng",
        [
          Alcotest.test_case "bounds and determinism" `Quick
            test_prng_bounds_and_determinism;
          Alcotest.test_case "no modulo bias" `Quick test_prng_no_modulo_bias;
        ] );
      ( "relation-index",
        [
          Alcotest.test_case "incremental" `Quick
            test_relation_index_incremental;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "identical" `Quick test_equiv_identical_programs;
          Alcotest.test_case "detects difference" `Quick
            test_equiv_detects_difference;
          Alcotest.test_case "simplify exhaustively" `Quick
            test_equiv_simplify_exhaustively;
          Alcotest.test_case "prop1 exhaustively" `Quick
            test_equiv_prop1_roundtrip_exhaustively;
          Alcotest.test_case "database census" `Quick test_databases_over_count;
        ] );
    ]
