(* Tests for incremental maintenance under deletions (DRed): the maintained
   materialisation must equal recomputation from scratch, on hand-picked
   and random instances; the over-delete / re-derive counters must behave
   (alternative derivations come back). *)

module Ast = Datalog.Ast
module Parser = Datalog.Parser
module Dred = Evallib.Dred
module Naive = Evallib.Naive
module Idb = Evallib.Idb
module Generate = Graphlib.Generate
module Digraph = Graphlib.Digraph
module Tuple = Relalg.Tuple
module Database = Relalg.Database

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let tc =
  Parser.parse_program_exn "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y)."

let vsym = Digraph.vertex_symbol

let edge u v = ("e", Tuple.pair (vsym u) (vsym v))

let maintain p db removals =
  let current = Naive.least_fixpoint p db in
  Dred.delete_facts p db ~current ~removals

let test_delete_breaks_path () =
  (* Path 0->1->2->3; deleting (1,2) halves the closure. *)
  let db = Digraph.to_database (Generate.path 4) in
  let delta = maintain tc db [ edge 1 2 ] in
  let expected = Naive.least_fixpoint tc delta.Dred.new_db in
  check bool "matches recomputation" true (Idb.equal delta.Dred.new_idb expected);
  (* Remaining edges (0,1) and (2,3) are the whole closure. *)
  check int "closure size" 2 (Idb.total_cardinal delta.Dred.new_idb)

let test_alternative_derivation_survives () =
  (* Two parallel paths 0->1->3 and 0->2->3: deleting one middle edge keeps
     (0,3) reachable, so re-derivation must bring it back. *)
  let g = Digraph.make 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let db = Digraph.to_database g in
  let delta = maintain tc db [ edge 1 3 ] in
  let expected = Naive.least_fixpoint tc delta.Dred.new_db in
  check bool "matches recomputation" true (Idb.equal delta.Dred.new_idb expected);
  check bool "(0,3) still derived" true
    (Relalg.Relation.mem
       (Tuple.pair (vsym 0) (vsym 3))
       (Idb.get delta.Dred.new_idb "s"));
  check bool "something was re-derived" true (delta.Dred.rederived > 0)

let test_delete_multiple () =
  let g = Generate.cycle 5 in
  let db = Digraph.to_database g in
  let delta = maintain tc db [ edge 0 1; edge 2 3 ] in
  let expected = Naive.least_fixpoint tc delta.Dred.new_db in
  check bool "matches recomputation" true (Idb.equal delta.Dred.new_idb expected)

let test_validation () =
  let db = Digraph.to_database (Generate.path 3) in
  let current = Naive.least_fixpoint tc db in
  Alcotest.check_raises "IDB removal rejected"
    (Invalid_argument "Dred.delete_facts: s is an IDB predicate") (fun () ->
      ignore
        (Dred.delete_facts tc db ~current
           ~removals:[ ("s", Tuple.pair (vsym 0) (vsym 1)) ]));
  Alcotest.check_raises "absent fact rejected"
    (Invalid_argument "Dred.delete_facts: e(v2, v0) is not in the database")
    (fun () ->
      ignore
        (Dred.delete_facts tc db ~current
           ~removals:[ ("e", Tuple.pair (vsym 2) (vsym 0)) ]));
  Alcotest.check_raises "arity mismatch rejected"
    (Invalid_argument
       "Dred.delete_facts: arity mismatch: e(v0) has 1 component(s) but e \
        has arity 2") (fun () ->
      ignore
        (Dred.delete_facts tc db ~current
           ~removals:[ ("e", Tuple.singleton (vsym 0)) ]));
  (* Stratified negation is now supported; only recursion through negation
     is rejected. *)
  let neg = Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y)." in
  Alcotest.check_raises "non-stratifiable rejected"
    (Invalid_argument
       "Dred.delete_facts: the program must be stratifiable (t depends \
        negatively on t inside a recursive component)") (fun () ->
      ignore
        (Dred.delete_facts neg db ~current:(Idb.of_program neg)
           ~removals:[ edge 0 1 ]))

let test_two_predicates () =
  (* Same-generation style program with two EDB relations; delete from
     both. *)
  let p =
    Parser.parse_program_exn
      "r(X, Y) :- a(X, Y). r(X, Y) :- b(X, Y). rr(X, Y) :- r(X, Z), r(Z, Y)."
  in
  let db =
    Database.of_facts ~universe:[]
      [
        ("a", [ "x"; "y" ]); ("a", [ "y"; "z" ]);
        ("b", [ "x"; "y" ]); ("b", [ "z"; "w" ]);
      ]
  in
  let current = Naive.least_fixpoint p db in
  let delta =
    Dred.delete_facts p db ~current
      ~removals:[ ("a", Tuple.of_strings [ "x"; "y" ]) ]
  in
  let expected = Naive.least_fixpoint p delta.Dred.new_db in
  check bool "matches recomputation" true (Idb.equal delta.Dred.new_idb expected);
  (* r(x, y) survives via b. *)
  check bool "alternative base fact" true
    (Relalg.Relation.mem (Tuple.of_strings [ "x"; "y" ])
       (Idb.get delta.Dred.new_idb "r"))

let test_insert_extends_path () =
  (* Path 0->1->2; adding edge (2,3) with a brand-new vertex extends the
     closure. *)
  let db = Digraph.to_database (Generate.path 3) in
  let current = Naive.least_fixpoint tc db in
  let addition = ("e", Tuple.of_strings [ "v2"; "v3" ]) in
  let delta = Evallib.Dred.insert_facts tc db ~current ~additions:[ addition ] in
  let expected = Naive.least_fixpoint tc delta.Dred.new_db in
  check bool "matches recomputation" true (Idb.equal delta.Dred.new_idb expected);
  check int "three new closure facts" 3 delta.Dred.rederived

(* Stratified negation: reachability with an unreached complement.  The
   higher stratum must shrink when an edge appears and grow when one
   disappears — both directions of the negation triggers. *)
let reach =
  Parser.parse_program_exn
    "r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y). reached(Y) :- r(X, \
     Y). unreached(X) :- v(X), !reached(X)."

let with_vertices db n =
  List.fold_left
    (fun d i -> Database.add_fact "v" (Tuple.singleton (vsym i)) d)
    db
    (List.init n (fun i -> i))

let test_stratified_delete () =
  let db = with_vertices (Digraph.to_database (Generate.path 4)) 4 in
  let current = Evallib.Stratified.eval_exn reach db in
  let delta = Dred.delete_facts reach db ~current ~removals:[ edge 0 1 ] in
  let expected = Evallib.Stratified.eval_exn reach delta.Dred.new_db in
  check bool "matches stratified recomputation" true
    (Idb.equal delta.Dred.new_idb expected);
  check bool "v1 now unreached" true
    (Relalg.Relation.mem
       (Tuple.singleton (vsym 1))
       (Idb.get delta.Dred.new_idb "unreached"))

let test_stratified_insert () =
  (* Inserting an edge makes v3 reached: the negation-dependent
     unreached(v3) must be over-deleted through the flipped trigger. *)
  let db =
    with_vertices (Digraph.to_database (Digraph.make 4 [ (0, 1); (1, 2) ])) 4
  in
  let current = Evallib.Stratified.eval_exn reach db in
  let delta =
    Dred.apply reach db ~current ~additions:[ edge 2 3 ] ~removals:[] ()
  in
  let expected = Evallib.Stratified.eval_exn reach delta.Dred.new_db in
  check bool "matches stratified recomputation" true
    (Idb.equal delta.Dred.new_idb expected);
  check bool "v3 no longer unreached" true
    (not
       (Relalg.Relation.mem
          (Tuple.singleton (vsym 3))
          (Idb.get delta.Dred.new_idb "unreached")));
  check bool "something was over-deleted" true (delta.Dred.overdeleted > 0)

let test_mixed_batch () =
  (* One batch that removes an edge, closes the cycle, and grows the
     universe with a brand-new vertex. *)
  let db = Digraph.to_database (Generate.path 4) in
  let current = Naive.least_fixpoint tc db in
  let delta =
    Dred.apply tc db ~current
      ~additions:[ edge 3 0; ("e", Tuple.of_strings [ "v3"; "v4" ]) ]
      ~removals:[ edge 1 2 ] ()
  in
  let expected = Naive.least_fixpoint tc delta.Dred.new_db in
  check bool "matches recomputation" true
    (Idb.equal delta.Dred.new_idb expected)

(* --- limit predicates: group bounds under deletion ----------------------

   Deleting the support of a group's bound must relax the bound to the
   best surviving support (second-best derivation), drop the group when
   nothing survives, and cascade through downstream groups — all checked
   against from-scratch stratified evaluation. *)

let sp_limit =
  Parser.parse_program_exn
    "dist min 2. dist(X, 0) :- source(X). dist(Y, S) :- dist(X, D), edge(X, \
     Y, W), S = D + W."

let limit_maintain ?(additions = []) p db removals =
  let current = Evallib.Stratified.eval_exn p db in
  Dred.apply p db ~current ~additions ~removals ()

let check_limit_delta p (delta : Dred.delta) =
  check bool "matches stratified recomputation" true
    (Idb.equal delta.Dred.new_idb (Evallib.Stratified.eval_exn p delta.Dred.new_db))

let dist_has delta strs =
  Relalg.Relation.mem (Tuple.of_strings strs) (Idb.get delta.Dred.new_idb "dist")

let test_limit_second_best () =
  (* Parallel edges a->b of weight 1 and 5: deleting the cheaper one must
     relax dist(b) from 1 to the second-best support 5. *)
  let db =
    Database.of_facts ~universe:[]
      [
        ("source", [ "a" ]);
        ("edge", [ "a"; "b"; "1" ]);
        ("edge", [ "a"; "b"; "5" ]);
      ]
  in
  let delta =
    limit_maintain sp_limit db [ ("edge", Tuple.of_strings [ "a"; "b"; "1" ]) ]
  in
  check_limit_delta sp_limit delta;
  check bool "bound relaxed to second-best" true (dist_has delta [ "b"; "5" ]);
  check bool "old bound gone" false (dist_has delta [ "b"; "1" ])

let test_limit_max_second_best () =
  (* The max analog: deleting the heavier parallel edge relaxes the bound
     downward to the lighter surviving support. *)
  let p =
    Parser.parse_program_exn
      "best max 2. best(X, 0) :- source(X). best(Y, S) :- best(X, D), \
       edge(X, Y, W), S = D + W."
  in
  let db =
    Database.of_facts ~universe:[]
      [
        ("source", [ "a" ]);
        ("edge", [ "a"; "b"; "5" ]);
        ("edge", [ "a"; "b"; "1" ]);
      ]
  in
  let delta =
    limit_maintain p db [ ("edge", Tuple.of_strings [ "a"; "b"; "5" ]) ]
  in
  check_limit_delta p delta;
  check bool "bound relaxed to surviving support" true
    (Relalg.Relation.mem
       (Tuple.of_strings [ "b"; "1" ])
       (Idb.get delta.Dred.new_idb "best"))

let test_limit_group_vanishes () =
  (* A group with a single support disappears entirely when it goes. *)
  let db =
    Database.of_facts ~universe:[]
      [ ("source", [ "a" ]); ("edge", [ "a"; "b"; "3" ]) ]
  in
  let delta =
    limit_maintain sp_limit db [ ("edge", Tuple.of_strings [ "a"; "b"; "3" ]) ]
  in
  check_limit_delta sp_limit delta;
  check int "only the source group remains" 1
    (Relalg.Relation.cardinal (Idb.get delta.Dred.new_idb "dist"))

let test_limit_cascading_relax () =
  (* Relaxing dist(b) must re-propagate: dist(c) moves from 3 to 6. *)
  let db =
    Database.of_facts ~universe:[]
      [
        ("source", [ "a" ]);
        ("edge", [ "a"; "b"; "1" ]);
        ("edge", [ "a"; "b"; "4" ]);
        ("edge", [ "b"; "c"; "2" ]);
      ]
  in
  let delta =
    limit_maintain sp_limit db [ ("edge", Tuple.of_strings [ "a"; "b"; "1" ]) ]
  in
  check_limit_delta sp_limit delta;
  check bool "intermediate bound relaxed" true (dist_has delta [ "b"; "4" ]);
  check bool "downstream bound relaxed" true (dist_has delta [ "c"; "6" ])

let test_limit_mixed_batch () =
  (* One batch that deletes a bound's support and inserts a tighter route
     elsewhere: relaxation and tightening in the same application. *)
  let db =
    Database.of_facts ~universe:[]
      [
        ("source", [ "a" ]);
        ("edge", [ "a"; "b"; "1" ]);
        ("edge", [ "b"; "c"; "1" ]);
        ("edge", [ "a"; "c"; "9" ]);
      ]
  in
  let delta =
    limit_maintain sp_limit db
      ~additions:[ ("edge", Tuple.of_strings [ "a"; "c"; "1" ]) ]
      [ ("edge", Tuple.of_strings [ "b"; "c"; "1" ]) ]
  in
  check_limit_delta sp_limit delta;
  check bool "new route wins" true (dist_has delta [ "c"; "1" ])

let prop_insert_equals_recompute =
  QCheck.Test.make ~name:"insertion maintenance = recomputation" ~count:80
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 3 6 in
         let* seed = int_range 0 10000 in
         let* u = int_range 0 (n - 1) in
         let* v = int_range 0 (n - 1) in
         return (n, seed, u, v))
       ~print:(fun (n, seed, u, v) ->
         Printf.sprintf "n=%d seed=%d edge=(%d,%d)" n seed u v))
    (fun (n, seed, u, v) ->
      let g = Generate.random ~seed ~n ~p:0.3 in
      let db = Digraph.to_database g in
      let current = Naive.least_fixpoint tc db in
      let delta =
        Evallib.Dred.insert_facts tc db ~current ~additions:[ edge u v ]
      in
      Idb.equal delta.Dred.new_idb (Naive.least_fixpoint tc delta.Dred.new_db))

(* Random graphs: DRed = recompute, for random single and double deletions. *)
let prop_dred_equals_recompute =
  QCheck.Test.make ~name:"DRed = recomputation on random graphs" ~count:80
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 3 6 in
         let* seed = int_range 0 10000 in
         let* k = int_range 1 2 in
         return (n, seed, k))
       ~print:(fun (n, seed, k) -> Printf.sprintf "n=%d seed=%d k=%d" n seed k))
    (fun (n, seed, k) ->
      let g = Generate.random ~seed ~n ~p:0.4 in
      QCheck.assume (Digraph.edge_count g > k);
      let db = Digraph.to_database g in
      let edges = Digraph.edges g in
      let removals =
        List.filteri (fun i _ -> i < k) edges
        |> List.map (fun (u, v) -> edge u v)
      in
      let delta = maintain tc db removals in
      Idb.equal delta.Dred.new_idb (Naive.least_fixpoint tc delta.Dred.new_db))

(* Random update sequences against an independent oracle: each batch
   deletes present edges, re-inserts edges an earlier batch deleted, and
   may add an edge (and a vertex fact) with a fresh constant.  [new_db]
   must equal a database built afresh from the final fact list, [new_idb]
   the stratified model of that database, and the full re-application of
   the enumerating [loopfree] rule must run exactly when the batch brought
   a constant from outside the universe. *)
let reach_loopfree =
  Parser.parse_program_exn
    "r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y). reached(Y) :- r(X, \
     Y). unreached(X) :- v(X), !reached(X). loopfree(X) :- !e(X, X)."

let prop_batches_equal_fresh_database =
  QCheck.Test.make ~name:"DRed batches = a database built afresh" ~count:60
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 2 5 in
         let* seed = int_range 0 10000 in
         let* batches = int_range 1 4 in
         return (n, seed, batches))
       ~print:(fun (n, seed, b) ->
         Printf.sprintf "n=%d seed=%d batches=%d" n seed b))
    (fun (n, seed, batches) ->
      let g = Generate.random ~seed ~n ~p:0.4 in
      QCheck.assume (Digraph.edge_count g > 0);
      let rng = Negdl_util.Prng.create seed in
      let name i = "v" ^ string_of_int i in
      let facts0 =
        List.init n (fun i -> ("v", [ name i ]))
        @ List.map (fun (u, v) -> ("e", [ name u; name v ])) (Digraph.edges g)
      in
      let universe0 = List.init n name in
      (* DRed keeps [e] bound when its last edge goes; so does the oracle. *)
      let fresh_db universe facts =
        let db = Database.of_facts ~universe facts in
        if Database.relation "e" db = None then
          Database.set_relation "e" (Relalg.Relation.empty 2) db
        else db
      in
      let tuples = List.map (fun (p, args) -> (p, Tuple.of_strings args)) in
      let stats = Evallib.Stats.create () in
      let full_apps () =
        Option.value ~default:0
          (List.assoc_opt "dred full applications" stats.Evallib.Stats.extra)
      in
      let rec go k ~facts ~universe ~deleted ~db ~current =
        k = 0
        ||
        let removals =
          List.filter
            (fun (p, _) -> p = "e" && Negdl_util.Prng.int rng 3 = 0)
            facts
        in
        let reinserts =
          List.filter (fun _ -> Negdl_util.Prng.bool rng) deleted
        in
        let fresh =
          if Negdl_util.Prng.bool rng then
            [ Printf.sprintf "w%d_%d" batches k ]
          else []
        in
        let fresh_facts =
          List.concat_map
            (fun w ->
              let u = Negdl_util.Prng.pick rng universe in
              let edge =
                Negdl_util.Prng.pick rng [ [ u; w ]; [ w; u ]; [ w; w ] ]
              in
              ("e", edge)
              :: (if Negdl_util.Prng.bool rng then [ ("v", [ w ]) ] else []))
            fresh
        in
        let additions = reinserts @ fresh_facts in
        let before = full_apps () in
        let delta =
          Dred.apply ~stats reach_loopfree db ~current
            ~additions:(tuples additions) ~removals:(tuples removals) ()
        in
        let facts =
          List.filter (fun f -> not (List.mem f removals)) facts @ additions
        in
        let universe = universe @ fresh in
        let expected = fresh_db universe facts in
        Database.equal delta.Dred.new_db expected
        && Idb.equal delta.Dred.new_idb
             (Evallib.Stratified.eval_exn reach_loopfree expected)
        && full_apps () > before = (fresh <> [])
        && go (k - 1) ~facts ~universe
             ~deleted:
               (List.filter (fun f -> not (List.mem f reinserts)) deleted
               @ removals)
             ~db:delta.Dred.new_db ~current:delta.Dred.new_idb
      in
      let db = fresh_db universe0 facts0 in
      go batches ~facts:facts0 ~universe:universe0 ~deleted:[] ~db
        ~current:(Evallib.Stratified.eval_exn reach_loopfree db))

let () =
  Alcotest.run "dred"
    [
      ( "dred",
        [
          Alcotest.test_case "breaks path" `Quick test_delete_breaks_path;
          Alcotest.test_case "alternative derivation" `Quick
            test_alternative_derivation_survives;
          Alcotest.test_case "multiple deletions" `Quick test_delete_multiple;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "two predicates" `Quick test_two_predicates;
          Alcotest.test_case "insert extends" `Quick test_insert_extends_path;
          Alcotest.test_case "stratified delete" `Quick test_stratified_delete;
          Alcotest.test_case "stratified insert" `Quick test_stratified_insert;
          Alcotest.test_case "mixed batch" `Quick test_mixed_batch;
        ] );
      ( "limits",
        [
          Alcotest.test_case "second-best support" `Quick
            test_limit_second_best;
          Alcotest.test_case "max second-best" `Quick
            test_limit_max_second_best;
          Alcotest.test_case "group vanishes" `Quick test_limit_group_vanishes;
          Alcotest.test_case "cascading relax" `Quick
            test_limit_cascading_relax;
          Alcotest.test_case "mixed limit batch" `Quick test_limit_mixed_batch;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dred_equals_recompute;
            prop_insert_equals_recompute;
            prop_batches_equal_fresh_database;
          ] );
    ]
