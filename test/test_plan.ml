(* Plan-layer tests.

   The plan layer compiles each rule once into a static physical plan and
   every Theta-consumer executes it, so the properties here are the
   load-bearing ones for the refactor:

   - the Kripke-Kleene model, which runs through the grounding's
     instantiation plans, is the one the plain-set reference
     (test/support/reference.ml) computes from Fitting's definition on
     random programs (the other semantics are checked against the same
     reference under every engine in test_props.ml);
   - morsel scheduling is invisible: every plan run sharded into morsels of
     1 or 7 driving rows, inline or on a pool, emits what [Plan.run] emits;
   - delta-specialized plans derive exactly what full plans derive: the
     semi-naive engine (which runs the [Delta j] variants) agrees with the
     naive engine (full plans only) on the experiment workloads;
   - the plan cache's policy: static plans are reused until relation sizes
     drift;
   - compiled plans are well-formed on the paper's programs (negation
     becomes [Neg_check], unbound head variables become [Enumerate]);
   - [Theta.iterate] detects long-period orbits in one fingerprint lookup
     per step — a shift-register program with period k stays cheap for
     k far beyond what the old linear history scan handled. *)

module Ast = Datalog.Ast
module Parser = Datalog.Parser
module Idb = Evallib.Idb
module Theta = Evallib.Theta
module Plan = Planlib.Plan
module Cache = Planlib.Cache
module Generate = Graphlib.Generate
module Digraph = Graphlib.Digraph
module Database = Relalg.Database
module Tuple = Relalg.Tuple

let arb_case = Testsupport.Gen_programs.arb_case

let db_of g = Digraph.to_database g

let pi1 = Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y)."

let tc_program =
  Parser.parse_program_exn "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y)."

(* --- Kripke-Kleene against its definition --------------------------------- *)

module Reference = Testsupport.Reference

(* Kripke-Kleene runs through the grounding, whose instantiation plans are
   the plan-sensitive part: both the true and the possible facts must be
   the reference's. *)
let prop_kripke_kleene_reference =
  QCheck.Test.make ~name:"Kripke-Kleene = reference Kripke-Kleene" ~count:40
    arb_case (fun (p, db) ->
      let true_facts, possible =
        Reference.kripke_kleene p (Reference.of_database db)
      in
      let m = Evallib.Fitting.eval p db in
      let facts idb = Reference.facts_of_bindings (Idb.bindings idb) in
      Reference.Facts.equal true_facts (facts m.Evallib.Fitting.true_facts)
      && Reference.Facts.equal possible (facts m.Evallib.Fitting.possible))

(* --- morsel scheduling -------------------------------------------------------- *)

module Tuples = Set.Make (Tuple)

(* Pools of 1 and 3 participants, shared across cases: spawning domains per
   case would dominate the property's runtime. *)
let pools =
  lazy
    [
      Negdl_util.Domain_pool.create ~size:0 ();
      Negdl_util.Domain_pool.create ~size:2 ();
    ]

(* Small inputs only split into many morsels under a forced grain: one
   driving row per morsel, and a prime that straddles morsel boundaries.
   Each configuration compiles a fresh plan and runs it twice, covering the
   first run (which counts the driving input) and a later one (which sizes
   morsels from the feedback record and leaves the last one open-ended). *)
let prop_sharded_equals_run =
  QCheck.Test.make
    ~name:"sharded plans emit Plan.run's rows (grains 1, 7; pools 0, 2)"
    ~count:60 arb_case (fun (p, db) ->
      let s = Evallib.Inflationary.eval p db in
      let resolver = Evallib.Engine.uniform (Evallib.Engine.layered db s) in
      let universe = Database.universe db in
      let compile rule =
        Evallib.Engine.plan_rule ~universe_size:(List.length universe)
          ~resolver rule
      in
      List.for_all
        (fun rule ->
          let plan = compile rule in
          let expected = ref Tuples.empty in
          Plan.run ~resolver ~universe plan ~on_row:(fun env ->
              expected := Tuples.add (Plan.head_tuple plan env) !expected);
          List.for_all
            (fun pool ->
              List.for_all
                (fun grain ->
                  let plan = compile rule in
                  let sharded () =
                    let rows =
                      Array.make
                        (Negdl_util.Domain_pool.size pool + 1)
                        Tuples.empty
                    in
                    ignore
                      (Plan.run_sharded ~pool ~grain ~resolver ~universe plan
                         ~on_row:(fun part env ->
                           rows.(part) <-
                             Tuples.add (Plan.head_tuple plan env) rows.(part)));
                    Array.fold_left Tuples.union Tuples.empty rows
                  in
                  let first = sharded () in
                  let later = sharded () in
                  Tuples.equal first !expected && Tuples.equal later !expected)
                [ 1; 7 ])
            (Lazy.force pools))
        p.Ast.rules)

(* --- delta-specialized plans = full plans on the experiment workloads ----- *)

let distance_program =
  Parser.parse_program_exn
    "s1(X, Y) :- e(X, Y).\n\
     s1(X, Y) :- e(X, Z), s1(Z, Y).\n\
     s2(Xs, Ys) :- e(Xs, Ys).\n\
     s2(Xs, Ys) :- e(Xs, Zs), s2(Zs, Ys).\n\
     s3(X, Y, Xs, Ys) :- e(X, Y), !s2(Xs, Ys).\n\
     s3(X, Y, Xs, Ys) :- e(X, Z), s1(Z, Y), !s2(Xs, Ys)."

let workload_graphs =
  [
    ("L_6", Generate.path 6);
    ("C_6", Generate.cycle 6);
    ("C_7", Generate.cycle 7);
    ("2xC_4", Generate.disjoint_copies 2 (Generate.cycle 4));
    ("rnd6", Generate.random ~seed:41 ~n:6 ~p:0.3);
    ("star5", Generate.star 5);
  ]

let test_delta_equals_full () =
  List.iter
    (fun (gname, g) ->
      let db = db_of g in
      List.iter
        (fun (pname, p) ->
          let full =
            Evallib.Inflationary.eval ~engine:`Naive p db
          in
          let delta =
            Evallib.Inflationary.eval ~engine:`Seminaive p db
          in
          Alcotest.(check bool)
            (Printf.sprintf "delta plans = full plans: %s on %s" pname gname)
            true (Idb.equal full delta))
        [ ("pi1", pi1); ("tc", tc_program); ("distance", distance_program) ])
    workload_graphs

(* --- the cache policy ------------------------------------------------------ *)

let tc_rec_rule = List.nth tc_program.Ast.rules 1

let test_cache_policy () =
  let cache = Cache.create () in
  let counters = Plan.counters () in
  let size = ref 16 in
  let sizes _ _ = !size in
  let find () =
    Cache.find ~counters cache ~sizes ~universe_size:16 tc_rec_rule
  in
  let p1 = find () in
  let p2 = find () in
  Alcotest.(check bool) "static plan is reused" true (p1 == p2);
  (* Same magnitude: no drift, still a hit. *)
  size := 40;
  let p3 = find () in
  Alcotest.(check bool) "4x-with-slack drift not yet reached" true (p1 == p3);
  (* Past the 4x + slack threshold: recompiled. *)
  size := 1000;
  let p4 = find () in
  Alcotest.(check bool) "drifted sizes force a replan" true (p1 != p4);
  Alcotest.(check int) "compiles counted" 2 counters.Plan.plan_compiles;
  Alcotest.(check int) "hits counted" 2 counters.Plan.plan_cache_hits

(* --- plan shape on the paper's rules -------------------------------------- *)

let ops plan =
  Array.to_list (Array.map (fun (s : Plan.step) -> s.Plan.op) plan.Plan.steps)

let test_plan_shapes () =
  let sizes _ _ = 8 in
  (* pi_1: the negated IDB literal compiles to a Neg_check. *)
  let p = Plan.compile ~sizes ~universe_size:8 (List.hd pi1.Ast.rules) in
  Alcotest.(check bool) "pi_1 plan has a negation check" true
    (List.exists
       (function Plan.Neg_check _ -> true | _ -> false)
       (ops p));
  (* The toggle rule: only the head variable Z forces an enumeration.  U
     and W appear in exactly one negated literal each, so the plan answers
     them with first-witness existence checks instead of materialising
     every binding (the paper's non-range-restricted semantics is
     preserved: a negated literal with a dead variable holds unless the
     relation already covers every instantiation). *)
  let toggle = Parser.parse_program_exn "t(Z) :- !q(U), !t(W)." in
  let p = Plan.compile ~sizes ~universe_size:8 (List.hd toggle.Ast.rules) in
  let enums =
    List.length
      (List.filter
         (function Plan.Enumerate _ -> true | _ -> false)
         (ops p))
  in
  Alcotest.(check int) "toggle rule enumerates only Z" 1 enums;
  let neg_exists =
    List.length
      (List.filter
         (function Plan.Neg_exists _ -> true | _ -> false)
         (ops p))
  in
  Alcotest.(check int) "dead negated variables become existence checks" 2
    neg_exists;
  (* The recursive TC rule probes through an index. *)
  let p = Plan.compile ~sizes ~universe_size:8 tc_rec_rule in
  Alcotest.(check bool) "tc join compiles to an index probe" true
    (List.exists
       (function Plan.Index_probe _ -> true | _ -> false)
       (ops p))

(* --- Theta.iterate orbit detection ----------------------------------------- *)

(* A shift register: one atom circulating through k unary predicates.
   Theta moves the token one position per step, so the orbit has period
   exactly k and every valuation along it is distinct — the workload that
   made the old O(steps^2) history scan quadratic. *)
let shift_register k =
  let rules =
    List.init k (fun i ->
        Printf.sprintf "p%d(X) :- p%d(X)." ((i + 1) mod k) i)
  in
  Parser.parse_program_exn (String.concat " " rules)

let test_iterate_long_period () =
  let k = 48 in
  let p = shift_register k in
  let db = Database.create_strings [ "a" ] in
  let a = List.hd (Database.universe db) in
  let start = Idb.add_fact (Idb.of_program p) "p0" (Tuple.singleton a) in
  (match Theta.iterate p db start with
  | Theta.Entered_cycle { entry; period; states } ->
    Alcotest.(check int) "shift register period" k period;
    Alcotest.(check int) "cycle entered immediately" 0 entry;
    Alcotest.(check int) "one state per phase" k (List.length states)
  | Theta.Reached_fixpoint _ -> Alcotest.fail "shift register reached fixpoint"
  | Theta.Gave_up _ -> Alcotest.fail "orbit detection gave up");
  (* The empty valuation is a fixpoint of the same program. *)
  match Theta.iterate p db (Idb.of_program p) with
  | Theta.Reached_fixpoint { steps; _ } ->
    Alcotest.(check int) "empty valuation is already fixed" 0 steps
  | _ -> Alcotest.fail "empty valuation should be a fixpoint"

let test_iterate_pi1 () =
  (* pi_1 converges on paths, oscillates with period 2 on cycles — the
     paper's Section 2 observation, through the fingerprint detector. *)
  let check_path n =
    match Theta.iterate pi1 (db_of (Generate.path n)) (Idb.of_program pi1) with
    | Theta.Reached_fixpoint _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "pi_1 converges on L_5" true (check_path 5);
  let check_cycle n =
    match
      Theta.iterate pi1 (db_of (Generate.cycle n)) (Idb.of_program pi1)
    with
    | Theta.Entered_cycle { period; _ } -> period
    | _ -> -1
  in
  Alcotest.(check int) "pi_1 oscillates with period 2 on C_5" 2 (check_cycle 5);
  Alcotest.(check int) "pi_1 oscillates with period 2 on C_6" 2 (check_cycle 6)

(* --- explain output -------------------------------------------------------- *)

let test_pp_mentions_estimates () =
  let sizes _ _ = 8 in
  let plan = Plan.compile ~sizes ~universe_size:8 tc_rec_rule in
  let text = Plan.to_string plan in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "pp shows the rule" true
    (contains text "s(X, Y) :- e(X, Z), s(Z, Y).");
  Alcotest.(check bool) "pp shows estimates" true (contains text "est");
  Alcotest.(check bool) "pp shows the projection" true (contains text "project")

let () =
  Alcotest.run "plan"
    [
      ( "matrix",
        List.map QCheck_alcotest.to_alcotest
          [ prop_kripke_kleene_reference; prop_sharded_equals_run ] );
      ( "regressions",
        [
          Alcotest.test_case "delta plans = full plans (E-workloads)" `Quick
            test_delta_equals_full;
          Alcotest.test_case "cache policy (static drift)" `Quick
            test_cache_policy;
          Alcotest.test_case "plan shapes (neg check, enumerate, probes)"
            `Quick test_plan_shapes;
          Alcotest.test_case "pp output" `Quick test_pp_mentions_estimates;
        ] );
      ( "theta-orbits",
        [
          Alcotest.test_case "long-period shift register" `Quick
            test_iterate_long_period;
          Alcotest.test_case "pi_1 paths converge, cycles oscillate" `Quick
            test_iterate_pi1;
        ] );
    ]
