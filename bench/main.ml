(* The experiment & benchmark harness.

   "Why Not Negation by Fixpoint?" is a theory paper with no numeric tables,
   so the objects to regenerate are its concrete checkable claims.  Part 1
   reruns every experiment E1-E10 from EXPERIMENTS.md and prints a
   paper-expectation vs measured table.  Part 2 runs Bechamel
   micro-benchmarks — one Test.make per experiment family plus the
   brute-force vs SAT search comparison.

   Parts 3 to 5 and 7 are retired: there is one relation store, one
   indexing mode, one SAT search and one sequential evaluator.

   Part 6 ("plan") is the plan-layer benchmark: compile-once static plans
   timed on the Theta-application loop and on iteration-heavy and
   join-dominated E7/E8 workloads, the compile-once counters on the
   iteration-heavy one, and an allocation bound on the plan executor's hot
   loop.  Writes BENCH_plan.json and exits nonzero if compiles grow with
   iterations or the executor reaches 8 minor words per row.

   Part 8 ("serve") is the incremental-serving benchmark: a long-lived
   server absorbing single-fact and batched update streams (delete +
   re-derive, insert, mixed read/write with batched cached queries)
   against the cost of re-saturating from scratch on every batch, with
   sustained updates/sec and p50/p99 query latency.  Writes
   BENCH_serve.json and exits nonzero if the maintained model ever
   diverges from from-scratch stratified saturation or if a full
   (non-delta) rule application shows up on the incremental path.

   Part 9 ("snap") is the snapshot persistence benchmark: saturate,
   checkpoint to the versioned binary format, and compare restoring the
   file against re-saturating from cold, on transitive closure and on the
   serving reachability program.  Writes BENCH_snap.json (file size,
   bytes/tuple, restore speedup) and exits nonzero if the restored model
   differs or, in full mode, if restore is less than 10x faster than cold
   saturation on the large TC configuration.

   Part 10 ("agg") is the limit-predicate benchmark: shortest-path (min)
   and critical-path (max) bounds over seeded weighted graphs, limit-aware
   tightening vs the pair-materializing Datalog-not encoding of the same
   query, with dominant-filter parity, limit-model fingerprint parity
   across evaluations, E1-E8 fingerprint invariance, and
   an incremental serve session under mixed
   insert/delete that must keep dred full applications at 0.  Writes
   BENCH_agg.json and exits nonzero on any divergence or if tightening is
   less than 5x faster on the min workload (the gate is skipped, and
   marked as such, only if the generated workload has fewer than 2
   strata).

   Run with:  dune exec bench/main.exe                    (parts 1 and 2)
              dune exec bench/main.exe -- tables          (part 1 only)
              dune exec bench/main.exe -- micro           (part 2 only)
              dune exec bench/main.exe -- plan [quick]    (part 6 only)
              dune exec bench/main.exe -- serve [quick]   (part 8 only)
              dune exec bench/main.exe -- snap [quick]    (part 9 only)
              dune exec bench/main.exe -- agg [quick]     (part 10 only) *)

open Negdl

let section title =
  Format.printf "@.=== %s ===@." title

let row fmt = Format.printf fmt

let ok b = if b then "ok" else "MISMATCH"

let pi1 = Parser.parse_program_exn "t(X) :- e(Y, X), !t(Y)."

let tc_program =
  Parser.parse_program_exn "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y)."

let db_of g = Digraph.to_database g

(* --- E1: the Section 2 fixpoint census ----------------------------------- *)

let e1 () =
  section "E1  Fixpoint census of pi_1 (Section 2 example)";
  row "  %-10s %-10s %-10s %-8s %-6s@." "graph" "expected" "measured" "unique"
    "least";
  let run name g expected =
    let report = analyze_fixpoints ~count_limit:1024 pi1 (db_of g) in
    let measured = Option.value ~default:(-1) report.fixpoint_count in
    row "  %-10s %-10s %-10d %-8b %-6b %s@." name expected measured
      report.unique (report.least <> None)
      (ok (string_of_int measured = expected))
  in
  for n = 2 to 8 do
    run (Printf.sprintf "L_%d" n) (Generate.path n) "1"
  done;
  for n = 3 to 10 do
    run
      (Printf.sprintf "C_%d" n)
      (Generate.cycle n)
      (if n mod 2 = 0 then "2" else "0")
  done;
  for k = 1 to 4 do
    run
      (Printf.sprintf "%dxC_4" k)
      (Generate.disjoint_copies k (Generate.cycle 4))
      (string_of_int (1 lsl k))
  done;
  (* Larger k via exact #SAT counting (component decomposition): the 2^k
     growth measured without enumerating the fixpoints. *)
  row "  exact census (no enumeration), k x C_4:@.";
  List.iter
    (fun k ->
      let g = Generate.disjoint_copies k (Generate.cycle 4) in
      let solver = Fixpoints.prepare pi1 (db_of g) in
      match Fixpoints.count_exact solver with
      | Satlib.Outcome.Exact n ->
        row "  %-10s %-10d %-10d %s@."
          (Printf.sprintf "%dxC_4" k)
          (1 lsl k) n
          (ok (n = 1 lsl k))
      | Satlib.Outcome.Lower_bound _ ->
        row "  %-10s (budget exceeded)@." (Printf.sprintf "%dxC_4" k))
    [ 6; 8; 10; 12 ]

(* --- E2: SAT <-> fixpoint existence (Example 1 / Theorem 1) -------------- *)

let e2 () =
  section "E2  pi_SAT: satisfiability = fixpoint existence, models = fixpoints";
  row "  %-24s %-6s %-10s %-10s@." "instance" "sat?" "models" "fixpoints";
  let run name cnf =
    let sat = Sat_brute.is_satisfiable cnf in
    let models = Sat_brute.count_models cnf in
    let solver = Sat_db.solver cnf in
    let exists = Fixpoints.exists solver in
    let fixpoints = Fixpoints.count solver in
    row "  %-24s %-6b %-10d %-10d %s@." name sat models fixpoints
      (ok (sat = exists && models = fixpoints))
  in
  run "forced-sat 6v 20c" (Sat_workload.forced_sat ~seed:3 ~vars:6 ~clauses:20 ~k:3);
  run "pigeonhole 2" (Sat_workload.pigeonhole 2);
  for seed = 1 to 6 do
    run
      (Printf.sprintf "random 3cnf seed %d" seed)
      (Sat_workload.random_3cnf ~seed ~vars:5 ~clauses:(10 + (2 * seed)))
  done

(* --- E3: the generic Fagin compiler --------------------------------------- *)

let kernel_sentence =
  let open Fo in
  {
    Eso.second_order = [ ("S", 1) ];
    matrix =
      forall [ "x" ]
        (exists [ "y" ]
           (Or
              ( atom "S" [ var "x" ],
                And (atom "e" [ var "x"; var "y" ], atom "S" [ var "y" ]) )));
  }

let kernel_compiled =
  lazy
    (match Fagin.compile_sentence kernel_sentence with
    | Ok c -> c
    | Error e -> failwith e)

let e3 () =
  section "E3  Theorem 1 compiler: ESO sentence -> program, deciders agree";
  let compiled = Lazy.force kernel_compiled in
  row "  compiled program: %d rules, q=%s, t=%s@."
    (List.length compiled.Fagin.program.Ast.rules)
    compiled.Fagin.q_pred compiled.Fagin.t_pred;
  row "  %-12s %-6s %-9s@." "graph" "eso" "fixpoint";
  List.iter
    (fun (name, g) ->
      let db = db_of g in
      let eso = Eso.holds db kernel_sentence in
      let fp = Fagin.has_fixpoint compiled db in
      row "  %-12s %-6b %-9b %s@." name eso fp (ok (eso = fp)))
    [
      ("L_3", Generate.path 3);
      ("C_3", Generate.cycle 3);
      ("C_4", Generate.cycle 4);
      ("empty_3", Digraph.make 3 []);
      ("star_4", Generate.star 4);
      ("random", Generate.random ~seed:12 ~n:4 ~p:0.4);
    ]

(* --- E4: unique fixpoints (Theorem 2) -------------------------------------- *)

let e4 () =
  section "E4  Theorem 2: unique fixpoint iff unique satisfying assignment";
  row "  %-24s %-8s %-14s@." "instance" "models" "unique fixpoint";
  for k = 0 to 4 do
    let cnf = Sat_workload.exactly_k_models 3 k in
    let unique = Fixpoints.has_unique (Sat_db.solver cnf) in
    row "  %-24s %-8d %-14b %s@."
      (Printf.sprintf "engineered k=%d" k)
      k unique
      (ok (unique = (k = 1)))
  done;
  for seed = 1 to 4 do
    let cnf = Sat_workload.random_kcnf ~seed ~vars:4 ~clauses:8 ~k:2 in
    let models = Sat_brute.count_models cnf in
    let unique = Fixpoints.has_unique (Sat_db.solver cnf) in
    row "  %-24s %-8d %-14b %s@."
      (Printf.sprintf "random 2cnf seed %d" seed)
      models unique
      (ok (unique = (models = 1)))
  done

(* --- E5: least fixpoints (Theorem 3) ---------------------------------------- *)

let e5 () =
  section "E5  Theorem 3: least fixpoint = intersection-of-all-fixpoints test";
  row "  %-26s %-10s %-10s@." "instance" "expected" "measured";
  let run name solver expected =
    let least = Fixpoints.least solver <> None in
    row "  %-26s %-10b %-10b %s@." name expected least (ok (least = expected))
  in
  run "pi_1 on L_5" (Fixpoints.prepare pi1 (db_of (Generate.path 5))) true;
  run "pi_1 on C_4" (Fixpoints.prepare pi1 (db_of (Generate.cycle 4))) false;
  run "pi_1 on C_6" (Fixpoints.prepare pi1 (db_of (Generate.cycle 6))) false;
  run "tc (positive) random"
    (Fixpoints.prepare tc_program (db_of (Generate.random ~seed:7 ~n:4 ~p:0.4)))
    true;
  run "pi_SAT horn" (Sat_db.solver (Cnf.of_list 3 [ [ 1 ]; [ -1; 2 ] ])) true;
  run "pi_SAT x1-or-x2" (Sat_db.solver (Cnf.of_list 2 [ [ 1; 2 ] ])) false;
  let brute_ok =
    List.for_all
      (fun g ->
        let ground = Ground.ground pi1 (db_of g) in
        let solver = Fixpoints.prepare pi1 (db_of g) in
        match (Fixpoints_brute.least ground, Fixpoints.least solver) with
        | None, None -> true
        | Some x, Some y -> Idb.equal x y
        | _ -> false)
      [ Generate.path 4; Generate.cycle 4; Generate.cycle 5; Generate.star 4 ]
  in
  row "  brute-force agreement on 4 graphs: %s@." (ok brute_ok)

(* --- E6: pi_COL and succinct 3-coloring (Lemma 1, Theorem 4) ---------------- *)

let e6 () =
  section "E6  3-colorability: pi_COL fixpoints and the succinct version";
  row "  %-24s %-14s %-10s@." "graph" "backtracking" "fixpoint";
  List.iter
    (fun (name, g) ->
      let expected = Graph_coloring.is_3colorable g in
      let got = Coloring3.has_fixpoint g in
      row "  %-24s %-14b %-10b %s@." name expected got (ok (expected = got)))
    [
      ("K_3", Generate.complete 3);
      ("K_4", Generate.complete 4);
      ("C_5", Generate.cycle 5);
      ("grid 2x3", Generate.grid 2 3);
      ("random n=6", Generate.random ~seed:21 ~n:6 ~p:0.4);
      ("random n=7", Generate.random ~seed:22 ~n:7 ~p:0.3);
    ];
  row "  succinct (program carries the instance, universe = {0,1}):@.";
  List.iter
    (fun (name, sg) ->
      let expected = Graph_coloring.is_3colorable (Succinct.expand sg) in
      let got = Succinct3col.has_fixpoint (Succinct3col.compile sg) in
      row "  %-24s %-14b %-10b %s@." name expected got (ok (expected = got)))
    [
      ("hypercube n=2", Succinct.hypercube 2);
      ("complete n=2 (K_4)", Succinct.complete 2);
      ("K_4 explicit", Succinct.of_explicit (Generate.complete 4));
    ]

(* --- E7: inflationary semantics is PTIME; stage bound ----------------------- *)

let time f =
  let start = Sys.time () in
  let result = f () in
  (result, Sys.time () -. start)

let e7 () =
  section "E7  Inflationary evaluation: polynomial scaling, stage bound";
  row "  %-14s %-8s %-8s %-12s@." "workload" "tuples" "stages"
    "seminaive(s)";
  List.iter
    (fun n ->
      let g = Generate.random ~seed:31 ~n ~p:(4.0 /. float_of_int n) in
      let db = db_of g in
      let trace, t_semi =
        time (fun () -> Inflationary.eval_trace tc_program db)
      in
      let stages = List.length trace.Saturate.deltas in
      let tuples = Idb.total_cardinal trace.Saturate.result in
      let bound = n * n in
      row "  tc n=%-9d %-8d %-8d %-12.4f %s@." n tuples stages t_semi
        (ok (stages <= bound)))
    [ 10; 20; 40; 80 ];
  let g = Generate.random ~seed:33 ~n:12 ~p:0.25 in
  let db = db_of g in
  let agree =
    Idb.equal
      (Inflationary.eval tc_program db)
      (Naive.least_fixpoint tc_program db)
  in
  row "  inflationary = least fixpoint on positive program: %s@." (ok agree)

(* --- E8: the distance query (Proposition 2) ---------------------------------- *)

let e8 () =
  section "E8  Proposition 2: inflationary vs stratified on the same program";
  row "  %-18s %-12s %-12s %-10s %-10s@." "graph" "infl=BFS" "strat=TCpair"
    "infl size" "strat size";
  List.iter
    (fun (name, g) ->
      let infl = Distance.inflationary g in
      let strat = Distance.stratified g in
      let infl_ok = Relation.equal infl (Distance.reference g) in
      let strat_ok = Relation.equal strat (Distance.reference_stratified g) in
      row "  %-18s %-12b %-12b %-10d %-10d %s@." name infl_ok strat_ok
        (Relation.cardinal infl) (Relation.cardinal strat)
        (ok (infl_ok && strat_ok)))
    [
      ("L_5", Generate.path 5);
      ("L_7", Generate.path 7);
      ("C_5", Generate.cycle 5);
      ("L_3 + C_3", Digraph.disjoint_union (Generate.path 3) (Generate.cycle 3));
      ("random n=6", Generate.random ~seed:41 ~n:6 ~p:0.25);
      ("grid 2x3", Generate.grid 2 3);
    ]

(* --- E9: Proposition 1 --------------------------------------------------------- *)

let e9 () =
  section "E9  Proposition 1: Inflationary DATALOG = existential FO+IFP";
  row "  %-12s %-30s@." "program" "round-trips preserving semantics";
  List.iter
    (fun (name, p) ->
      let agree_all =
        List.for_all
          (fun seed ->
            let g = Generate.random ~seed:(900 + seed) ~n:4 ~p:0.35 in
            let db = db_of g in
            Prop1.agree p db
            &&
            let p' =
              Prop1.program_of_operators_exn (Prop1.operators_of_program p)
            in
            Idb.equal (Inflationary.eval p db) (Inflationary.eval p' db))
          [ 1; 2; 3 ]
      in
      row "  %-12s %-30s@." name (ok agree_all))
    [
      ("tc", tc_program);
      ("pi_1", pi1);
      ("distance", Distance.program);
      ("toggle", Parser.parse_program_exn "t(Z) :- !t(W).");
    ]

(* --- E10: data vs expression complexity shape ------------------------------------ *)

let e10 () =
  section "E10 Data vs expression complexity (grounding blow-up shape)";
  row "  fixed program (pi_SAT), growing data: ground atoms grow \
       polynomially@.";
  row "  %-10s %-12s %-12s %-10s@." "vars" "|universe|" "atoms" "rules";
  List.iter
    (fun vars ->
      let cnf = Sat_workload.random_3cnf ~seed:51 ~vars ~clauses:(2 * vars) in
      let solver = Sat_db.solver cnf in
      let g = Fixpoints.ground solver in
      row "  %-10d %-12d %-12d %-10d@." vars (vars + (2 * vars))
        (Ground.atom_count g) (Ground.rule_count g))
    [ 3; 4; 5; 6; 8 ];
  row "  growing program (succinct 3-coloring), fixed data {0,1}: atoms \
       grow with 4^bits per gate@.";
  row "  %-10s %-12s %-12s %-10s@." "bits" "rules" "atoms" "grules";
  List.iter
    (fun bits ->
      let compiled = Succinct3col.compile (Succinct.hypercube bits) in
      let solver = Succinct3col.solver compiled in
      let g = Fixpoints.ground solver in
      row "  %-10d %-12d %-12d %-10d@." bits
        (List.length compiled.Succinct3col.program.Ast.rules)
        (Ground.atom_count g) (Ground.rule_count g))
    [ 1; 2; 3 ]

(* --- E11: the Section 5 expressiveness hierarchy, empirically ---------------- *)

let e11 () =
  section "E11 Expressiveness hierarchy (Section 5), empirical witnesses";
  (* DATALOG defines only monotone queries; TC is monotone, the distance
     query is not. *)
  let tc_query g =
    Idb.get (Naive.least_fixpoint tc_program (db_of g)) "s"
  in
  let p_tc, v_tc =
    Expressiveness.monotonicity_trials ~seed:5 ~trials:60 ~query:tc_query
  in
  row "  tc under random edge additions:        preserved=%d violated=%d %s@."
    p_tc v_tc (ok (v_tc = 0));
  let p_d, v_d =
    Expressiveness.monotonicity_trials ~seed:11 ~trials:80
      ~query:Distance.inflationary
  in
  row "  distance under random edge additions:  preserved=%d violated=%d %s@."
    p_d v_d (ok (v_d > 0));
  let g, g', quad = Expressiveness.distance_witness () in
  row "  concrete witness: quad in D(G) dropped by adding one edge: %s@."
    (ok
       (Relation.mem quad (Distance.inflationary g)
       && not (Relation.mem quad (Distance.inflationary g'))));
  (* FO queries stabilise in O(1) inflationary stages; the distance
     program does not. *)
  let make_db n = db_of (Generate.path n) in
  let d_stages =
    Expressiveness.stage_counts Distance.program ~make_db [ 3; 5; 7; 9; 11 ]
  in
  let pi1_stages = Expressiveness.stage_counts pi1 ~make_db [ 3; 5; 7; 9; 11 ] in
  row "  inflationary stages on L_n, n = 3,5,7,9,11:@.";
  row "    distance program: %s (unbounded growth — not first-order)@."
    (String.concat ", " (List.map string_of_int d_stages));
  row "    pi_1:             %s (constant — its inflationary value is FO)@."
    (String.concat ", " (List.map string_of_int pi1_stages))

(* --- Extensions beyond the paper --------------------------------------------- *)

let ext () =
  section "EXT Extensions: supported vs stable models, kernels, magic sets, PFP";
  (* Supported models (= the paper's fixpoints) vs stable models. *)
  row "  %-26s %-10s %-8s@." "program / database" "supported" "stable";
  let win = Parser.parse_program_exn "win(X) :- e(X, Y), !win(Y)." in
  let self = Parser.parse_program_exn "p(X) :- p(X)." in
  List.iter
    (fun (name, p, db) ->
      let solver = Fixpoints.prepare p db in
      row "  %-26s %-10d %-8d@." name (Fixpoints.count solver)
        (Stable.count_stable solver))
    [
      ("win-move / L_4", win, db_of (Generate.path 4));
      ("win-move / 2-cycle", win, db_of (Generate.cycle 2));
      ("p :- p / one constant", self, Relalg.Database.create_strings [ "a" ]);
      ("pi_1 / C_6", pi1, db_of (Generate.cycle 6));
    ];
  (* Kernels. *)
  let kernel_ok =
    List.for_all
      (fun g ->
        Fixpoints.count (Fixpoints.prepare pi1 (db_of g))
        = Kernel.count (Digraph.reverse g))
      [ Generate.path 5; Generate.cycle 5; Generate.cycle 6; Generate.star 4 ]
  in
  row "  pi_1 fixpoints = kernels of the reversed graph (4 graphs): %s@."
    (ok kernel_ok);
  (* Magic sets. *)
  let g = Generate.path 40 in
  let db = db_of g in
  let query = Ast.atom "s" [ Ast.Const (Digraph.vertex_symbol 35); Ast.Var "Y" ] in
  let answers, t_magic = time (fun () -> Query.answer_exn tc_program db ~query) in
  let full, t_full = time (fun () -> Naive.least_fixpoint tc_program db) in
  let selected =
    Relation.select_eq 0 (Digraph.vertex_symbol 35) (Idb.get full "s")
  in
  row
    "  magic sets on tc, query s(v35, Y) over L_40: %d answers, %.4fs vs \
     full %.4fs %s@."
    (Relation.cardinal answers) t_magic t_full
    (ok (Relation.equal answers selected));
  (* Partial vs inflationary fixpoint on the toggle operator. *)
  (* phi(x, S) = exists z. not S(z): the toggle as an FO operator. *)
  let toggle_op =
    {
      Ifp.pred = "s";
      vars = [ "V1" ];
      body = Fo.Exists ("z", Fo.Not (Fo.Atom ("s", [ Fo.Var "z" ])));
    }
  in
  let db2 = Relalg.Database.create_strings [ "a"; "b" ] in
  row "  toggle operator: PFP %s, IFP |S| = %d %s@."
    (match Ifp.partial_fixpoint db2 toggle_op with
    | None -> "undefined (oscillates)"
    | Some _ -> "defined")
    (Relation.cardinal (Ifp.inflationary_fixpoint db2 toggle_op))
    (ok (Ifp.partial_fixpoint db2 toggle_op = None))

let tables () =
  Format.printf
    "Experiment tables (paper claim vs measured) — see EXPERIMENTS.md@.";
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  ext ();
  Format.printf "@."

(* --- Part 2: Bechamel micro-benchmarks ------------------------------------------- *)

open Bechamel
open Toolkit

let stage = Staged.stage

let micro_tests () =
  let c8 = db_of (Generate.cycle 8) in
  let rnd30 = db_of (Generate.random ~seed:61 ~n:30 ~p:0.12) in
  let rnd60 = db_of (Generate.random ~seed:62 ~n:60 ~p:0.06) in
  let path8 = Generate.path 8 in
  let cnf_small = Sat_workload.random_3cnf ~seed:63 ~vars:6 ~clauses:20 in
  let cnf_solver = Sat_workload.forced_sat ~seed:64 ~vars:60 ~clauses:250 ~k:3 in
  let pigeon = Sat_workload.pigeonhole 6 in
  let pi1_c8_ground = Ground.ground pi1 c8 in
  let eval_group =
    Test.make_grouped ~name:"e7_eval"
      [
        Test.make ~name:"tc_seminaive_n30"
          (stage (fun () -> Inflationary.eval tc_program rnd30));
        Test.make ~name:"tc_seminaive_n60"
          (stage (fun () -> Inflationary.eval tc_program rnd60));
        Test.make ~name:"pi1_inflationary_n60"
          (stage (fun () -> Inflationary.eval pi1 rnd60));
      ]
  in
  let distance_group =
    Test.make_grouped ~name:"e8_distance"
      [
        Test.make ~name:"inflationary_path8"
          (stage (fun () -> Distance.inflationary path8));
        Test.make ~name:"stratified_path8"
          (stage (fun () -> Distance.stratified path8));
        Test.make ~name:"bfs_reference_path8"
          (stage (fun () -> Distance.reference path8));
      ]
  in
  let fixpoint_group =
    Test.make_grouped ~name:"e1_e2_fixpoint_search"
      [
        Test.make ~name:"pi1_c8_sat_census"
          (stage (fun () -> Fixpoints.count (Fixpoints.prepare pi1 c8)));
        Test.make ~name:"pi1_c8_brute_census"
          (stage (fun () -> Fixpoints_brute.count pi1_c8_ground));
        Test.make ~name:"pi_sat_exists_6v20c"
          (stage (fun () -> Fixpoints.exists (Sat_db.solver cnf_small)));
        Test.make ~name:"pi_sat_ground_6v20c"
          (stage (fun () ->
               Ground.ground Sat_db.program (Sat_db.database_of_cnf cnf_small)));
      ]
  in
  let sat_group =
    Test.make_grouped ~name:"sat_solver"
      [
        Test.make ~name:"cdcl_forced_60v250c"
          (stage (fun () -> Sat_solver.is_satisfiable cnf_solver));
        Test.make ~name:"cdcl_pigeonhole_6"
          (stage (fun () -> Sat_solver.is_satisfiable pigeon));
      ]
  in
  let stable_group =
    let win = Parser.parse_program_exn "win(X) :- e(X, Y), !win(Y)." in
    let gdb = db_of (Generate.random ~seed:68 ~n:7 ~p:0.3) in
    Test.make_grouped ~name:"extensions_stable"
      [
        Test.make ~name:"supported_census_n7"
          (stage (fun () -> Fixpoints.count (Fixpoints.prepare win gdb)));
        Test.make ~name:"stable_census_n7"
          (stage (fun () -> Stable.count_stable (Fixpoints.prepare win gdb)));
        Test.make ~name:"wellfounded_n7"
          (stage (fun () -> Wellfounded.eval win gdb));
      ]
  in
  let theta_group =
    (* One full application of the TC rules against its saturated IDB. *)
    let tc_db = db_of (Generate.random ~seed:65 ~n:40 ~p:0.1) in
    let tc_full = Inflationary.eval tc_program tc_db in
    Test.make_grouped ~name:"theta_operator"
      [
        Test.make ~name:"theta_pi1_c8"
          (stage (fun () -> Theta.apply pi1 c8 (Idb.of_program pi1)));
        Test.make ~name:"ground_apply_pi1_c8"
          (stage (fun () -> Ground.apply pi1_c8_ground (Idb.of_program pi1)));
        Test.make ~name:"theta_tc_n40"
          (stage (fun () -> Theta.apply tc_program tc_db tc_full));
      ]
  in
  let magic_group =
    (* Ablation: goal-directed vs full bottom-up on a selective query over
       two disconnected components (the magic rewrite only explores one). *)
    let g = Generate.path 60 in
    let db = db_of g in
    let source = 55 in
    let query =
      Ast.atom "s" [ Ast.Const (Digraph.vertex_symbol source); Ast.Var "Y" ]
    in
    Test.make_grouped ~name:"ablation_magic"
      [
        Test.make ~name:"magic_tc_v55_path60"
          (stage (fun () -> Query.answer_exn tc_program db ~query));
        Test.make ~name:"full_tc_then_select_path60"
          (stage (fun () ->
               let full = Naive.least_fixpoint tc_program db in
               Relation.select_eq 0
                 (Digraph.vertex_symbol source)
                 (Idb.get full "s")));
      ]
  in
  Test.make_grouped ~name:"negdl"
    [
      eval_group;
      distance_group;
      fixpoint_group;
      sat_group;
      theta_group;
      magic_group;
      stable_group;
    ]

let run_micro () =
  Format.printf "Micro-benchmarks (Bechamel; OLS time-per-run estimates)@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ x ] -> x
          | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Format.printf "  %-50s (no estimate)@." name
      else if ns > 1e9 then Format.printf "  %-50s %10.3f s@." name (ns /. 1e9)
      else if ns > 1e6 then Format.printf "  %-50s %10.3f ms@." name (ns /. 1e6)
      else if ns > 1e3 then Format.printf "  %-50s %10.3f us@." name (ns /. 1e3)
      else Format.printf "  %-50s %10.0f ns@." name ns)
    rows

(* --- Best-of-k wall-clock timing ------------------------------------------- *)

let wall f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

let best_of repeats f =
  let result = ref None in
  let best = ref infinity in
  for _ = 1 to repeats do
    let r, t = wall f in
    result := Some r;
    if t < !best then best := t
  done;
  (Option.get !result, !best)

(* --- E1-E8 parity fingerprint ------------------------------------------------ *)

(* A fingerprint of the E1-E8 experiment drivers: every count an evaluation
   configuration could corrupt, as (name, integer) pairs.  The plan and
   agg parts compute it under each configuration they vary and exit
   nonzero if any entry disagrees. *)
let parity_fingerprint () =
  let entries = ref [] in
  let add name v = entries := (name, v) :: !entries in
  let bit name b = add name (if b then 1 else 0) in
  (* E1: the Section 2 fixpoint census. *)
  List.iter
    (fun (name, g) ->
      add ("e1_census_" ^ name)
        (Fixpoints.count (Fixpoints.prepare pi1 (db_of g))))
    [
      ("C4", Generate.cycle 4);
      ("C5", Generate.cycle 5);
      ("C6", Generate.cycle 6);
      ("L5", Generate.path 5);
      ("2xC4", Generate.disjoint_copies 2 (Generate.cycle 4));
    ];
  (* E2: pi_SAT model/fixpoint counts. *)
  List.iter
    (fun seed ->
      let cnf = Sat_workload.random_3cnf ~seed ~vars:5 ~clauses:(10 + (2 * seed)) in
      add
        (Printf.sprintf "e2_pisat_seed%d" seed)
        (Fixpoints.count (Sat_db.solver cnf)))
    [ 1; 2; 3 ];
  (* E3: the Fagin-compiled kernel decider. *)
  List.iter
    (fun (name, g) ->
      bit ("e3_fagin_" ^ name)
        (Fagin.has_fixpoint (Lazy.force kernel_compiled) (db_of g)))
    [ ("L3", Generate.path 3); ("C3", Generate.cycle 3); ("C4", Generate.cycle 4) ];
  (* E4: unique fixpoints. *)
  List.iter
    (fun k ->
      bit
        (Printf.sprintf "e4_unique_k%d" k)
        (Fixpoints.has_unique (Sat_db.solver (Sat_workload.exactly_k_models 3 k))))
    [ 0; 1; 2 ];
  (* E5: least-fixpoint existence. *)
  List.iter
    (fun (name, solver) -> bit ("e5_least_" ^ name) (Fixpoints.least solver <> None))
    [
      ("pi1_L5", Fixpoints.prepare pi1 (db_of (Generate.path 5)));
      ("pi1_C4", Fixpoints.prepare pi1 (db_of (Generate.cycle 4)));
      ("sat_or", Sat_db.solver (Cnf.of_list 2 [ [ 1; 2 ] ]));
    ];
  (* E6: pi_COL 3-colorability. *)
  List.iter
    (fun (name, g) -> bit ("e6_3col_" ^ name) (Coloring3.has_fixpoint g))
    [
      ("K3", Generate.complete 3);
      ("C5", Generate.cycle 5);
      ("grid23", Generate.grid 2 3);
    ];
  (* E7: inflationary TC sizes and stage counts. *)
  let trace =
    Inflationary.eval_trace tc_program
      (db_of (Generate.random ~seed:31 ~n:30 ~p:0.13))
  in
  add "e7_tc30_tuples" (Idb.total_cardinal trace.Saturate.result);
  add "e7_tc30_stages" (List.length trace.Saturate.deltas);
  (* E8: the distance query, inflationary vs stratified. *)
  List.iter
    (fun (name, g) ->
      add ("e8_dist_infl_" ^ name) (Relation.cardinal (Distance.inflationary g));
      add ("e8_dist_strat_" ^ name) (Relation.cardinal (Distance.stratified g)))
    [ ("L7", Generate.path 7); ("rnd6", Generate.random ~seed:41 ~n:6 ~p:0.25) ];
  (* The three-valued side, for good measure. *)
  let m = Wellfounded.eval pi1 (db_of (Generate.cycle 5)) in
  add "wf_pi1_c5_true" (Idb.total_cardinal m.Wellfounded.true_facts);
  add "wf_pi1_c5_possible" (Idb.total_cardinal m.Wellfounded.possible);
  List.rev !entries

(* --- Part 6: plan-layer benchmark (BENCH_plan.json) -------------------------- *)

(* Satellite check: the plan executor's hot loop must not allocate per row
   (return-value matching, no exceptions, plain-array environment).  A warm
   second execution of a compiled plan — indexes already memoized — is
   measured in minor-heap words per emitted row; anything beyond the
   per-execution setup (scratch tuples, resolved relations) trips the
   bound. *)
let executor_words_per_row () =
  let db = db_of (Generate.cycle 64) in
  let full = Inflationary.eval tc_program db in
  let resolver = Engine.uniform (Engine.layered db full) in
  let universe = Database.universe db in
  let rule = List.nth tc_program.Ast.rules 1 in
  let plan =
    Engine.plan_rule ~universe_size:(fun () -> List.length universe)
      ~resolver rule
  in
  let rows = ref 0 in
  let run () =
    Plan.run ~resolver ~universe plan ~on_row:(fun _ -> incr rows)
  in
  run ();
  (* warm: relation indexes built and memoized *)
  rows := 0;
  let before = Gc.minor_words () in
  run ();
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int (max 1 !rows)

let plan_bench ~quick () =
  Format.printf "Plan-layer benchmark%s -> BENCH_plan.json@."
    (if quick then " (quick mode)" else "");
  let best_reps = if quick then 2 else 4 in
  (* Workload 1 — the Theta-application loop itself, on E1's pi_1: the
     operator every semantics in the paper iterates, applied over and over
     at its inflationary valuation on C_8 with a shared plan cache.  This
     is the regime of Theta.iterate's orbit detection and the well-founded
     alternating fixpoint's inner reducts — thousands of applications over
     a tiny valuation — where per-application planning overhead, not
     join work, dominates. *)
  let theta_db = db_of (Generate.cycle 8) in
  (* A true fixpoint valuation (one of C_8's kernels), so each application
     re-derives exactly S. *)
  let theta_fp =
    match Fixpoints.find (Fixpoints.prepare pi1 theta_db) with
    | Some fp -> fp
    | None -> Inflationary.eval pi1 theta_db
  in
  let theta_iters = if quick then 20000 else 50000 in
  let theta_cell () =
    let cache = Plan_cache.create () in
    ignore (Theta.apply ~cache pi1 theta_db theta_fp);
    let run () =
      for _ = 2 to theta_iters do
        ignore (Theta.apply ~cache pi1 theta_db theta_fp)
      done;
      Theta.apply ~cache pi1 theta_db theta_fp
    in
    let r, t = best_of best_reps run in
    (Idb.total_cardinal r, t /. float_of_int theta_iters)
  in
  (* Workload 2 — application-heavy TC (the E7 family): k vertex-disjoint
     transitive closures over small cycles.  Every semi-naive stage runs
     one delta application per copy, each joining a handful of tuples.
     Each (rule, variant) compiles once and hits the cache for the rest
     of the run. *)
  let multi_copies = if quick then 32 else 48 in
  let multi_cycle = 8 in
  let multi_reps = if quick then 4 else 6 in
  let multi_program =
    List.init multi_copies (fun i ->
        Printf.sprintf
          "s%d(X, Y) :- e%d(X, Y). s%d(X, Y) :- e%d(X, Z), s%d(Z, Y)." i i i
          i i)
    |> String.concat "\n" |> Parser.parse_program_exn
  in
  let multi_db =
    List.init multi_copies (fun i ->
        Digraph.to_database
          ~universe_prefix:(Printf.sprintf "c%dv" i)
          ~pred:(Printf.sprintf "e%d" i)
          (Generate.cycle multi_cycle))
    |> List.fold_left Database.merge (Database.create ~universe:[])
  in
  let tc_cell () =
    let run () =
      for _ = 2 to multi_reps do
        ignore (Inflationary.eval multi_program multi_db)
      done;
      Inflationary.eval multi_program multi_db
    in
    let r, t = best_of best_reps run in
    (Idb.total_cardinal r, t /. float_of_int multi_reps)
  in
  (* Workload 3 — the E8 distance program on L_n: six rules, three
     delta-specialized variants per stage, ~n stages; a multi-rule body
     mix (negation, universe enumeration) with small per-stage deltas. *)
  let dist_n = if quick then 10 else 13 in
  let dist_reps = if quick then 3 else 4 in
  let dist_g = Generate.path dist_n in
  let dist_cell () =
    let run () =
      for _ = 2 to dist_reps do
        ignore (Distance.inflationary dist_g)
      done;
      Distance.inflationary dist_g
    in
    let r, t = best_of best_reps run in
    (Relation.cardinal r, t /. float_of_int dist_reps)
  in
  (* Workload 4 — dense TC (join-output-dominated, the E7 dense point):
     here execution dwarfs planning, and index probes are what keep it
     fast. *)
  let dense_n = if quick then 90 else 140 in
  let dense_db =
    db_of (Generate.random ~seed:79 ~n:dense_n ~p:(4.0 /. float_of_int dense_n))
  in
  let dense_cell () =
    let run () = Inflationary.eval tc_program dense_db in
    let r, t = best_of best_reps run in
    (Idb.total_cardinal r, t)
  in
  let workloads =
    [
      ("theta_pi1_apply", theta_cell);
      ("tc_multi_iterheavy", tc_cell);
      ("distance_path", dist_cell);
      ("tc_dense", dense_cell);
    ]
  in
  let rows =
    List.map
      (fun (wname, cell) ->
        let tuples, seconds = cell () in
        (wname, tuples, seconds))
      workloads
  in
  Format.printf "  %-34s %10s %10s@." "workload" "ms" "tuples";
  List.iter
    (fun (wname, tuples, seconds) ->
      Format.printf "  %-34s %10.2f %10d@." wname (seconds *. 1e3) tuples)
    rows;
  (* Plan-counter telemetry on the iteration-heavy workload: a bounded set
     of plans compiles — full + delta variants, at most 3 per copy — and
     the cache hits everywhere else, so compiles scale with rules, not
     with iterations. *)
  let compiles, cache_hits =
    let stats = Stats.create () in
    ignore (Inflationary.eval ~stats multi_program multi_db);
    (stats.Stats.plan.Plan.plan_compiles, stats.Stats.plan.Plan.plan_cache_hits)
  in
  let compile_once_ok = compiles <= 3 * multi_copies in
  Format.printf "  plan compiles on %dx tc C_%d: %d (%d cache hits) %s@."
    multi_copies multi_cycle compiles cache_hits (ok compile_once_ok);
  let words_per_row = executor_words_per_row () in
  let alloc_ok = words_per_row < 8.0 in
  Format.printf "  executor allocation: %.2f minor words/row (bound 8.0) %s@."
    words_per_row (ok alloc_ok);
  let oc = open_out "BENCH_plan.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"quick\": %b,\n" quick;
  out "  \"host_domains\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"workloads\": [\n";
  List.iteri
    (fun i (wname, tuples, seconds) ->
      out "    {\"workload\": %S, \"ns_per_op\": %.0f, \"tuples\": %d}%s\n"
        wname (seconds *. 1e9) tuples
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n";
  out "  \"plan_counters\": {\n";
  out "    \"compiles\": %d,\n" compiles;
  out "    \"cache_hits\": %d\n" cache_hits;
  out "  },\n";
  out "  \"checks\": {\n";
  out "    \"compile_once\": %b,\n" compile_once_ok;
  out "    \"executor_words_per_row\": %.2f,\n" words_per_row;
  out "    \"executor_allocation_ok\": %b\n" alloc_ok;
  out "  }\n";
  out "}\n";
  close_out oc;
  if not (alloc_ok && compile_once_ok) then begin
    Format.printf "  plan executor allocates per row or recompiles — failing@.";
    exit 1
  end

(* --- Part 8: incremental serving benchmark (BENCH_serve.json) ---------------- *)

(* Reachability with a negation-dependent complement: updates cross a
   stratum boundary, so every batch exercises over-deletion, put-back and
   the seeded insert phase. *)
let serve_program =
  Parser.parse_program_exn
    "r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y). reached(Y) :- r(X, \
     Y). unreached(X) :- v(X), !reached(X)."

(* Many small components: a single-fact update only disturbs the component
   it lands in, so incremental work must stay roughly [1/k] of a full
   re-saturation — the delta-scaling regime a server lives in.  (One dense
   strongly-connected graph is DRed's worst case: every closure fact
   depends on every edge, and over-deletion legitimately touches
   everything.) *)
let serve_db ~seed ~components ~size =
  let g =
    Generate.disjoint_copies components
      (Generate.random ~seed ~n:size ~p:(1.8 /. float_of_int size))
  in
  let n = Digraph.vertex_count g in
  let db = db_of g in
  ( List.fold_left
      (fun d i ->
        Database.add_fact "v" (Tuple.singleton (Digraph.vertex_symbol i)) d)
      db
      (List.init n (fun i -> i)),
    n )

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (float_of_int n *. q)))

let serve_bench ~quick () =
  Format.printf
    "Incremental serving benchmark (delta-driven DRed%s) -> BENCH_serve.json@."
    (if quick then ", quick mode" else "");
  let require = function Ok v -> v | Error e -> failwith e in
  let components = if quick then 12 else 36 in
  let batches = if quick then 60 else 240 in
  let initial_db, n = serve_db ~seed:83 ~components ~size:8 in
  let stats = Stats.create () in
  let t = require (Serve.create ~stats serve_program initial_db) in
  let ra_materialize = stats.Stats.rule_applications in
  let td_materialize = stats.Stats.tuples_derived in
  let edges_of t =
    match Database.relation "e" (Serve.database t) with
    | None -> [||]
    | Some rel ->
      Array.of_list (List.rev (Relation.fold (fun tup acc -> tup :: acc) rel []))
  in
  let rng = Prng.create 20260808 in
  let vertex i = Digraph.vertex_symbol i in
  let update_times = ref [] and query_times = ref [] in
  let timed cell f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    cell := (Unix.gettimeofday () -. t0) :: !cell;
    r
  in
  (* The update stream: deletions of present edges interleaved with
     re-insertions and fresh random edges (the universe stays fixed, so the
     enumerating-rule rescue never fires and [full_applications] must stay
     0).  Every batch is followed by three queries — one repeated, so the
     version-tagged cache both hits and gets invalidated continuously. *)
  let deleted = ref [] in
  let parity_failures = ref 0 in
  for i = 1 to batches do
    (match !deleted with
    | tup :: rest when i mod 2 = 1 ->
      deleted := rest;
      ignore (require (timed update_times (fun () -> Serve.insert t [ ("e", tup) ])))
    | _ -> (
      let edges = edges_of t in
      if i mod 4 = 0 || Array.length edges = 0 then
        let u = Prng.int rng n and v = Prng.int rng n in
        ignore
          (timed update_times (fun () ->
               Serve.insert t [ ("e", Tuple.pair (vertex u) (vertex v)) ]))
      else begin
        let tup = edges.(Prng.int rng (Array.length edges)) in
        deleted := tup :: !deleted;
        ignore
          (require (timed update_times (fun () -> Serve.delete t [ ("e", tup) ])))
      end));
    let u = Prng.int rng n in
    let q = { Ast.pred = "r"; args = [ Ast.Const (vertex u); Ast.Var "Y" ] } in
    ignore (timed query_times (fun () -> Serve.query t q));
    ignore (timed query_times (fun () -> Serve.query t q));
    let unreached = { Ast.pred = "unreached"; args = [ Ast.Var "X" ] } in
    ignore (require (timed query_times (fun () -> Serve.query t unreached)));
    (* Spot parity: the maintained model vs from-scratch saturation. *)
    if i mod (batches / 4) = 0 then begin
      let scratch = Stratified.eval_exn serve_program (Serve.database t) in
      if not (Idb.equal (Serve.snapshot t) scratch) then begin
        incr parity_failures;
        Format.printf "  DIVERGENCE after batch %d@." i
      end
    end
  done;
  let final_scratch = Stratified.eval_exn serve_program (Serve.database t) in
  let final_parity = Idb.equal (Serve.snapshot t) final_scratch in
  (* Batch parity: the net of all [batches] single-fact updates applied as
     ONE batch to a fresh server must land on the same model. *)
  let tuples_of db =
    match Database.relation "e" db with
    | None -> []
    | Some rel -> List.rev (Relation.fold (fun tup acc -> tup :: acc) rel [])
  in
  let mem_edge db tup = Database.mem_fact "e" tup db in
  let net_additions =
    List.filter_map
      (fun tup ->
        if mem_edge initial_db tup then None else Some ("e", tup))
      (tuples_of (Serve.database t))
  and net_removals =
    List.filter_map
      (fun tup ->
        if mem_edge (Serve.database t) tup then None else Some ("e", tup))
      (tuples_of initial_db)
  in
  let one_batch = require (Serve.create serve_program initial_db) in
  ignore
    (require
       (Serve.update one_batch ~additions:net_additions ~removals:net_removals));
  let batch_parity =
    Idb.fingerprint (Serve.snapshot one_batch)
    = Idb.fingerprint (Serve.snapshot t)
    && Idb.equal (Serve.snapshot one_batch) (Serve.snapshot t)
  in
  (* Work accounting: the incremental path across all batches vs paying one
     full re-saturation per batch (what the old maintenance loop did). *)
  let incremental_ra = stats.Stats.rule_applications - ra_materialize in
  let incremental_td = stats.Stats.tuples_derived - td_materialize in
  let full_stats = Stats.create () in
  ignore
    (Stratified.eval ~stats:full_stats serve_program (Serve.database t));
  let full_ra = full_stats.Stats.rule_applications in
  let full_td = full_stats.Stats.tuples_derived in
  let extra name =
    match List.assoc_opt name stats.Stats.extra with Some v -> v | None -> 0
  in
  let delta_apps = extra "dred delta applications" in
  let putback_apps = extra "dred putback applications" in
  let full_apps = extra "dred full applications" in
  (* Work is measured in head tuples emitted, not application count: a
     delta application over a one-fact change emits a handful of tuples
     where a full re-saturation re-derives the entire model. *)
  let work_ratio =
    float_of_int incremental_td /. float_of_int (max 1 (full_td * batches))
  in
  let _, t_full = best_of 3 (fun () ->
      Stratified.eval_exn serve_program (Serve.database t))
  in
  let updates = List.length !update_times in
  let total_update_time = List.fold_left ( +. ) 0.0 !update_times in
  let updates_per_sec = float_of_int updates /. total_update_time in
  let qsorted = Array.of_list !query_times in
  Array.sort compare qsorted;
  let p50 = percentile qsorted 0.50 and p99 = percentile qsorted 0.99 in
  let c = Serve.counters t in
  Format.printf "  %d vertices, %d update batches, %d queries@." n updates
    c.Serve.queries;
  Format.printf "  sustained: %10.0f updates/sec (mean %.3f ms/batch)@."
    updates_per_sec
    (1e3 *. total_update_time /. float_of_int updates);
  Format.printf "  query latency: p50 %8.1f us   p99 %8.1f us@." (1e6 *. p50)
    (1e6 *. p99);
  Format.printf "  cache: %d hits / %d misses@." c.Serve.cache_hits
    c.Serve.cache_misses;
  Format.printf
    "  work: %d incremental tuples derived (%d applications: %d delta, %d \
     putback, %d full) vs %d tuples per re-saturation -> ratio %.4f@."
    incremental_td incremental_ra delta_apps putback_apps full_apps full_td
    work_ratio;
  Format.printf "  one full re-saturation: %.2f ms (%.1fx a mean batch)@."
    (1e3 *. t_full)
    (t_full /. (total_update_time /. float_of_int updates));
  let no_full = full_apps = 0 in
  let delta_scaling = work_ratio < 0.5 in
  let parity = final_parity && !parity_failures = 0 in
  Format.printf "  parity: maintained = from-scratch %s, one-batch net %s@."
    (ok parity) (ok batch_parity);
  Format.printf "  checks: no full applications %s, delta scaling %s@."
    (ok no_full) (ok delta_scaling);
  let oc = open_out "BENCH_serve.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"quick\": %b,\n" quick;
  out "  \"vertices\": %d,\n" n;
  out "  \"batches\": %d,\n" updates;
  out "  \"updates_per_sec\": %.0f,\n" updates_per_sec;
  out "  \"query_p50_us\": %.1f,\n" (1e6 *. p50);
  out "  \"query_p99_us\": %.1f,\n" (1e6 *. p99);
  out "  \"queries\": %d,\n" c.Serve.queries;
  out "  \"cache_hits\": %d,\n" c.Serve.cache_hits;
  out "  \"cache_misses\": %d,\n" c.Serve.cache_misses;
  out "  \"full_resaturation_ms\": %.3f,\n" (1e3 *. t_full);
  out "  \"work\": {\n";
  out "    \"incremental_tuples_derived\": %d,\n" incremental_td;
  out "    \"incremental_rule_applications\": %d,\n" incremental_ra;
  out "    \"delta_applications\": %d,\n" delta_apps;
  out "    \"putback_applications\": %d,\n" putback_apps;
  out "    \"full_applications\": %d,\n" full_apps;
  out "    \"tuples_derived_per_resaturation\": %d,\n" full_td;
  out "    \"rule_applications_per_resaturation\": %d,\n" full_ra;
  out "    \"vs_resaturating_every_batch\": %.4f\n" work_ratio;
  out "  },\n";
  out "  \"checks\": {\n";
  out "    \"parity_incremental_vs_scratch\": %b,\n" parity;
  out "    \"parity_one_net_batch\": %b,\n" batch_parity;
  out "    \"no_full_applications\": %b,\n" no_full;
  out "    \"delta_scaling\": %b\n" delta_scaling;
  out "  }\n";
  out "}\n";
  close_out oc;
  if not (parity && batch_parity && no_full && delta_scaling) then begin
    Format.printf "  incremental serving check failed — failing@.";
    exit 1
  end

(* --- Part 9: snapshot persistence benchmark (BENCH_snap.json) ---------------- *)

(* Restore vs re-saturation: loading a snapshot must replace the whole
   fixpoint computation with a linear read of the file.  Two workloads:
   plain transitive closure on one giant component (the join-heavy regime,
   where saturation is most expensive relative to the model it produces)
   and the serving reachability program (negation, a stratum boundary —
   the model [negdl serve --snapshot] warm-restarts from).  The gate is on
   the large TC configuration: restore must be at least 10x faster than
   cold saturation, and the restored model must be identical. *)

let snap_bench ~quick () =
  Format.printf
    "Snapshot persistence benchmark (restore vs re-saturation%s) -> \
     BENCH_snap.json@."
    (if quick then ", quick mode" else "");
  let require = function
    | Ok v -> v
    | Error e -> failwith (Snapshot.error_to_string e)
  in
  let repeats = if quick then 3 else 5 in
  let snap_file = Filename.temp_file "negdl_bench" ".snap" in
  let idb_of_bindings program bindings =
    List.fold_left
      (fun idb (name, rel) -> Idb.set idb name rel)
      (Idb.of_program program) bindings
  in
  let run name program db =
    let idb, t_cold =
      best_of repeats (fun () -> Stratified.eval_exn program db)
    in
    let image, t_capture =
      wall (fun () ->
          require
            (Snapshot.capture ~program ~semantics:"stratified" ~db
               (Idb.bindings idb)))
    in
    let bytes = require (Snapshot.write_file snap_file image) in
    let restored = ref None in
    let (), t_restore =
      best_of repeats (fun () ->
          let image = require (Snapshot.read_file snap_file) in
          require
            (Snapshot.check_program image ~program ~semantics:"stratified");
          let r = require (Snapshot.restore image) in
          restored := Some (idb_of_bindings program r.Snapshot.r_idb))
    in
    let parity =
      match !restored with Some r -> Idb.equal idb r | None -> false
    in
    let tuples =
      List.fold_left
        (fun acc r -> acc + r.Snapshot.row_count)
        0 image.Snapshot.relations
    in
    let speedup = t_cold /. t_restore in
    Format.printf
      "  %-8s cold %8.2f ms   restore %8.3f ms   %7.1fx   %8d B (%d \
       tuples, %.1f B/tuple)   parity %s@."
      name (1e3 *. t_cold) (1e3 *. t_restore) speedup bytes tuples
      (float_of_int bytes /. float_of_int (max 1 tuples))
      (ok parity);
    (name, t_cold, t_capture, t_restore, bytes, tuples, speedup, parity)
  in
  (* Full mode: one dense component (avg out-degree 16), so saturation does
     ~degree x |TC| join work while the snapshot holds just the |TC| rows —
     the regime the 10x gate is about. *)
  let tc_n = if quick then 100 else 500 in
  let tc_deg = if quick then 2.0 else 24.0 in
  let tc_db =
    db_of (Generate.random ~seed:7 ~n:tc_n ~p:(tc_deg /. float_of_int tc_n))
  in
  let reach_db, _ =
    serve_db ~seed:83 ~components:(if quick then 8 else 24) ~size:8
  in
  let tc_result = run "tc" tc_program tc_db in
  let reach_result = run "reach" serve_program reach_db in
  let results = [ tc_result; reach_result ] in
  Sys.remove snap_file;
  let _, tc_cold, _, tc_restore, tc_bytes, _, tc_speedup, _ =
    List.hd results
  in
  let all_parity = List.for_all (fun (_, _, _, _, _, _, _, p) -> p) results in
  let gate = if quick then 1.0 else 10.0 in
  let fast_enough = tc_speedup >= gate in
  Format.printf "  checks: parity %s, restore >= %.0fx on tc %s@."
    (ok all_parity) gate (ok fast_enough);
  let oc = open_out "BENCH_snap.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"quick\": %b,\n" quick;
  out "  \"file_bytes\": %d,\n" tc_bytes;
  out "  \"cold_saturation_ms\": %.3f,\n" (1e3 *. tc_cold);
  out "  \"restore_ms\": %.3f,\n" (1e3 *. tc_restore);
  out "  \"restore_speedup\": %.1f,\n" tc_speedup;
  out "  \"workloads\": [\n";
  List.iteri
    (fun i (name, cold, capture, restore, bytes, tuples, speedup, parity) ->
      out "    {\n";
      out "      \"name\": %S,\n" name;
      out "      \"cold_saturation_ms\": %.3f,\n" (1e3 *. cold);
      out "      \"capture_ms\": %.3f,\n" (1e3 *. capture);
      out "      \"restore_ms\": %.3f,\n" (1e3 *. restore);
      out "      \"restore_speedup\": %.1f,\n" speedup;
      out "      \"file_bytes\": %d,\n" bytes;
      out "      \"tuples\": %d,\n" tuples;
      out "      \"bytes_per_tuple\": %.1f,\n"
        (float_of_int bytes /. float_of_int (max 1 tuples));
      out "      \"parity\": %b\n" parity;
      out "    }%s\n" (if i < List.length results - 1 then "," else ""))
    results;
  out "  ],\n";
  out "  \"checks\": {\n";
  out "    \"parity\": %b,\n" all_parity;
  out "    \"restore_speedup_gate\": %.0f,\n" gate;
  out "    \"fast_enough\": %b\n" fast_enough;
  out "  }\n";
  out "}\n";
  close_out oc;
  if not (all_parity && fast_enough) then begin
    Format.printf "  snapshot persistence check failed — failing@.";
    exit 1
  end

(* --- Part 10: limit-predicate benchmark (BENCH_agg.json) --------------------- *)

(* Shortest path with a min limit predicate vs the pair-materializing
   Datalog-not encoding of the same query: the two programs share every
   rule — the limit version adds only the [dist min 2.] declaration, so
   the measured gap is exactly what dominant-tuple tightening saves.  The
   baseline needs the [S <= cap] guard to terminate on a cyclic graph (it
   materialises every (node, cost) pair up to the cap); the limit version
   keeps one bound per node and must agree with the baseline's
   dominant-filtered projection and on the near/far stratum above.  A max
   (critical-path) workload over a layered DAG exercises the other
   polarity. *)

let agg_min_text ~cap ~thr =
  Printf.sprintf
    "dist(X, 0) :- source(X).\n\
     dist(Y, S) :- dist(X, D), edge(X, Y, W), S = D + W, S <= %d.\n\
     near(X) :- dist(X, D), D <= %d.\n\
     far(X) :- node(X), !near(X)."
    cap thr

let agg_max_text ~thr =
  Printf.sprintf
    "best(X, 0) :- source(X).\n\
     best(Y, S) :- best(X, D), edge(X, Y, W), S = D + W.\n\
     good(X) :- best(X, D), D >= %d.\n\
     modest(X) :- node(X), !good(X)."
    thr

let with_limits decl text = Parser.parse_program_exn (decl ^ "\n" ^ text)

(* A ring of [n] nodes (so every node is reachable and the baseline's
   cost frontier wraps all the way around) plus [chords] random weighted
   shortcuts that give the min workload genuinely competing paths. *)
let agg_ring_db ~seed ~n ~chords =
  let rng = Prng.create seed in
  let v i = Symbol.intern (Printf.sprintf "n%d" i) in
  let w k = Symbol.of_int k in
  let edge db a b wt =
    Database.add_fact "edge"
      (Tuple.of_list [ v a; v b; w wt ])
      (Database.add_universe [ v a; v b; w wt ] db)
  in
  let db = Database.create ~universe:[] in
  let db = Database.add_fact "source" (Tuple.singleton (v 0))
      (Database.add_universe [ v 0 ] db) in
  let db =
    List.fold_left
      (fun db i -> edge db i ((i + 1) mod n) (1 + Prng.int rng 9))
      db
      (List.init n (fun i -> i))
  in
  let db =
    List.fold_left
      (fun db _ ->
        edge db (Prng.int rng n) (Prng.int rng n) (1 + Prng.int rng 9))
      db
      (List.init chords (fun i -> i))
  in
  List.fold_left
    (fun db i ->
      Database.add_fact "node" (Tuple.singleton (v i))
        (Database.add_universe [ v i ] db))
    db
    (List.init n (fun i -> i))

(* A layered DAG for the max workload: [layers] x [width] vertices, every
   vertex wired to a few successors in the next layer. *)
let agg_dag_db ~seed ~layers ~width =
  let rng = Prng.create seed in
  let v l i = Symbol.intern (Printf.sprintf "l%d_%d" l i) in
  let db = Database.create ~universe:[] in
  let db =
    List.fold_left
      (fun db i ->
        Database.add_fact "source" (Tuple.singleton (v 0 i))
          (Database.add_universe [ v 0 i ] db))
      db
      (List.init width (fun i -> i))
  in
  let db = ref db in
  for l = 0 to layers - 2 do
    for i = 0 to width - 1 do
      for _ = 1 to 3 do
        let j = Prng.int rng width and wt = Symbol.of_int (1 + Prng.int rng 9) in
        db :=
          Database.add_fact "edge"
            (Tuple.of_list [ v l i; v (l + 1) j; wt ])
            (Database.add_universe [ v l i; v (l + 1) j; wt ] !db)
      done
    done
  done;
  for l = 0 to layers - 1 do
    for i = 0 to width - 1 do
      db :=
        Database.add_fact "node" (Tuple.singleton (v l i))
          (Database.add_universe [ v l i ] !db)
    done
  done;
  !db

let agg_bench ~quick () =
  Format.printf
    "Limit-predicate benchmark (tightening vs pair materialization%s) -> \
     BENCH_agg.json@."
    (if quick then ", quick mode" else "");
  let reps = if quick then 3 else 5 in
  let n = if quick then 48 else 160 in
  let cap = if quick then 48 else 120 in
  let thr = cap / 2 in
  let min_limit = with_limits "dist min 2." (agg_min_text ~cap ~thr) in
  let min_pairs = Parser.parse_program_exn (agg_min_text ~cap ~thr) in
  let min_db = agg_ring_db ~seed:20260808 ~n ~chords:(3 * n) in
  let layers = if quick then 12 else 30 in
  let width = if quick then 6 else 10 in
  let max_limit = with_limits "best max 2." (agg_max_text ~thr:(2 * layers)) in
  let max_pairs = Parser.parse_program_exn (agg_max_text ~thr:(2 * layers)) in
  let max_db = agg_dag_db ~seed:424242 ~layers ~width in
  let fp_before = parity_fingerprint () in
  (* The gate only makes sense when the workload actually crosses a
     stratum boundary (the negation above the limit predicate); report
     honestly if a generator change ever flattens it. *)
  let strata_of p =
    match Stratify.stratify p with
    | Stratify.Stratified s -> List.length s.Stratify.strata
    | _ -> 0
  in
  let min_strata = strata_of min_limit in
  let gate_applies = min_strata >= 2 in
  let run_workload name limit_p pairs_p db ~kind ~limit_pred ~derived =
    let limit_idb, t_limit =
      best_of reps (fun () -> Stratified.eval_exn limit_p db)
    in
    let pairs_idb, t_pairs =
      best_of reps (fun () -> Stratified.eval_exn pairs_p db)
    in
    let bounds = Idb.get limit_idb limit_pred in
    let pairs_all = Idb.get pairs_idb limit_pred in
    let dominant_ok =
      Relation.equal bounds (Relation.dominant ~kind ~col:1 pairs_all)
    in
    let derived_ok =
      List.for_all
        (fun p -> Relation.equal (Idb.get limit_idb p) (Idb.get pairs_idb p))
        derived
    in
    let speedup = t_pairs /. t_limit in
    Format.printf
      "  %-10s limit %8.2f ms (%5d bounds)   pairs %8.2f ms (%6d tuples)   \
       %6.1fx   dominant %s   strata-above %s@."
      name (1e3 *. t_limit) (Relation.cardinal bounds) (1e3 *. t_pairs)
      (Relation.cardinal pairs_all) speedup (ok dominant_ok) (ok derived_ok);
    (name, t_limit, t_pairs, speedup, Relation.cardinal bounds,
     Relation.cardinal pairs_all, dominant_ok && derived_ok)
  in
  let min_result =
    run_workload "min_sp" min_limit min_pairs min_db ~kind:`Min
      ~limit_pred:"dist" ~derived:[ "near"; "far" ]
  in
  let max_result =
    run_workload "max_crit" max_limit max_pairs max_db ~kind:`Max
      ~limit_pred:"best" ~derived:[ "good"; "modest" ]
  in
  (* Config parity: the limit model's fingerprint must be invariant across
     evaluations. *)
  let model_fp () =
    Idb.fingerprint (Stratified.eval_exn min_limit min_db)
  in
  let reference = model_fp () in
  let config_fps = [ ("seminaive", model_fp ()) ] in
  let config_divergences =
    List.filter (fun (_, fp) -> fp <> reference) config_fps
  in
  List.iter
    (fun (name, _) -> Format.printf "  DIVERGENCE under %s@." name)
    config_divergences;
  let config_parity = config_divergences = [] in
  Format.printf "  parity: limit model fingerprints (%d configs) %s@."
    (List.length config_fps) (ok config_parity);
  (* E1-E8 invariance: running the limit workloads must leave every
     pre-existing experiment count untouched. *)
  let fp_after = parity_fingerprint () in
  let e_divergences =
    List.filter_map
      (fun ((name, before), (name', after)) ->
        assert (name = name');
        if before = after then None else Some name)
      (List.combine fp_before fp_after)
  in
  List.iter
    (fun name -> Format.printf "  DIVERGENCE E1-E8 %s@." name)
    e_divergences;
  let e18_parity = e_divergences = [] in
  Format.printf "  parity: E1-E8 fingerprints (%d entries) %s@."
    (List.length fp_after) (ok e18_parity);
  (* Incremental maintenance: a serve session over the weighted ring under
     mixed insert/delete must track from-scratch saturation with zero full
     (non-delta) applications. *)
  let serve_stats = Stats.create () in
  let t =
    match Serve.create ~stats:serve_stats min_limit min_db with
    | Ok t -> t
    | Error e -> failwith e
  in
  let rng = Prng.create 987654321 in
  let serve_batches = if quick then 24 else 96 in
  let vtx i = Symbol.intern (Printf.sprintf "n%d" i) in
  let serve_parity = ref true in
  for i = 1 to serve_batches do
    let a = Prng.int rng n and b = Prng.int rng n in
    let wt = Symbol.of_int (1 + Prng.int rng 9) in
    let tup = Tuple.of_list [ vtx a; vtx b; wt ] in
    (if Database.mem_fact "edge" tup (Serve.database t) then
       match Serve.delete t [ ("edge", tup) ] with
       | Ok _ -> ()
       | Error e -> failwith e
     else
       match Serve.insert t [ ("edge", tup) ] with
       | Ok _ -> ()
       | Error e -> failwith e);
    if i mod (serve_batches / 4) = 0 then begin
      let scratch = Stratified.eval_exn min_limit (Serve.database t) in
      if not (Idb.equal (Serve.snapshot t) scratch) then begin
        serve_parity := false;
        Format.printf "  SERVE DIVERGENCE after batch %d@." i
      end
    end
  done;
  let serve_full_apps =
    match List.assoc_opt "dred full applications" serve_stats.Stats.extra with
    | Some v -> v
    | None -> 0
  in
  let serve_ok = !serve_parity && serve_full_apps = 0 in
  Format.printf
    "  serve: %d mixed batches, dred full applications = %d, parity %s@."
    serve_batches serve_full_apps (ok !serve_parity);
  let _, _, _, min_speedup, _, _, min_correct = min_result in
  let _, _, _, _, _, _, max_correct = max_result in
  let gate = 5.0 in
  let fast_enough = (not gate_applies) || min_speedup >= gate in
  if not gate_applies then
    Format.printf
      "  gate: SKIPPED (min workload has %d strata, need >= 2)@." min_strata
  else
    Format.printf "  gate: limit >= %.0fx pairs on min_sp %s@." gate
      (ok fast_enough);
  let oc = open_out "BENCH_agg.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"quick\": %b,\n" quick;
  out "  \"workloads\": [\n";
  List.iteri
    (fun i (name, t_limit, t_pairs, speedup, bounds, pairs, correct) ->
      out "    {\n";
      out "      \"name\": %S,\n" name;
      out "      \"limit_ms\": %.3f,\n" (1e3 *. t_limit);
      out "      \"pairs_ms\": %.3f,\n" (1e3 *. t_pairs);
      out "      \"speedup\": %.2f,\n" speedup;
      out "      \"limit_bounds\": %d,\n" bounds;
      out "      \"pair_tuples\": %d,\n" pairs;
      out "      \"dominant_parity\": %b\n" correct;
      out "    }%s\n" (if i = 0 then "," else ""))
    [ min_result; max_result ];
  out "  ],\n";
  out "  \"serve\": {\n";
  out "    \"batches\": %d,\n" serve_batches;
  out "    \"full_applications\": %d,\n" serve_full_apps;
  out "    \"parity\": %b\n" !serve_parity;
  out "  },\n";
  out "  \"checks\": {\n";
  out "    \"config_fingerprints_match\": %b,\n" config_parity;
  out "    \"e1_e8_fingerprints_match\": %b,\n" e18_parity;
  out "    \"min_strata\": %d,\n" min_strata;
  out "    \"gate\": %s,\n"
    (if gate_applies then Printf.sprintf "%.1f" gate else "\"skipped\"");
  out "    \"fast_enough\": %b\n" fast_enough;
  out "  }\n";
  out "}\n";
  close_out oc;
  if
    not
      (min_correct && max_correct && config_parity && e18_parity && serve_ok
     && fast_enough)
  then begin
    Format.printf "  limit-predicate check failed — failing@.";
    exit 1
  end

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let quick = Array.length Sys.argv > 2 && Sys.argv.(2) = "quick" in
  if what = "tables" || what = "all" then tables ();
  if what = "micro" || what = "all" then run_micro ();
  if what = "plan" then plan_bench ~quick ();
  if what = "serve" then serve_bench ~quick ();
  if what = "snap" then snap_bench ~quick ();
  if what = "agg" then agg_bench ~quick ()
