(* The paper's tables.

   "Why Not Negation by Fixpoint?" is a theory paper with no numeric tables,
   so the objects to regenerate are its concrete checkable claims.  This
   program reruns every experiment E1-E11 from EXPERIMENTS.md, and the
   extensions beyond the paper, and prints a paper-expectation vs measured
   table.  Every verdict is an equality or a count; the seconds columns of
   E7 and EXT are printed, never checked.  It exits nonzero if any verdict
   reads MISMATCH.  Speed is measured by bench/e2e, the benchmark that
   BENCHMARK.json declares.

   Run with:  dune exec bench/main.exe [-- tables] *)

open Negdl

let section title =
  Format.printf "@.=== %s ===@." title

let row fmt = Format.printf fmt

let mismatches = ref 0

let ok b =
  if b then "ok"
  else begin
    incr mismatches;
    "MISMATCH"
  end

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

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "tables" ] ->
    tables ();
    if !mismatches > 0 then begin
      Format.printf "%d MISMATCH verdict(s)@." !mismatches;
      exit 1
    end
  | _ ->
    prerr_endline "usage: main.exe [tables]";
    exit 2
