(* Tests for the SAT substrate: CNF representation, DIMACS round-trips, the
   CDCL solver against the exhaustive baseline, enumeration and counting. *)

open Satlib

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Cnf ---------------------------------------------------------------- *)

let test_cnf_basic () =
  let cnf = Cnf.of_list 3 [ [ 1; -2 ]; [ 2; 3 ]; [ -1 ] ] in
  check int "vars" 3 (Cnf.num_vars cnf);
  check int "clauses" 3 (Cnf.num_clauses cnf);
  check bool "eval true" true
    (Cnf.eval cnf (fun v -> v = 3));
  check bool "eval false" false (Cnf.eval cnf (fun v -> v = 1))

let test_cnf_tautology_dropped () =
  let cnf = Cnf.of_list 2 [ [ 1; -1 ]; [ 2 ] ] in
  check int "tautology dropped" 1 (Cnf.num_clauses cnf);
  (* In Int.compare order, -2 and 2 are not neighbours. *)
  check int "non-adjacent pair dropped" 0
    (Cnf.num_clauses (Cnf.of_list 2 [ [ 2; -1; -2 ] ]))

let test_cnf_duplicate_literals () =
  let cnf = Cnf.of_list 2 [ [ 1; 1; 2 ] ] in
  (match Cnf.clauses cnf with
  | [ c ] -> check int "collapsed" 2 (List.length c)
  | _ -> Alcotest.fail "expected one clause");
  ()

let test_cnf_bad_literal () =
  Alcotest.check_raises "out of range" (Invalid_argument "Cnf: literal 4 out of range 1..3")
    (fun () -> ignore (Cnf.of_list 3 [ [ 4 ] ]))

let test_cnf_empty_clause () =
  let cnf = Cnf.of_list 1 [ [] ] in
  check int "empty clause kept" 1 (Cnf.num_clauses cnf);
  check bool "unsat" false (Cnf.eval cnf (fun _ -> true))

(* --- Dimacs ------------------------------------------------------------- *)

let test_dimacs_roundtrip () =
  let cnf = Cnf.of_list 4 [ [ 1; -2; 3 ]; [ -4 ]; [ 2; 4 ] ] in
  let cnf' = Dimacs.parse_exn (Dimacs.to_string cnf) in
  check int "vars" (Cnf.num_vars cnf) (Cnf.num_vars cnf');
  Alcotest.(check (list (list int)))
    "clauses" (Cnf.clauses cnf) (Cnf.clauses cnf')

let test_dimacs_comments () =
  let text = "c a comment\np cnf 2 2\n1 -2 0\nc another\n2 0\n" in
  let cnf = Dimacs.parse_exn text in
  check int "clauses" 2 (Cnf.num_clauses cnf)

let test_dimacs_multiline_clause () =
  let text = "p cnf 3 1\n1 2\n3 0\n" in
  let cnf = Dimacs.parse_exn text in
  Alcotest.(check (list (list int))) "clause" [ [ 1; 2; 3 ] ] (Cnf.clauses cnf)

let test_dimacs_errors () =
  (match Dimacs.parse "1 2 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing header accepted");
  match Dimacs.parse "p cnf 2 1\n1 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated clause accepted"

let test_dimacs_validation () =
  let expect_error name text fragment =
    match Dimacs.parse text with
    | Ok _ -> Alcotest.fail (name ^ ": accepted")
    | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      check bool
        (Printf.sprintf "%s: %S mentions %S" name msg fragment)
        true (contains msg fragment)
  in
  expect_error "clause undercount" "p cnf 2 3\n1 0\n2 0\n"
    "declares 3 clauses but 2 found";
  expect_error "clause overcount" "p cnf 2 1\n1 0\n2 0\n"
    "declares 1 clauses but 2 found";
  expect_error "literal out of range" "p cnf 2 1\n3 0\n" "literal 3 out of range";
  expect_error "negative literal out of range" "p cnf 2 1\n-5 0\n"
    "literal -5 out of range";
  expect_error "bad clause count" "p cnf 2 x\n1 0\n" "bad clause count";
  expect_error "negative clause count" "p cnf 2 -1\n1 0\n"
    "negative clause count";
  expect_error "truncated header" "p cnf 2" "truncated";
  (* The header is line-scoped: a bare "p cnf" must not consume the first
     clause's literals as its variable/clause counts. *)
  expect_error "truncated header before clauses" "p cnf\n1 0\n" "truncated";
  (* A tautological clause still counts towards the declared total even
     though the Cnf constructor drops it. *)
  match Dimacs.parse "p cnf 2 2\n1 -1 0\n2 0\n" with
  | Error msg -> Alcotest.fail ("tautology miscounted: " ^ msg)
  | Ok cnf -> check bool "tautology dropped" true (Cnf.num_clauses cnf <= 2)

(* --- Solver vs brute force ---------------------------------------------- *)

let test_solver_trivial () =
  check bool "empty cnf sat" true (Solver.is_satisfiable (Cnf.create 0));
  check bool "unit sat" true (Solver.is_satisfiable (Cnf.of_list 1 [ [ 1 ] ]));
  check bool "contradiction" false
    (Solver.is_satisfiable (Cnf.of_list 1 [ [ 1 ]; [ -1 ] ]));
  check bool "empty clause" false
    (Solver.is_satisfiable (Cnf.of_list 1 [ [] ]))

let test_solver_model_valid () =
  let cnf =
    Workload.random_3cnf ~seed:7 ~vars:20 ~clauses:60
  in
  match Solver.solve cnf with
  | Solver.Unsat -> ()
  | Solver.Sat _ as r -> check bool "model satisfies" true (Solver.model_checks r cnf)

let test_solver_forced_sat () =
  (* Instances built around a hidden assignment must come back SAT. *)
  for seed = 1 to 20 do
    let cnf = Workload.forced_sat ~seed ~vars:30 ~clauses:120 ~k:3 in
    check bool (Printf.sprintf "forced sat seed %d" seed) true
      (Solver.is_satisfiable cnf)
  done

let test_solver_pigeonhole () =
  for n = 1 to 5 do
    check bool
      (Printf.sprintf "pigeonhole %d unsat" n)
      false
      (Solver.is_satisfiable (Workload.pigeonhole n))
  done

let test_solver_vs_brute () =
  for seed = 1 to 60 do
    let vars = 4 + (seed mod 6) in
    let clauses = 2 + (3 * (seed mod 8)) in
    let cnf = Workload.random_3cnf ~seed ~vars ~clauses in
    let expected = Brute.is_satisfiable cnf in
    check bool
      (Printf.sprintf "seed %d agrees" seed)
      expected
      (Solver.is_satisfiable cnf)
  done

let test_solve_with_units () =
  let cnf = Cnf.of_list 2 [ [ 1; 2 ] ] in
  (match Solver.solve_with_units cnf [ -1; -2 ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "units should make it unsat");
  match Solver.solve_with_units cnf [ -1 ] with
  | Solver.Sat m -> check bool "x2 forced" true m.(2)
  | Solver.Unsat -> Alcotest.fail "should be sat"

(* The search is sequential: the one parallelism degree the setter takes
   is 1. *)
let test_default_parallelism_only_one () =
  Solver.set_default_parallelism 1;
  match Solver.set_default_parallelism 2 with
  | () -> Alcotest.fail "parallelism 2 must be refused"
  | exception Invalid_argument _ -> ()

(* --- Enumeration -------------------------------------------------------- *)

let test_enumerate_counts () =
  for seed = 1 to 30 do
    let vars = 3 + (seed mod 4) in
    let clauses = 2 + (2 * (seed mod 5)) in
    let cnf = Workload.random_kcnf ~seed ~vars ~clauses ~k:2 in
    check int
      (Printf.sprintf "count seed %d" seed)
      (Brute.count_models cnf) (Enumerate.count cnf)
  done

let test_enumerate_limit () =
  let cnf = Cnf.create 4 in
  check int "limit caps" 5 (Enumerate.count ~limit:5 cnf);
  check int "all models" 16 (Enumerate.count cnf)

let test_enumerate_projection () =
  (* x1 free, x2 forced true: projecting on x2 gives one model, on x1 two. *)
  let cnf = Cnf.of_list 2 [ [ 2 ] ] in
  check int "projection x2" 1 (Enumerate.count ~projection:[ 2 ] cnf);
  check int "projection x1" 2 (Enumerate.count ~projection:[ 1 ] cnf)

let test_exactly_k_models () =
  for k = 0 to 8 do
    let cnf = Workload.exactly_k_models 3 k in
    check int (Printf.sprintf "k=%d" k) k (Brute.count_models cnf);
    check int (Printf.sprintf "k=%d via solver" k) k (Enumerate.count cnf)
  done

let test_unique () =
  check bool "unique" true (Enumerate.is_unique (Workload.exactly_k_models 3 1));
  check bool "two models" false
    (Enumerate.is_unique (Workload.exactly_k_models 3 2));
  check bool "unsat not unique" false
    (Enumerate.is_unique (Workload.exactly_k_models 3 0))

let test_forced_true () =
  let cnf = Cnf.of_list 3 [ [ 1 ]; [ -1; 2 ] ] in
  Alcotest.(check (option (list int)))
    "forced" (Some [ 1; 2 ])
    (Enumerate.forced_true cnf [ 1; 2; 3 ]);
  Alcotest.(check (option (list int)))
    "unsat has no models" None
    (Enumerate.forced_true (Cnf.of_list 1 [ [ 1 ]; [ -1 ] ]) [ 1 ])

(* --- Exact counting (#SAT) ----------------------------------------------- *)

let test_count_basics () =
  check int "free formula" 16 (Count.count (Cnf.create 4));
  check int "unit" 1 (Count.count (Cnf.of_list 1 [ [ 1 ] ]));
  check int "contradiction" 0 (Count.count (Cnf.of_list 1 [ [ 1 ]; [ -1 ] ]));
  check int "xor" 2 (Count.count (Cnf.of_list 2 [ [ 1; 2 ]; [ -1; -2 ] ]));
  check int "or over 3" 7 (Count.count (Cnf.of_list 3 [ [ 1; 2; 3 ] ]))

let test_count_vs_brute () =
  for seed = 1 to 40 do
    let vars = 3 + (seed mod 6) in
    let clauses = 2 + (2 * (seed mod 6)) in
    let cnf = Workload.random_kcnf ~seed ~vars ~clauses ~k:2 in
    check int
      (Printf.sprintf "seed %d" seed)
      (Brute.count_models cnf) (Count.count cnf)
  done

let test_count_engineered () =
  for k = 0 to 8 do
    check int
      (Printf.sprintf "exactly %d" k)
      k
      (Count.count (Workload.exactly_k_models 3 k))
  done;
  check int "pigeonhole 3" 0 (Count.count (Workload.pigeonhole 3))

let test_count_components_scale () =
  (* k disjoint xor-pairs: 2^k models, cheap thanks to the component
     split even for k = 20 (enumeration would need a million calls). *)
  let k = 20 in
  let cnf =
    Cnf.of_list (2 * k)
      (List.concat
         (List.init k (fun i ->
              let a = (2 * i) + 1 and b = (2 * i) + 2 in
              [ [ a; b ]; [ -a; -b ] ])))
  in
  check int "2^20" (1 lsl 20) (Count.count cnf)

let test_count_budget () =
  let cnf = Workload.random_3cnf ~seed:5 ~vars:20 ~clauses:40 in
  (match Count.count_limited ~budget:3 cnf with
  | Outcome.Lower_bound (n, Outcome.Node_budget) ->
    check bool "partial bound is non-negative" true (n >= 0)
  | Outcome.Lower_bound _ -> Alcotest.fail "expected a node-budget reason"
  | Outcome.Exact _ -> Alcotest.fail "tiny budget should give up");
  match Count.count_limited ~budget:10_000_000 cnf with
  | Outcome.Exact n -> check bool "real budget counts" true (n >= 0)
  | Outcome.Lower_bound _ -> Alcotest.fail "expected a count"

(* OCaml ints are 63-bit: 2^61 fits, 2^62 does not.  A count that does not
   fit is a saturated lower bound, never a wrapped "exact" one. *)
let test_count_overflow () =
  let saturated = Outcome.Lower_bound (max_int, Outcome.Count_overflow) in
  let expect name expected got = check bool name true (got = expected) in
  expect "2^61 exact" (Outcome.Exact (1 lsl 61))
    (Count.count_limited ~budget:10 (Cnf.create 61));
  expect "2^62 saturates" saturated
    (Count.count_limited ~budget:10 (Cnf.create 62));
  expect "2^64 saturates" saturated
    (Count.count_limited ~budget:10 (Cnf.create 64));
  (* 62 independent xor pairs: the product of the component counts
     overflows, not a single shift. *)
  let pairs k =
    Cnf.of_list (2 * k)
      (List.concat
         (List.init k (fun i ->
              let a = (2 * i) + 1 and b = (2 * i) + 2 in
              [ [ a; b ]; [ -a; -b ] ])))
  in
  expect "61 xor pairs" (Outcome.Exact (1 lsl 61))
    (Count.count_limited ~budget:1000 (pairs 61));
  expect "62 xor pairs" saturated (Count.count_limited ~budget:1000 (pairs 62));
  check int "count below the range" (1 lsl 61) (Count.count (Cnf.create 61));
  List.iter
    (fun n ->
      match Count.count (Cnf.create n) with
      | _ -> Alcotest.failf "Count.count on %d free variables must raise" n
      | exception Invalid_argument _ -> ())
    [ 62; 63 ]

(* The union-find split against the quadratic one it replaced: the same
   components, in the same order, each with the same clauses in the same
   order and the same variables. *)
let prop_components_match_reference =
  let clauses_gen =
    let open QCheck.Gen in
    let* vars = int_range 1 12 in
    let clause =
      let* len = int_range 0 3 in
      list_size (return len)
        (let* v = int_range 1 vars in
         let* sign = bool in
         return (if sign then v else -v))
    in
    (* Clauses drawn with replacement from a small pool, so duplicates are
       common, and empty clauses too. *)
    let* pool = map Array.of_list (list_size (int_range 1 10) clause) in
    list_size (int_range 0 20)
      (map (fun i -> pool.(i)) (int_range 0 (Array.length pool - 1)))
  in
  QCheck.Test.make ~name:"component split = quadratic reference" ~count:1000
    (QCheck.make clauses_gen ~print:(fun cs ->
         String.concat ";"
           (List.map
              (fun c -> "[" ^ String.concat "," (List.map string_of_int c) ^ "]")
              cs)))
    (fun cs ->
      List.map (fun (cs, vs) -> (cs, Count.ISet.elements vs)) (Count.components cs)
      = Testsupport.Reference.components cs)

(* --- Incremental sessions ------------------------------------------------ *)

let test_session_basic () =
  let cnf = Cnf.of_list 3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let s = Solver.session cnf in
  (match Solver.solve_assuming s [] with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "satisfiable");
  (match Solver.solve_assuming s [ -2 ] with
  | Solver.Sat m -> check bool "x1 and x3 forced" true (m.(1) && m.(3))
  | Solver.Unsat -> Alcotest.fail "sat under -2");
  (match Solver.solve_assuming s [ -2; -3 ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "x1 forced then x3 forced: unsat");
  (* The session recovers after an unsat query. *)
  match Solver.solve_assuming s [] with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "still satisfiable"

let test_session_add_clause () =
  let cnf = Cnf.create 2 in
  let s = Solver.session cnf in
  Solver.add_clause s [ 1 ];
  (match Solver.solve_assuming s [ -1 ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "x1 is now forced");
  Solver.add_clause s [ -1 ];
  match Solver.solve_assuming s [] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "contradictory clauses"

let test_session_blocking_enumeration () =
  (* Manual enumeration over a 3-variable free formula: 8 models. *)
  let cnf = Cnf.create 3 in
  let s = Solver.session cnf in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Solver.solve_assuming s [] with
    | Solver.Unsat -> continue := false
    | Solver.Sat m ->
      incr count;
      Solver.add_clause s
        (List.init 3 (fun i -> if m.(i + 1) then -(i + 1) else i + 1))
  done;
  check int "8 models" 8 !count

let prop_session_matches_units =
  QCheck.Test.make ~name:"session+assumptions = fresh solve with units"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* vars = int_range 1 6 in
         let* n_clauses = int_range 0 10 in
         let clause =
           let* len = int_range 1 3 in
           list_size (return len)
             (let* v = int_range 1 vars in
              let* sign = bool in
              return (if sign then v else -v))
         in
         let* cs = list_size (return n_clauses) clause in
         let* n_queries = int_range 1 4 in
         let assumption_set =
           let* len = int_range 0 3 in
           list_size (return len)
             (let* v = int_range 1 vars in
              let* sign = bool in
              return (if sign then v else -v))
         in
         let* queries = list_size (return n_queries) assumption_set in
         return (vars, cs, queries))
       ~print:(fun (v, cs, qs) ->
         Printf.sprintf "vars=%d clauses=%d queries=%d" v (List.length cs)
           (List.length qs)))
    (fun (vars, cs, queries) ->
      let cnf = Cnf.of_list vars cs in
      let s = Solver.session cnf in
      List.for_all
        (fun assumptions ->
          let via_session =
            match Solver.solve_assuming s assumptions with
            | Solver.Sat _ -> true
            | Solver.Unsat -> false
          in
          let via_fresh =
            match Solver.solve_with_units cnf assumptions with
            | Solver.Sat _ -> true
            | Solver.Unsat -> false
          in
          via_session = via_fresh)
        queries)

(* --- Outcomes, budgets and cancellation ---------------------------------- *)

let test_count_budget_boundary () =
  (* Two independent xor components with 2 models each.  The node budget
     dies inside the second component: the old counter threw the whole
     computation away, the partial semantics keeps the fully counted first
     component (2 models) as a sound lower bound.  Pinned exactly. *)
  let cnf = Cnf.of_list 4 [ [ 1; 2 ]; [ -1; -2 ]; [ 3; 4 ]; [ -3; -4 ] ] in
  let expect budget expected =
    let got = Count.count_limited ~budget cnf in
    check bool
      (Printf.sprintf "budget %d" budget)
      true (got = expected)
  in
  expect 1 (Outcome.Lower_bound (0, Outcome.Node_budget));
  expect 3 (Outcome.Lower_bound (0, Outcome.Node_budget));
  (* First component fully counted, second cut mid-branch: bound 2 = 2 x 1. *)
  expect 4 (Outcome.Lower_bound (2, Outcome.Node_budget));
  expect 5 (Outcome.Exact 4);
  expect 100 (Outcome.Exact 4);
  (* An input-level empty clause is exactly zero models, never a crash and
     never a budget question. *)
  check bool "empty clause" true
    (Count.count_limited ~budget:1 (Cnf.of_list 2 [ []; [ 1 ] ])
    = Outcome.Exact 0)

let test_outcome_conflict_budget () =
  let cnf = Workload.pigeonhole 5 in
  (match Solver.solve_outcome ~conflict_budget:3 cnf with
  | Outcome.Unknown Outcome.Conflict_budget -> ()
  | _ -> Alcotest.fail "a tiny conflict budget must report exhaustion");
  match Solver.solve_outcome ~conflict_budget:1_000_000 cnf with
  | Outcome.Unsat -> ()
  | _ -> Alcotest.fail "a generous budget decides pigeonhole 5"

let test_outcome_time_budget () =
  match Solver.solve_outcome ~time_budget:0.0 (Workload.pigeonhole 6) with
  | Outcome.Unknown Outcome.Time_budget -> ()
  | _ -> Alcotest.fail "a zero time budget must give up immediately"

let test_session_budget_resume () =
  let s = Solver.session (Workload.pigeonhole 5) in
  (match Solver.solve_assuming_outcome ~conflict_budget:3 s [] with
  | Outcome.Unknown Outcome.Conflict_budget -> ()
  | _ -> Alcotest.fail "session call respects its conflict budget");
  (* The state (learned clauses, phases, restart schedule) survives the
     Unknown: an unbudgeted call resumes and finishes the proof. *)
  match Solver.solve_assuming s [] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "pigeonhole 5 is unsat"

(* --- Properties --------------------------------------------------------- *)

let cnf_gen =
  let open QCheck.Gen in
  let* vars = int_range 1 6 in
  let* n_clauses = int_range 0 12 in
  let clause_gen =
    let* len = int_range 0 3 in
    list_size (return len)
      (let* v = int_range 1 vars in
       let* sign = bool in
       return (if sign then v else -v))
  in
  let* cs = list_size (return n_clauses) clause_gen in
  return (vars, cs)

let arbitrary_cnf =
  QCheck.make cnf_gen ~print:(fun (v, cs) ->
      Printf.sprintf "vars=%d clauses=%s" v
        (String.concat ";"
           (List.map
              (fun c -> "[" ^ String.concat "," (List.map string_of_int c) ^ "]")
              cs)))

let prop_solver_agrees_with_brute =
  QCheck.Test.make ~name:"solver agrees with brute force" ~count:300
    arbitrary_cnf (fun (vars, cs) ->
      let cnf = Cnf.of_list vars cs in
      Solver.is_satisfiable cnf = Brute.is_satisfiable cnf)

let prop_solver_model_satisfies =
  QCheck.Test.make ~name:"solver models satisfy the formula" ~count:300
    arbitrary_cnf (fun (vars, cs) ->
      let cnf = Cnf.of_list vars cs in
      Solver.model_checks (Solver.solve cnf) cnf)

let prop_enumeration_matches_brute =
  QCheck.Test.make ~name:"enumeration count = brute count" ~count:150
    arbitrary_cnf (fun (vars, cs) ->
      let cnf = Cnf.of_list vars cs in
      Enumerate.count cnf = Brute.count_models cnf)

let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"dimacs round trip" ~count:200 arbitrary_cnf
    (fun (vars, cs) ->
      let cnf = Cnf.of_list vars cs in
      let cnf' = Dimacs.parse_exn (Dimacs.to_string cnf) in
      Cnf.clauses cnf = Cnf.clauses cnf' && Cnf.num_vars cnf = Cnf.num_vars cnf')

(* Differential battery: the solver against the exhaustive baseline —
   identical sat status, and any model it returns must actually satisfy
   the formula. *)
let prop_sequential_vs_brute =
  QCheck.Test.make ~name:"differential: sequential = brute force" ~count:500
    arbitrary_cnf (fun (vars, cs) ->
      let cnf = Cnf.of_list vars cs in
      match Solver.solve cnf with
      | Solver.Sat _ as r ->
        Brute.is_satisfiable cnf && Solver.model_checks r cnf
      | Solver.Unsat -> not (Brute.is_satisfiable cnf))

let arbitrary_budgeted_cnf =
  QCheck.make
    QCheck.Gen.(pair cnf_gen (int_range 1 20))
    ~print:(fun ((v, cs), b) ->
      Printf.sprintf "vars=%d clauses=%d budget=%d" v (List.length cs) b)

let prop_count_budget_sound =
  QCheck.Test.make ~name:"budgeted census is exact or a sound lower bound"
    ~count:500 arbitrary_budgeted_cnf
    (fun ((vars, cs), budget) ->
      let cnf = Cnf.of_list vars cs in
      let brute = Brute.count_models cnf in
      match Count.count_limited ~budget cnf with
      | Outcome.Exact n -> n = brute
      | Outcome.Lower_bound (n, Outcome.Node_budget) -> 0 <= n && n <= brute
      | Outcome.Lower_bound _ -> false)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_solver_agrees_with_brute;
      prop_solver_model_satisfies;
      prop_enumeration_matches_brute;
      prop_session_matches_units;
      prop_dimacs_roundtrip;
      prop_sequential_vs_brute;
      prop_count_budget_sound;
      prop_components_match_reference;
    ]

let () =
  Alcotest.run "sat"
    [
      ( "cnf",
        [
          Alcotest.test_case "basic" `Quick test_cnf_basic;
          Alcotest.test_case "tautology dropped" `Quick test_cnf_tautology_dropped;
          Alcotest.test_case "duplicate literals" `Quick test_cnf_duplicate_literals;
          Alcotest.test_case "bad literal" `Quick test_cnf_bad_literal;
          Alcotest.test_case "empty clause" `Quick test_cnf_empty_clause;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "comments" `Quick test_dimacs_comments;
          Alcotest.test_case "multiline clause" `Quick test_dimacs_multiline_clause;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
          Alcotest.test_case "header validation" `Quick test_dimacs_validation;
        ] );
      ( "solver",
        [
          Alcotest.test_case "trivial" `Quick test_solver_trivial;
          Alcotest.test_case "model valid" `Quick test_solver_model_valid;
          Alcotest.test_case "forced sat" `Quick test_solver_forced_sat;
          Alcotest.test_case "pigeonhole" `Quick test_solver_pigeonhole;
          Alcotest.test_case "vs brute" `Quick test_solver_vs_brute;
          Alcotest.test_case "units" `Quick test_solve_with_units;
          Alcotest.test_case "default parallelism is 1 only" `Quick
            test_default_parallelism_only_one;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "counts" `Quick test_enumerate_counts;
          Alcotest.test_case "limit" `Quick test_enumerate_limit;
          Alcotest.test_case "projection" `Quick test_enumerate_projection;
          Alcotest.test_case "exactly k" `Quick test_exactly_k_models;
          Alcotest.test_case "unique" `Quick test_unique;
          Alcotest.test_case "forced true" `Quick test_forced_true;
        ] );
      ( "count",
        [
          Alcotest.test_case "basics" `Quick test_count_basics;
          Alcotest.test_case "vs brute" `Quick test_count_vs_brute;
          Alcotest.test_case "engineered" `Quick test_count_engineered;
          Alcotest.test_case "components scale" `Quick test_count_components_scale;
          Alcotest.test_case "budget" `Quick test_count_budget;
          Alcotest.test_case "budget boundary" `Quick
            test_count_budget_boundary;
          Alcotest.test_case "overflow saturates" `Quick test_count_overflow;
        ] );
      ( "session",
        [
          Alcotest.test_case "basic" `Quick test_session_basic;
          Alcotest.test_case "add clause" `Quick test_session_add_clause;
          Alcotest.test_case "blocking enumeration" `Quick
            test_session_blocking_enumeration;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "conflict budget" `Quick
            test_outcome_conflict_budget;
          Alcotest.test_case "time budget" `Quick test_outcome_time_budget;
          Alcotest.test_case "session budget + resume" `Quick
            test_session_budget_resume;
        ] );
      ("properties", qcheck_tests);
    ]
