(* fixpoints_pisat: [negdl fixpoints], the Section 3 decision problems.
   op1 runs the suite (existence, census to 256, uniqueness, least
   fixpoint) on pi_SAT over D(I) for one fixed forced-satisfiable 3-CNF,
   whose variables, polarities and clause order each round permutes with
   the run's seed (the model count, and so the work, stays the same).  op2
   runs it with the exact #SAT census ([--count-budget]) on pi_1 over 12
   disjoint 4-cycles, whose 2^12 fixpoints are known by construction.
   Grounding and SAT enumeration dominate; the Store and the evaluator are
   nearly idle. *)

open Negdl

let name = "fixpoints_pisat"

let vars = 3

let clauses = 8

let cycles = 12

let census_budget = 2_000_000

let pi1 = "t(X) :- e(Y, X), !t(Y).\n"

let base = lazy (Sat_workload.forced_sat ~seed:1 ~vars ~clauses ~k:3)

let cnf seed =
  let rng = Prng.create seed in
  let perm = Array.of_list (Prng.shuffle rng (List.init vars (fun i -> i + 1))) in
  let flip = Array.init (vars + 1) (fun _ -> Prng.bool rng) in
  let lit l = if l > 0 <> flip.(abs l) then perm.(abs l - 1) else -perm.(abs l - 1) in
  Cnf.of_list vars
    (Prng.shuffle rng (List.map (List.map lit) (Cnf.clauses (Lazy.force base))))

let run (ctx : Harness.ctx) =
  let pisat =
    Harness.write_input ctx "pisat.dl" (Pretty.program_to_string Sat_db.program)
  in
  let pi1 = Harness.write_input ctx "pi1.dl" pi1 in
  let cycles =
    Harness.write_input ctx "cycles.facts"
      (Harness.facts_text
         (Digraph.to_database (Generate.disjoint_copies cycles (Generate.cycle 4))))
  in
  Harness.rounds ctx ~check:Fun.id ~round:(fun i ->
      let seed = Harness.subseed ctx.seed i in
      let facts =
        Harness.write_input ctx "pisat.facts"
          (Harness.facts_text (Sat_db.database_of_cnf (cnf seed)))
      in
      [
        ("op1", fun () -> [ name; "pisat"; pisat; facts; string_of_int seed ]);
        ("op2", fun () -> [ name; "pi1"; pi1; cycles; "0" ]);
      ])

(* The least fixpoint from the definition: pi_SAT's fixpoints are the
   satisfying assignments, enumerated by brute force; the least one exists
   iff their intersection is itself one of them (Theorem 3). *)
let least_reference cnf =
  match List.map (Sat_db.fixpoint_of_assignment cnf) (Sat_brute.all_models cnf) with
  | [] -> None
  | f :: rest as all ->
    let meet = List.fold_left Idb.inter f rest in
    if List.exists (Idb.equal meet) all then Some meet else None

let same_least a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Idb.equal a b
  | _ -> false

let child = function
  | [ which; program_file; facts_file; seed ] ->
    let count_budget = if which = "pi1" then Some census_budget else None in
    Cli.defaults ();
    Sat_stats.reset ();
    Harness.Child.ready ();
    Harness.Child.op_begin ();
    let program = Cli.load_program program_file in
    let db = Cli.load_database facts_file in
    let r = Cli.analyze_fixpoints ?count_budget program db in
    Harness.Child.op_end ();
    if which = "pi1" then
      Harness.Child.check
        (r.count = Some 256
        && r.exact = Some (Sat_outcome.Exact (1 lsl cycles))
        && r.least = None)
        "pi_1 census on 12 x C_4 is not 256 (capped) / exactly 4096 / no least"
    else
      let cnf = cnf (int_of_string seed) in
      Harness.Child.check
        (r.count = Some (min 256 (Sat_brute.count_models cnf))
        && same_least r.least (least_reference cnf))
        "pi_SAT census or least fixpoint differs from the brute-force models"
  | _ -> Harness.Child.die "usage: fixpoints_pisat pisat|pi1 PROGRAM FACTS SEED"

let layer_metrics ~get _ =
  [ ("fixpoint.count_ms_per_model", Harness.ratio (get "fixpoint.count_ms") (get "fixpoint.models")) ]
