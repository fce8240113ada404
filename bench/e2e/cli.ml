(* The library calls bin/negdl_cli.ml makes, in the same order and with the
   CLI's defaults, each wrapped in a span named after its layer.  Spans and
   counters are recorded only in a traced child; the benchmark times layers
   from outside, around their public functions, and adds nothing to lib/. *)

open Negdl
module C = Harness.Child

(* What every subcommand sets before loading anything: default storage,
   sequential SAT search ([--sat-par 1]) and automatic grain. *)
let defaults () =
  Relation.set_default_storage `Hashed;
  Sat_solver.set_default_parallelism 1;
  Engine.set_default_grain `Auto

let or_die = function Ok v -> v | Error msg -> C.die msg

let read_file path = C.span "proc.io" (fun () -> Harness.read_text path)

let load_program path =
  let text = read_file path in
  or_die (C.span "datalog.parse" (fun () -> Negdl.parse_program text))

let load_database path =
  let text = read_file path in
  or_die (C.span "relalg.facts_parse" (fun () -> Negdl.parse_database text))

(* Validation and stratification run inside every evaluator; a traced child
   also times them on their own so their share has a baseline. *)
let check program =
  C.span "datalog.check" (fun () ->
      ignore (Check.validate program);
      ignore (Stratify.stratify program))

let stats_counters (s : Stats.t) =
  let p = s.Stats.plan in
  [
    ("eval.iterations", s.Stats.iterations);
    ("eval.rule_applications", s.Stats.rule_applications);
    ("eval.tuples_derived", s.Stats.tuples_derived);
    ("eval.tuples_allocated", s.Stats.tuples_allocated);
    ("eval.bulk_builds", s.Stats.bulk_builds);
    ("plan.compiles", p.Plan.plan_compiles);
    ("plan.cache_hits", p.Plan.plan_cache_hits);
    ("plan.replans", p.Plan.plan_replans);
    ("plan.index_builds", p.Plan.index_builds);
    ("plan.index_hits", p.Plan.index_hits);
    ("plan.full_scans", p.Plan.full_scans);
    ("plan.bucket_probes", p.Plan.bucket_probes);
    ("plan.enumerations", p.Plan.enumerations);
  ]

(* An evaluation span, with allocation and major collections as deltas. *)
let eval_span name f =
  if not !C.tracing then f ()
  else
    let g0 = Gc.quick_stat () in
    let r = C.span name f in
    let g1 = Gc.quick_stat () in
    let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
    C.count "eval.alloc_kwords" (int_of_float ((words g1 -. words g0) /. 1e3));
    C.count "eval.major_gcs" (g1.major_collections - g0.major_collections);
    r

(* [negdl eval]'s evaluation: [Negdl.run] with the CLI's engine, planner,
   indexing and storage. *)
let run semantics program db =
  let stats = if !C.tracing then Some (Stats.create ()) else None in
  if !C.tracing then check program;
  let result =
    eval_span "eval.run" (fun () ->
        Negdl.run ~engine:`Seminaive ~planner:`Static ~indexing:`Cached
          ~storage:`Hashed ?stats semantics program db)
  in
  let result = or_die result in
  Option.iter
    (fun s ->
      List.iter (fun (n, v) -> C.count n v) (stats_counters s);
      C.count "eval.model_tuples" (Idb.total_cardinal result.facts))
    stats;
  result

type fixpoints = {
  count : int option;
  exact : Sat_outcome.count option;
  least : Idb.t option;
}

(* [negdl fixpoints]: [Negdl.analyze_fixpoints] with limit 256.  A traced
   child makes the same calls one by one, in the same order, so that each
   gets a span. *)
let analyze_fixpoints ?count_budget program db =
  if not !C.tracing then
    let r =
      Negdl.analyze_fixpoints ~planner:`Static ~count_limit:256 ?count_budget
        program db
    in
    { count = r.fixpoint_count; exact = r.exact_count; least = r.least }
  else begin
    check program;
    let solver =
      C.span "fixpoint.prepare" (fun () ->
          Fixpoints.prepare ~planner:`Static program db)
    in
    let ground = Fixpoints.ground solver in
    C.count "fixpoint.ground_atoms" (Ground.atom_count ground);
    C.count "fixpoint.ground_rules" (Ground.rule_count ground);
    let has = C.span "fixpoint.find" (fun () -> Fixpoints.find solver) <> None in
    let count =
      if has then
        Some (C.span "fixpoint.count" (fun () -> Fixpoints.count ~limit:256 solver))
      else Some 0
    in
    C.count "fixpoint.models" (Option.value ~default:0 count);
    let exact =
      Option.map
        (fun budget ->
          C.span "fixpoint.census" (fun () ->
              Fixpoints.count_exact ~budget solver))
        count_budget
    in
    let least =
      if has then C.span "fixpoint.least" (fun () -> Fixpoints.least solver)
      else None
    in
    List.iter
      (fun (name, key) ->
        C.count name (Option.value ~default:0 (List.assoc_opt key (Sat_stats.snapshot ()))))
      [
        ("sat.components_counted", "sat components counted");
        ("sat.cubes_solved", "sat cubes solved");
        ("sat.budget_exhaustions", "sat budget exhaustions");
      ];
    { count; exact; least }
  end

let idb_of_bindings program bindings =
  List.fold_left
    (fun idb (name, rel) -> Idb.set idb name rel)
    (Idb.of_program program) bindings

let snap_or_die = function
  | Ok v -> v
  | Error e -> C.die (Snapshot.error_to_string e)

(* [negdl eval -s stratified --snapshot FILE]: restore the model when FILE
   holds a fresh snapshot, otherwise evaluate and (over)write FILE.  Returns
   the model and whether it was restored. *)
let eval_with_snapshot program db file =
  let semantics = "stratified" in
  let evaluate_and_save () =
    let result = run Semantics_stratified program db in
    let image =
      snap_or_die
        (C.span "snapshot.capture" (fun () ->
             Snapshot.capture ~unknown:[] ~program ~semantics ~db
               (Idb.bindings result.facts)))
    in
    let bytes =
      snap_or_die
        (C.span "snapshot.write" (fun () -> Snapshot.write_file file image))
    in
    if !C.tracing then begin
      C.count "snapshot.file_bytes" bytes;
      C.count "snapshot.rows"
        (List.fold_left
           (fun acc (ri : Snapshot.relation_image) -> acc + ri.Snapshot.row_count)
           0 image.Snapshot.relations)
    end;
    (result.facts, false)
  in
  if not (Sys.file_exists file) then evaluate_and_save ()
  else
    let image =
      snap_or_die (C.span "snapshot.read" (fun () -> Snapshot.read_file file))
    in
    let fresh =
      match
        C.span "snapshot.check" (fun () ->
            Snapshot.check_program image ~program ~semantics)
      with
      | Error _ -> false
      | Ok () ->
        image.Snapshot.edb_digest
        = C.span "snapshot.digest" (fun () -> Snapshot.database_digest db)
    in
    if not fresh then evaluate_and_save ()
    else
      let facts =
        C.span "snapshot.restore" (fun () ->
            let r = snap_or_die (Snapshot.restore ~storage:`Hashed image) in
            idb_of_bindings program r.Snapshot.r_idb)
      in
      (facts, true)
