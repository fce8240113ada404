module Relation = Relalg.Relation
module Plan = Planlib.Plan
module Plan_cache = Planlib.Cache

type source = Plan.source = { find : string -> int -> Relation.t }

type occurrence = Plan.occurrence = {
  polarity : [ `Pos | `Neg ];
  index : int;
  pred : string;
}

type resolver = occurrence -> source

type indexing = [ `Cached ]

type grain = [ `Auto ]

let set_default_grain (_ : grain) = ()

(* Cardinalities for the cost model, read through the same resolver the
   plan will execute with — so a delta-variant plan sees the delta's
   (small) size at the redirected occurrence. *)
let resolver_sizes (resolver : resolver) occ arity =
  Relation.cardinal ((resolver occ).find occ.pred arity)

let plan_rule ?cache ?variant ?label ?(limits = []) ?stats
    ~universe_size ~resolver rule =
  let counters = Option.map (fun (s : Stats.t) -> s.Stats.plan) stats in
  let sizes occ arity = resolver_sizes resolver occ arity in
  match cache with
  | Some cache ->
    Plan_cache.find ?counters ?variant ?label ~limits cache ~sizes
      ~universe_size rule
  | None ->
    (match counters with
    | Some c -> c.Plan.plan_compiles <- c.Plan.plan_compiles + 1
    | None -> ());
    Plan.compile ?variant ?label ~limits ~sizes ~universe_size rule

let run_plan ?stats ~universe ~resolver plan =
  let counters = Option.map (fun (s : Stats.t) -> s.Stats.plan) stats in
  let arity = Array.length plan.Plan.head_args in
  (* Head tuples stream into a bulk accumulator; the relation (and its lazy
     indexes) is built once at the end instead of re-derived per [add]. *)
  let acc = Relation.builder arity in
  let emitted = ref 0 in
  let allocated = ref 0 in
  Plan.run ?counters ~resolver ~universe plan ~on_row:(fun env ->
      incr emitted;
      if Relation.builder_add acc (Plan.head_tuple plan env) then
        incr allocated);
  (match stats with
  | Some s ->
    s.Stats.rule_applications <- s.Stats.rule_applications + 1;
    s.Stats.tuples_derived <- s.Stats.tuples_derived + !emitted;
    s.Stats.tuples_allocated <- s.Stats.tuples_allocated + !allocated;
    s.Stats.bulk_builds <- s.Stats.bulk_builds + 1
  | None -> ());
  Relation.build acc

(* Morsel-driven variant of {!run_plan}: the plan's driving input is
   sharded over [pool] and each participant streams rows into its own
   accumulator (and plan-counter shard), so the hot loop stays lock-free;
   the builders are merged in participant order at the barrier, which
   makes the result deterministic whatever the steal schedule did. *)
let run_plan_sharded ?stats ~pool ~universe ~resolver plan =
  let arity = Array.length plan.Plan.head_args in
  let workers = Negdl_util.Domain_pool.size pool + 1 in
  let builders = Array.init workers (fun _ -> Relation.builder arity) in
  let emitted = Array.make workers 0 in
  let shards =
    Array.init workers (fun _ -> Option.map (fun _ -> Plan.counters ()) stats)
  in
  let report =
    Plan.run_sharded
      ~counters:(fun p -> shards.(p))
      ~pool ~resolver ~universe plan
      ~on_row:(fun p env ->
        emitted.(p) <- emitted.(p) + 1;
        ignore (Relation.builder_add builders.(p) (Plan.head_tuple plan env)))
  in
  (* Deterministic merge: participant order, never steal order.  The merge
     is a partition-wise id-run concatenation and dedup is deferred to
     [build], so the whole barrier is timed as one "merge" cost. *)
  let merge_t0 = Unix.gettimeofday () in
  let merged = ref builders.(0) in
  for p = 1 to workers - 1 do
    merged := Relation.builder_merge !merged builders.(p)
  done;
  let built = Relation.build !merged in
  let merge_ns =
    int_of_float ((Unix.gettimeofday () -. merge_t0) *. 1e9)
  in
  (match stats with
  | Some s ->
    s.Stats.rule_applications <- s.Stats.rule_applications + 1;
    s.Stats.tuples_derived <-
      s.Stats.tuples_derived + Array.fold_left ( + ) 0 emitted;
    (* Fresh tuples after the barrier build — cross-shard duplicates
       collapse in [build], exactly as within-run duplicates do
       sequentially. *)
    s.Stats.tuples_allocated <-
      s.Stats.tuples_allocated + Relation.cardinal built;
    s.Stats.bulk_builds <- s.Stats.bulk_builds + 1;
    s.Stats.merge_ns <- s.Stats.merge_ns + merge_ns;
    Array.iter
      (function
        | Some c -> Plan.merge_counters s.Stats.plan ~src:c
        | None -> ())
      shards;
    s.Stats.morsels <- s.Stats.morsels + report.Plan.sh_morsels;
    s.Stats.steals <- s.Stats.steals + report.Plan.sh_steals;
    let participants = Array.length report.Plan.sh_executed in
    if participants > 1 then begin
      let mx = ref report.Plan.sh_executed.(0) in
      let mn = ref report.Plan.sh_executed.(0) in
      Array.iter
        (fun n ->
          if n > !mx then mx := n;
          if n < !mn then mn := n)
        report.Plan.sh_executed;
      s.Stats.max_shard_skew <- max s.Stats.max_shard_skew (!mx - !mn)
    end
  | None -> ());
  built

let eval_rule ?cache ?variant ?stats ~universe ~resolver rule =
  let plan =
    plan_rule ?cache ?variant ?stats
      ~universe_size:(List.length universe) ~resolver rule
  in
  run_plan ?stats ~universe ~resolver plan

let eval_rules ?cache ?stats ~universe ~resolver ~schema rules =
  List.fold_left
    (fun acc rule ->
      let derived = eval_rule ?cache ?stats ~universe ~resolver rule in
      let name = rule.Datalog.Ast.head.pred in
      let current =
        if Idb.mem acc name then Idb.get acc name
        else Relation.empty (Relation.arity derived)
      in
      Idb.set acc name (Relation.union current derived))
    (Idb.empty schema) rules

let uniform source _occ = source

let database_source db =
  {
    find =
      (fun pred arity -> Relalg.Database.relation_or_empty ~arity pred db);
  }

let layered db idb =
  {
    find =
      (fun pred arity ->
        if Idb.mem idb pred then Idb.get idb pred
        else Relalg.Database.relation_or_empty ~arity pred db);
  }
