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
    Plan.compile ?variant ?label ~limits ~sizes
      ~universe_size:(universe_size ()) rule

let run_plan ?stats ?seen ~universe ~resolver plan =
  let counters = Option.map (fun (s : Stats.t) -> s.Stats.plan) stats in
  let arity = Array.length plan.Plan.head_args in
  (* Head tuples stream into a bulk accumulator; the relation (and its lazy
     indexes) is built once at the end instead of re-derived per [add]. *)
  let acc = Relation.builder arity in
  let emitted = ref 0 in
  let allocated = ref 0 in
  Plan.run ?counters ?seen ~resolver ~universe plan ~on_row:(fun env ->
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

let eval_rule ?cache ?variant ?stats ~universe ~resolver rule =
  let plan =
    plan_rule ?cache ?variant ?stats
      ~universe_size:(fun () -> List.length universe)
      ~resolver rule
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
