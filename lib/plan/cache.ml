module Ast = Datalog.Ast

type key = {
  krule : Ast.rule;
  kvariant : Plan.variant;
  klimit : (Ast.limit_kind * int) option;
      (* The head limit the plan was compiled under, when any: the same
         (rule, variant) is compiled both with tightening steps (normal
         evaluation) and without (DRed overdeletion derives the {e old}
         candidates, which never improve the current bound), and the two
         must not collide. *)
}

module H = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.kvariant = b.kvariant && a.klimit = b.klimit
    && Ast.compare_rule a.krule b.krule = 0

  let hash k = Hashtbl.hash (k.krule, k.kvariant, k.klimit)
end)

type t = Plan.t H.t

let create () = H.create 32

(* Replan when a relation size the cost model saw has drifted past this
   factor (plus the slack) in either direction — early fixpoint stages grow
   relations from empty, so the first plans are made against
   unrepresentative sizes.  The slack keeps a 4x change of almost nothing
   from counting as drift. *)
let drift_factor = 4

let drift_slack = 16

let drifted (plan : Plan.t) ~sizes =
  List.exists
    (fun ((occ : Plan.occurrence), arity, n0) ->
      let n = sizes occ arity in
      n > (drift_factor * n0) + drift_slack
      || n0 > (drift_factor * n) + drift_slack)
    plan.Plan.sizes_at_plan

let bump_compile = function
  | Some (c : Plan.counters) -> c.plan_compiles <- c.plan_compiles + 1
  | None -> ()

let bump_hit = function
  | Some (c : Plan.counters) -> c.plan_cache_hits <- c.plan_cache_hits + 1
  | None -> ()

let find ?counters ?(variant = Plan.Full) ?label ?(limits = []) cache ~sizes
    ~universe_size rule =
  let klimit = List.assoc_opt rule.Ast.head.pred limits in
  let key = { krule = rule; kvariant = variant; klimit } in
  match H.find_opt cache key with
  | Some plan when not (drifted plan ~sizes) ->
    bump_hit counters;
    plan
  | _ ->
    bump_compile counters;
    let plan = Plan.compile ~variant ?label ~limits ~sizes ~universe_size rule in
    H.replace cache key plan;
    plan

let cardinal = H.length

let plans cache = H.fold (fun _ plan acc -> plan :: acc) cache []

let program_plans cache (p : Ast.program) =
  let all = plans cache in
  let variant_rank = function Plan.Full -> -1 | Plan.Delta j -> j in
  let for_rule r =
    List.filter (fun (pl : Plan.t) -> Ast.compare_rule pl.Plan.rule r = 0) all
    |> List.sort (fun (a : Plan.t) (b : Plan.t) ->
           Int.compare (variant_rank a.Plan.variant)
             (variant_rank b.Plan.variant))
  in
  let matched = List.concat_map for_rule p.rules in
  let rest =
    List.filter
      (fun (pl : Plan.t) ->
        not
          (List.exists (fun r -> Ast.compare_rule pl.Plan.rule r = 0) p.rules))
      all
    |> List.sort (fun (a : Plan.t) (b : Plan.t) ->
           String.compare a.Plan.label b.Plan.label)
  in
  matched @ rest
