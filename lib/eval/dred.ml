module Ast = Datalog.Ast
module Schema = Relalg.Schema
module Relation = Relalg.Relation
module Tuple = Relalg.Tuple
module Database = Relalg.Database
module Plan = Planlib.Plan
module SSet = Set.Make (String)
module SMap = Map.Make (String)

module FactSet = Set.Make (struct
  type t = string * Tuple.t

  let compare (p1, t1) (p2, t2) =
    match String.compare p1 p2 with 0 -> Tuple.compare t1 t2 | c -> c
end)

type delta = {
  new_db : Database.t;
  new_idb : Idb.t;
  overdeleted : int;
  rederived : int;
}

(* The evaluation knobs threaded through every rule application.  Plans
   are fetched from one shared cache, so across update batches each
   (rule, variant) pair compiles once and the delta work is pure plan
   execution. *)
type opts = {
  cache : Planlib.Cache.t;
  stats : Stats.t option;
}

let eval_rule opts ~variant ~universe ~resolver rule =
  Engine.eval_rule ~cache:opts.cache ~variant ?stats:opts.stats ~universe
    ~resolver rule

(* The delta-scoped work counters ride on [Stats.extra]: the bench's
   no-full-re-ground check asserts that per batch only these grow (plus
   the semi-naive continuation), never a full application per rule. *)
let bump opts name =
  match opts.stats with
  | Some s -> Stats.bump_extra s name 1
  | None -> ()

let indexed_body (rule : Ast.rule) = List.mapi (fun i l -> (i, l)) rule.body

(* [Neg a] at position [j] turned positive, so the literal can read an
   add/delete delta of [a.pred]: a fact {e appearing} in a negated
   predicate can only kill derivations, a fact {e leaving} it can only
   enable them — either way the affected bindings are exactly the joins
   through the flipped literal. *)
let flip_at (rule : Ast.rule) j a =
  {
    rule with
    body = List.mapi (fun i l -> if i = j then Ast.Pos a else l) rule.body;
  }

(* [head :- head, body]: the prepended head literal, resolved to the
   overdeleted facts and compiled as the [Delta 0] variant, restricts
   re-derivation to candidates that were actually deleted — and hands the
   planner a driving input the size of the deletion, not the relation. *)
let putback_rule (rule : Ast.rule) =
  { rule with body = Ast.Pos rule.head :: rule.body }

let add_heads idb pred rel =
  if Relation.is_empty rel then idb
  else if Idb.mem idb pred then
    Idb.set idb pred (Relation.union (Idb.get idb pred) rel)
  else Idb.set idb pred rel

(* Occurrence [j] reads the triggering delta; other evolving occurrences
   read [evolving]; lower strata and the EDB read [base]. *)
let trigger_resolver ~schema ~evolving ~base ~j ~delta_rel
    (occ : Engine.occurrence) =
  if occ.Engine.index = j then { Engine.find = (fun _ _ -> delta_rel) }
  else if Schema.mem occ.Engine.pred schema then
    { Engine.find = (fun p _ -> Idb.get evolving p) }
  else base

(* Seed triggers for one stratum: for each rule and each body literal over
   a changed lower-level predicate (EDB or lower stratum), evaluate a
   delta-specialized variant of the rule reading the change at that
   literal and [evolving] elsewhere.  In the deletion direction positive
   literals read deleted facts and negated literals read {e added} facts;
   the insertion direction is the mirror image ([pos_delta]/[neg_delta]
   encode the direction).  Grounding work is proportional to the changed
   facts — rules over unchanged predicates never run. *)
let eval_seed_triggers opts ~rules ~schema ~evolving ~base ~universe
    ~pos_delta ~neg_delta =
  List.fold_left
    (fun acc (rule : Ast.rule) ->
      List.fold_left
        (fun acc (j, lit) ->
          let fire acc rule' delta_rel =
            if Relation.is_empty delta_rel then acc
            else begin
              bump opts "dred delta applications";
              let resolver =
                trigger_resolver ~schema ~evolving ~base ~j ~delta_rel
              in
              add_heads acc rule.Ast.head.Ast.pred
                (eval_rule opts ~variant:(Plan.Delta j) ~universe ~resolver
                   rule')
            end
          in
          match lit with
          | Ast.Pos a when not (Schema.mem a.Ast.pred schema) -> (
            match pos_delta a.Ast.pred with
            | Some rel -> fire acc rule rel
            | None -> acc)
          | Ast.Neg a -> (
            match neg_delta a.Ast.pred with
            | Some rel -> fire acc (flip_at rule j a) rel
            | None -> acc)
          | _ -> acc)
        acc (indexed_body rule))
    (Idb.empty schema) rules

(* One within-stratum delta application where evolving positive literals
   read [frontier] at the delta position and [evolving] elsewhere — the
   overdeletion chase runs this against the *old* valuation. *)
let stratum_delta_application opts ~rules ~schema ~evolving ~base ~universe
    ~frontier =
  List.fold_left
    (fun acc (rule : Ast.rule) ->
      List.fold_left
        (fun acc j ->
          bump opts "dred delta applications";
          let resolver (occ : Engine.occurrence) =
            if occ.Engine.index = j then
              { Engine.find = (fun p _ -> Idb.get frontier p) }
            else if Schema.mem occ.Engine.pred schema then
              { Engine.find = (fun p _ -> Idb.get evolving p) }
            else base
          in
          add_heads acc rule.Ast.head.Ast.pred
            (eval_rule opts ~variant:(Plan.Delta j) ~universe ~resolver rule))
        acc
        (Saturate.delta_positions ~schema rule))
    (Idb.empty schema) rules

(* A rule whose variables are not all bound by positive body atoms
   enumerates the unbound ones over the universe (the paper's
   non-range-restricted semantics).  Such a rule can derive new facts from
   a universe that merely {e grew} — no fact delta fires any trigger — so
   insertions that introduce new constants re-apply exactly these rules in
   full. *)
let rule_enumerates (rule : Ast.rule) =
  let bound = Ast.positive_body_variables rule in
  List.exists (fun v -> not (List.mem v bound)) (Ast.rule_variables rule)

let fact_arity ~who ~db ~schema (pred, tuple) =
  let expected =
    match Database.relation pred db with
    | Some r -> Some (Relation.arity r)
    | None -> ( match schema with Some s -> Schema.arity pred s | None -> None)
  in
  match expected with
  | Some k when k <> Tuple.arity tuple ->
    invalid_arg
      (Printf.sprintf
         "%s: arity mismatch: %s%s has %d component(s) but %s has arity %d"
         who pred (Tuple.to_string tuple) (Tuple.arity tuple) pred k)
  | _ -> ()

let uniq_facts facts = FactSet.elements (FactSet.of_list facts)

let group_facts facts =
  List.fold_left
    (fun acc (pred, tuple) ->
      let tuples =
        match SMap.find_opt pred acc with Some ts -> ts | None -> []
      in
      SMap.add pred (tuple :: tuples) acc)
    SMap.empty facts
  |> SMap.map (fun tuples ->
         Relation.of_list (Tuple.arity (List.hd tuples)) tuples)

(* Extends a per-predicate delta map with a stratum's final differences,
   so higher strata can trigger on them. *)
let extend_deltas m idb =
  List.fold_left
    (fun m (pred, rel) ->
      if Relation.is_empty rel then m
      else
        SMap.add pred
          (match SMap.find_opt pred m with
          | Some r0 -> Relation.union r0 rel
          | None -> rel)
          m)
    m (Idb.bindings idb)

let apply ?engine ?cache ?stats ?pool ?(who = "Dred.apply") p db
    ~current ~additions ~removals () =
  (* --- validation (string sets, not List.mem: O(batch log program)) --- *)
  let idb_preds = SSet.of_list (Ast.idb_predicates p) in
  let schema =
    match Ast.inferred_schema p with Ok s -> Some s | Error _ -> None
  in
  let check_pred (pred, _) =
    if SSet.mem pred idb_preds then
      invalid_arg (Printf.sprintf "%s: %s is an IDB predicate" who pred)
  in
  List.iter
    (fun fact ->
      check_pred fact;
      fact_arity ~who ~db ~schema fact)
    additions;
  List.iter
    (fun ((pred, tuple) as fact) ->
      check_pred fact;
      fact_arity ~who ~db ~schema fact;
      if not (Database.mem_fact pred tuple db) then
        invalid_arg
          (Printf.sprintf "%s: %s%s is not in the database" who pred
             (Tuple.to_string tuple)))
    removals;
  let strat =
    match Datalog.Stratify.stratify p with
    | Datalog.Stratify.Stratified s -> s
    | Datalog.Stratify.Not_stratifiable { offending = a, b } ->
      invalid_arg
        (Printf.sprintf
           "%s: the program must be stratifiable (%s depends negatively on \
            %s inside a recursive component)"
           who a b)
    | Datalog.Stratify.Not_limit_stratifiable { pred; rule } ->
      invalid_arg
        (Printf.sprintf "%s: %s" who
           (Datalog.Stratify.limit_error_to_string ~pred ~rule))
  in
  (* Limit semantics in the maintenance loop: every plan compiled through
     [eval_rule] below is limit-{e free} (the cache keys them apart from the
     evaluator's tightened plans) — overdeletion re-derives the *old*
     candidates, which by construction never strictly improve the current
     bound, so a tightening plan would kill exactly the rows the phase
     exists to find.  The dominant-tuple invariant is instead restored at
     the set level: both semi-naive continuations seed through
     {!Idb.tighten_union}, and deleted bounds are re-derived per group (see
     the putback phase). *)
  let limits =
    List.map
      (fun (l : Ast.limit) -> (l.Ast.limit_pred, (l.Ast.kind, l.Ast.column)))
      p.Ast.limits
  in
  let limit_of pred = List.assoc_opt pred limits in
  let removals = uniq_facts removals in
  let removed = FactSet.of_list removals in
  (* An addition already present is a no-op — unless the same batch also
     removes the fact, in which case it must survive the round trip. *)
  let additions =
    uniq_facts additions
    |> List.filter (fun ((pred, tuple) as f) ->
           (not (Database.mem_fact pred tuple db)) || FactSet.mem f removed)
  in
  (* --- the new database ------------------------------------------------ *)
  (* Each removal costs its own fact: the facts that stay are not
     re-checked against the universe. *)
  let new_db =
    List.fold_left
      (fun d (pred, tuple) -> Database.remove_fact pred tuple d)
      db removals
  in
  let new_db =
    List.fold_left
      (fun d (pred, tuple) ->
        Database.add_fact pred tuple (Database.add_universe (Tuple.to_list tuple) d))
      new_db additions
  in
  (* Removals never shrink the universe, so it grew exactly when an added
     fact brought a constant from outside it — read off the batch, not by
     listing both universes. *)
  let universe_grew =
    List.exists
      (fun (_, tuple) ->
        List.exists
          (fun c -> not (Database.in_universe c db))
          (Tuple.to_list tuple))
      additions
  in
  let old_u = Database.universe db in
  let new_u = if universe_grew then Database.universe new_db else old_u in
  let cache = match cache with Some c -> c | None -> Planlib.Cache.create () in
  let opts = { cache; stats } in
  let full_schema = Idb.schema current in
  (* --- stratum-by-stratum maintenance --------------------------------- *)
  (* [del]/[add] carry the per-predicate deltas visible below the stratum
     at hand: the EDB changes, extended with each completed stratum's own
     differences.  [acc_old]/[acc_new] accumulate the lower strata's old
     and new valuations for the frozen [base] sources. *)
  let nstrata = List.length strat.Datalog.Stratify.strata in
  let rec walk s acc_old acc_new del add over reder =
    if s = nstrata then (acc_new, over, reder)
    else begin
      let rules = Datalog.Stratify.rules_of_stratum p strat s in
      let preds = List.nth strat.Datalog.Stratify.strata s in
      let schema_s =
        List.fold_left
          (fun acc name -> Schema.add name (Schema.arity_exn name full_schema) acc)
          Schema.empty preds
      in
      let old_s =
        List.fold_left
          (fun acc name -> Idb.set acc name (Idb.get current name))
          (Idb.empty schema_s) preds
      in
      let old_base = Engine.layered db acc_old in
      let new_base = Engine.layered new_db acc_new in
      let lookup m pred = SMap.find_opt pred m in
      (* Phase 1 — overdeletion, in the old state over the old universe:
         seed from the lower-level deltas, then chase through positive
         evolving literals.  Candidates are capped to facts actually
         materialised. *)
      let seed =
        eval_seed_triggers opts ~rules ~schema:schema_s ~evolving:old_s
          ~base:old_base ~universe:old_u ~pos_delta:(lookup del)
          ~neg_delta:(lookup add)
      in
      let rec overdelete deleted frontier =
        if Idb.is_empty frontier then deleted
        else
          let derived =
            stratum_delta_application opts ~rules ~schema:schema_s
              ~evolving:old_s ~base:old_base ~universe:old_u ~frontier
          in
          let fresh = Idb.diff (Idb.inter derived old_s) deleted in
          overdelete (Idb.union deleted fresh) fresh
      in
      let d0 = Idb.inter seed old_s in
      let deleted = overdelete d0 d0 in
      let over_s = Idb.total_cardinal deleted in
      let survivors = Idb.diff old_s deleted in
      (* Phase 2 — put back and re-derive, in the new state: for each rule
         whose head predicate lost facts, join the deleted facts against
         the survivors (the prepended-head [Delta 0] variant), then
         continue semi-naive from what came back. *)
      let after_del, red_s =
        if Idb.is_empty deleted then (old_s, 0)
        else begin
          let putback =
            List.fold_left
              (fun acc (rule : Ast.rule) ->
                let pred = rule.Ast.head.Ast.pred in
                let drel = Idb.get deleted pred in
                if Relation.is_empty drel then acc
                else
                  match limit_of pred with
                  | Some (_, col)
                    when col < Relation.arity drel
                         && col < List.length rule.Ast.head.Ast.args ->
                    (* A deleted {e bound} need not come back verbatim: the
                       group's new bound is whatever the surviving supports
                       still derive (possibly a worse value, possibly
                       nothing).  Restrict the rule to the overdeleted
                       groups and derive candidates from the survivors; the
                       tighten-union below keeps the best one per group. *)
                    bump opts "dred putback applications";
                    let arity = Relation.arity drel in
                    let gcols =
                      List.filter (fun j -> j <> col) (List.init arity Fun.id)
                    in
                    let groups = Relation.project gcols drel in
                    let group_args =
                      List.filteri
                        (fun j _ -> j <> col)
                        rule.Ast.head.Ast.args
                    in
                    let aux =
                      {
                        rule with
                        Ast.body =
                          Ast.Pos (Ast.atom (pred ^ "#groups") group_args)
                          :: rule.Ast.body;
                      }
                    in
                    let resolver (occ : Engine.occurrence) =
                      if occ.Engine.index = 0 then
                        { Engine.find = (fun _ _ -> groups) }
                      else if Schema.mem occ.Engine.pred schema_s then
                        { Engine.find = (fun q _ -> Idb.get survivors q) }
                      else new_base
                    in
                    add_heads acc pred
                      (eval_rule opts ~variant:(Plan.Delta 0) ~universe:new_u
                         ~resolver aux)
                  | _ ->
                    bump opts "dred putback applications";
                    let resolver (occ : Engine.occurrence) =
                      if occ.Engine.index = 0 then
                        { Engine.find = (fun _ _ -> drel) }
                      else if Schema.mem occ.Engine.pred schema_s then
                        { Engine.find = (fun q _ -> Idb.get survivors q) }
                      else new_base
                    in
                    add_heads acc pred
                      (eval_rule opts ~variant:(Plan.Delta 0) ~universe:new_u
                         ~resolver (putback_rule rule)))
              (Idb.empty schema_s) rules
          in
          if Idb.is_empty putback then (survivors, 0)
          else
            let init, fresh = Idb.tighten_union ~limits survivors putback in
            if Idb.is_empty fresh then
              ( init,
                Idb.total_cardinal init - Idb.total_cardinal survivors )
            else
              let trace =
                Saturate.run_delta ?engine ~cache:opts.cache ~limits
                  ?stats:opts.stats ?pool ~rules ~schema:schema_s
                  ~universe:new_u ~base:new_base ~neg:`Current ~init
                  ~delta:fresh ()
              in
              ( trace.Saturate.result,
                Idb.total_cardinal trace.Saturate.result
                - Idb.total_cardinal survivors )
        end
      in
      (* Phase 3 — insertion, in the new state: trigger on added lower
         facts (and removed facts under negation), then continue
         semi-naive from the genuinely fresh seeds.  A grown universe
         additionally re-applies the enumerating rules in full — the only
         rules that can derive from new constants alone. *)
      let seed =
        eval_seed_triggers opts ~rules ~schema:schema_s ~evolving:after_del
          ~base:new_base ~universe:new_u ~pos_delta:(lookup add)
          ~neg_delta:(lookup del)
      in
      let seed =
        if not universe_grew then seed
        else
          List.fold_left
            (fun acc (rule : Ast.rule) ->
              if not (rule_enumerates rule) then acc
              else begin
                bump opts "dred full applications";
                let resolver (occ : Engine.occurrence) =
                  if Schema.mem occ.Engine.pred schema_s then
                    { Engine.find = (fun q _ -> Idb.get after_del q) }
                  else new_base
                in
                add_heads acc rule.Ast.head.Ast.pred
                  (eval_rule opts ~variant:Plan.Full ~universe:new_u
                     ~resolver rule)
              end)
            seed rules
      in
      let init3, fresh = Idb.tighten_union ~limits after_del seed in
      let new_s, grow_s =
        if Idb.is_empty fresh then (after_del, 0)
        else
          let trace =
            Saturate.run_delta ?engine ~cache:opts.cache
              ~limits ?stats:opts.stats ?pool ~rules ~schema:schema_s
              ~universe:new_u ~base:new_base ~neg:`Current ~init:init3
              ~delta:fresh ()
          in
          ( trace.Saturate.result,
            Idb.total_cardinal trace.Saturate.result
            - Idb.total_cardinal after_del )
      in
      let acc_old =
        List.fold_left
          (fun acc name -> Idb.set acc name (Idb.get old_s name))
          acc_old preds
      in
      let acc_new =
        List.fold_left
          (fun acc name -> Idb.set acc name (Idb.get new_s name))
          acc_new preds
      in
      let del = extend_deltas del (Idb.diff old_s new_s) in
      let add = extend_deltas add (Idb.diff new_s old_s) in
      walk (s + 1) acc_old acc_new del add (over + over_s)
        (reder + red_s + grow_s)
    end
  in
  let del0 = group_facts removals in
  let add0 = group_facts additions in
  let acc0 = Idb.empty Schema.empty in
  let final, overdeleted, rederived = walk 0 acc0 acc0 del0 add0 0 0 in
  let new_idb =
    List.fold_left
      (fun acc (pred, rel) -> Idb.set acc pred rel)
      (Idb.empty full_schema) (Idb.bindings final)
  in
  { new_db; new_idb; overdeleted; rederived }

let delete_facts p db ~current ~removals =
  apply ~who:"Dred.delete_facts" p db ~current ~additions:[] ~removals ()

let insert_facts p db ~current ~additions =
  apply ~who:"Dred.insert_facts" p db ~current ~additions ~removals:[] ()
