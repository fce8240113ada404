module SSet = Set.Make (String)

let dedup_literals (r : Ast.rule) =
  let body =
    List.fold_left
      (fun acc l -> if List.mem l acc then acc else l :: acc)
      [] r.Ast.body
  in
  { r with Ast.body = List.rev body }

let simplify_comparisons (r : Ast.rule) =
  let rec walk acc = function
    | [] -> Some (List.rev acc)
    | l :: rest -> (
      match l with
      | Ast.Eq (t1, t2) when Ast.equal_term t1 t2 -> walk acc rest
      | Ast.Neq (t1, t2) when Ast.equal_term t1 t2 -> None
      | Ast.Eq (Ast.Const c1, Ast.Const c2) ->
        if Relalg.Symbol.equal c1 c2 then walk acc rest else None
      | Ast.Neq (Ast.Const c1, Ast.Const c2) ->
        if Relalg.Symbol.equal c1 c2 then None else walk acc rest
      | _ -> walk (l :: acc) rest)
  in
  match walk [] r.Ast.body with
  | None -> None
  | Some body -> Some { r with Ast.body }

let dedup_rules (p : Ast.program) =
  let rules =
    List.fold_left
      (fun acc r -> if List.mem r acc then acc else r :: acc)
      [] p.Ast.rules
  in
  Ast.program ~limits:p.Ast.limits (List.rev rules)

let drop_underivable (p : Ast.program) =
  let idb0 = SSet.of_list (Ast.idb_predicates p) in
  (* Least set of derivable IDB predicates: p is derivable when some rule
     with head p has all its positive IDB subgoals derivable. *)
  let rec grow derivable =
    let bigger =
      List.fold_left
        (fun acc (r : Ast.rule) ->
          let ok =
            List.for_all
              (fun l ->
                match l with
                | Ast.Pos a ->
                  (not (SSet.mem a.Ast.pred idb0))
                  || SSet.mem a.Ast.pred derivable
                | Ast.Neg _ | Ast.Eq _ | Ast.Neq _ | Ast.Leq _ | Ast.Geq _
                | Ast.Plus _ ->
                  true)
              r.Ast.body
          in
          if ok then SSet.add r.Ast.head.Ast.pred acc else acc)
        derivable p.Ast.rules
    in
    if SSet.equal bigger derivable then derivable else grow bigger
  in
  let derivable = grow SSet.empty in
  let underivable pred = SSet.mem pred idb0 && not (SSet.mem pred derivable) in
  let rules =
    List.filter_map
      (fun (r : Ast.rule) ->
        if underivable r.Ast.head.Ast.pred then None
        else if
          List.exists
            (function Ast.Pos a -> underivable a.Ast.pred | _ -> false)
            r.Ast.body
        then None
        else
          (* A negated underivable atom is vacuously true in every
             semantics (the predicate stays empty everywhere). *)
          Some
            {
              r with
              Ast.body =
                List.filter
                  (function
                    | Ast.Neg a -> not (underivable a.Ast.pred)
                    | Ast.Pos _ | Ast.Eq _ | Ast.Neq _ | Ast.Leq _
                    | Ast.Geq _ | Ast.Plus _ ->
                      true)
                  r.Ast.body;
            })
      p.Ast.rules
  in
  Ast.program ~limits:p.Ast.limits rules

let one_pass ~aggressive p =
  let rules =
    List.filter_map
      (fun r -> Option.map dedup_literals (simplify_comparisons r))
      p.Ast.rules
  in
  let p' = dedup_rules (Ast.program ~limits:p.Ast.limits rules) in
  if aggressive then drop_underivable p' else p'

let simplify ?(aggressive = false) p =
  let rec fix p =
    let p' = one_pass ~aggressive p in
    if p' = p then p else fix p'
  in
  fix p

let count_literals (p : Ast.program) =
  List.fold_left (fun n (r : Ast.rule) -> n + List.length r.Ast.body) 0 p.Ast.rules

let statistics before after =
  Printf.sprintf "rules %d -> %d, body literals %d -> %d"
    (List.length before.Ast.rules)
    (List.length after.Ast.rules)
    (count_literals before) (count_literals after)
