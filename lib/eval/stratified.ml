module Schema = Relalg.Schema

type error =
  | Not_stratifiable of { offending : string * string }
  | Not_limit_stratifiable of { pred : string; rule : Datalog.Ast.rule }

let error_to_string = function
  | Not_stratifiable { offending = p, q } ->
    Printf.sprintf
      "not stratifiable: %s depends negatively on %s inside a recursive \
       component"
      p q
  | Not_limit_stratifiable { pred; rule } ->
    Datalog.Stratify.limit_error_to_string ~pred ~rule

let check p =
  match Datalog.Stratify.stratify p with
  | Datalog.Stratify.Stratified strat -> Ok strat
  | Datalog.Stratify.Not_stratifiable { offending } ->
    Error (Not_stratifiable { offending })
  | Datalog.Stratify.Not_limit_stratifiable { pred; rule } ->
    Error (Not_limit_stratifiable { pred; rule })

let walk ~cache ~stats ~keep p (strat : Datalog.Stratify.stratification) db =
  let full = Idb.of_program p in
  let universe = Relalg.Database.universe db in
  let limits =
    List.map
      (fun (l : Datalog.Ast.limit) -> (l.limit_pred, (l.kind, l.column)))
      p.Datalog.Ast.limits
  in
  let layer (s, accumulated) stratum =
    let preds = List.filter keep stratum in
    if preds = [] then (s + 1, accumulated)
    else begin
      let rules =
        List.filter
          (fun (r : Datalog.Ast.rule) -> List.mem r.head.pred preds)
          p.Datalog.Ast.rules
      in
      let schema =
        List.fold_left
          (fun acc name ->
            Schema.add name (Schema.arity_exn name (Idb.schema full)) acc)
          Schema.empty preds
      in
      (* Lower strata are frozen into the base source. *)
      let trace =
        Saturate.run ~cache ~limits ?stats
          ~label:(Printf.sprintf "stratum %d" s)
          ~rules ~schema ~universe
          ~base:(Engine.layered db accumulated)
          ~neg:`Current ~init:(Idb.empty schema) ()
      in
      (s + 1, Idb.union accumulated trace.result)
    end
  in
  snd (List.fold_left layer (0, full) strat.strata)

let eval ?cache ?stats p db =
  (* One structurally-keyed cache across all strata: plans for a rule are
     compiled once even though each stratum passes its own rule list. *)
  let cache =
    match cache with Some c -> c | None -> Planlib.Cache.create ()
  in
  Result.map
    (fun strat -> walk ~cache ~stats ~keep:(fun _ -> true) p strat db)
    (check p)

let eval_exn ?cache ?stats p db =
  match eval ?cache ?stats p db with
  | Ok idb -> idb
  | Error e -> invalid_arg ("Stratified.eval: " ^ error_to_string e)
