type model = {
  true_facts : Idb.t;
  possible : Idb.t;
}

let unknown m = Idb.diff m.possible m.true_facts

let is_total m = Idb.is_empty (unknown m)

(* The operator A on the block of [rules], whose heads are [schema]: the
   least fixpoint with negated block atoms read from [s] and every other
   predicate from [base]. *)
let reduct ~cache ~stats ~rules ~schema ~base db s =
  let fixed = { Engine.find = (fun pred _arity -> Idb.get s pred) } in
  (Saturate.run ~cache ?stats ~rules ~schema
     ~universe:(Relalg.Database.universe db)
     ~base ~neg:(`Frozen fixed) ~init:(Idb.empty schema) ())
    .Saturate.result

let reduct_fixpoint ?(cache = Planlib.Cache.create ()) ?stats p db s =
  reduct ~cache ~stats ~rules:p.Datalog.Ast.rules
    ~schema:(Idb.schema (Idb.of_program p))
    ~base:(Engine.database_source db) db s

let eval ?cache ?stats p db =
  let p = { p with Datalog.Ast.limits = [] } in
  (* One cache across the walk and every application of A: the alternating
     fixpoint re-saturates the same rules many times, and the plans carry
     over. *)
  let cache =
    match cache with Some c -> c | None -> Planlib.Cache.create ()
  in
  let { Datalog.Stratify.layers; tainted } = Datalog.Stratify.split p in
  let walked =
    Stratified.walk ~cache ~stats ~keep:(fun q -> not (tainted q)) p layers db
  in
  match
    List.filter (fun (r : Datalog.Ast.rule) -> tainted r.head.pred) p.rules
  with
  | [] -> { true_facts = walked; possible = walked }
  | rules ->
    Stats.timed stats "well-founded" @@ fun () ->
    let schema =
      Relalg.Schema.to_list (Idb.schema walked)
      |> List.filter (fun (q, _) -> tainted q)
      |> Relalg.Schema.of_list
    in
    let a =
      reduct ~cache ~stats ~rules ~schema ~base:(Engine.layered db walked) db
    in
    let rec alternate under over =
      let under' = a over in
      let over' = a under' in
      if Idb.equal under under' && Idb.equal over over' then
        {
          true_facts = Idb.union walked under';
          possible = Idb.union walked over';
        }
      else alternate under' over'
    in
    let empty = Idb.empty schema in
    alternate empty (a empty)
