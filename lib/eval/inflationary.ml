let idb_schema_exn p =
  match Datalog.Ast.idb_schema p with
  | Ok s -> s
  | Error msg -> invalid_arg ("Inflationary: " ^ msg)

let eval_trace ?cache ?stats p db =
  let schema = idb_schema_exn p in
  Saturate.run ?cache ?stats ~label:"inflationary"
    ~rules:p.Datalog.Ast.rules ~schema
    ~universe:(Relalg.Database.universe db)
    ~base:(Engine.database_source db) ~neg:`Current ~init:(Idb.empty schema)
    ()

let eval ?cache ?stats p db = (eval_trace ?cache ?stats p db).result

let carrier p ~carrier db =
  let result = eval p db in
  if not (Idb.mem result carrier) then
    invalid_arg
      (Printf.sprintf "Inflationary.carrier: %s is not an IDB predicate"
         carrier)
  else Idb.get result carrier
