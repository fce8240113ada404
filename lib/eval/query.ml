module Relation = Relalg.Relation
module Tuple = Relalg.Tuple

(* Does [tuple] match the query atom?  Constants must coincide and a
   repeated variable must bind consistently — the query s(X, X) selects the
   diagonal, not the whole relation.  Arity-guarded: a length disagreement
   is [false], never a bare [Invalid_argument] out of [List.for_all2]
   (callers reject mismatched arities up front with a proper [Error]). *)
let matches_query (query : Datalog.Ast.atom) tuple =
  Tuple.arity tuple = List.length query.Datalog.Ast.args
  &&
  let rec go env i = function
    | [] -> true
    | Datalog.Ast.Const c :: rest ->
      Relalg.Symbol.equal c (Tuple.get tuple i) && go env (i + 1) rest
    | Datalog.Ast.Var v :: rest -> (
      let value = Tuple.get tuple i in
      match List.assoc_opt v env with
      | Some bound -> Relalg.Symbol.equal bound value && go env (i + 1) rest
      | None -> go ((v, value) :: env) (i + 1) rest)
  in
  go [] 0 query.Datalog.Ast.args

let select rel ~query =
  let want = List.length query.Datalog.Ast.args in
  let got = Relation.arity rel in
  if want <> got then
    Error
      (Printf.sprintf
         "query atom %s/%d does not match the stored relation %s/%d"
         query.Datalog.Ast.pred want query.Datalog.Ast.pred got)
  else
    (* A point read costs its answer: the first constant argument narrows
       the relation through its column index before the full match. *)
    let rec first_const i = function
      | [] -> rel
      | Datalog.Ast.Const c :: _ -> Relation.select_eq i c rel
      | Datalog.Ast.Var _ :: rest -> first_const (i + 1) rest
    in
    Ok
      (Relation.filter (matches_query query)
         (first_const 0 query.Datalog.Ast.args))

let answer ?engine ?stats p db ~query =
  match Datalog.Magic.rewrite p ~query with
  | Error _ as e -> e
  | Ok rewritten ->
    let result =
      Naive.least_fixpoint ?engine ?stats
        rewritten.Datalog.Magic.program db
    in
    let full =
      if Idb.mem result rewritten.Datalog.Magic.answer_pred then
        Idb.get result rewritten.Datalog.Magic.answer_pred
      else Relation.empty (List.length query.Datalog.Ast.args)
    in
    (* The adorned predicate may also hold answers for other bindings that
       arose recursively; keep only the query's own.  [select] re-checks
       the arity against the materialised answer relation, so a malformed
       query surfaces as [Error] instead of a [List.for_all2] crash. *)
    select full ~query

let answer_exn ?engine ?stats p db ~query =
  match answer ?engine ?stats p db ~query with
  | Ok r -> r
  | Error msg -> invalid_arg ("Query.answer: " ^ msg)

let holds p db ~query =
  if List.exists
       (function Datalog.Ast.Var _ -> true | Datalog.Ast.Const _ -> false)
       query.Datalog.Ast.args
  then Error "Query.holds: the query atom must be ground"
  else
    match answer p db ~query with
    | Error _ as e -> e
    | Ok r -> Ok (not (Relation.is_empty r))
