let least_fixpoint ?cache ?stats p db =
  if not (Datalog.Ast.is_positive p) then
    invalid_arg
      "Naive.least_fixpoint: the program uses negation or inequality; use \
       the inflationary, stratified or well-founded semantics instead";
  Inflationary.eval ?cache ?stats p db
