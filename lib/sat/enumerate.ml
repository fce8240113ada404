let blocking_clause projection model =
  List.map (fun v -> if model.(v) then -v else v) projection

(* Solve, hand the model to [f], block it on [projection], repeat: until
   UNSAT or [limit] models.  An empty projection blocks everything with
   its one (empty) clause, so the first model is also the last. *)
let fold_models ?projection ?limit cnf f init =
  let projection =
    match projection with
    | Some vs -> vs
    | None -> List.init (Cnf.num_vars cnf) (fun i -> i + 1)
  in
  let session = Solver.session cnf in
  let rec loop acc found =
    let capped =
      match limit with
      | Some l -> found >= l
      | None -> false
    in
    if capped then acc
    else
      match Solver.solve_assuming session [] with
      | Solver.Unsat -> acc
      | Solver.Sat model ->
        let acc = f acc model in
        let block = blocking_clause projection model in
        if block = [] then acc
        else begin
          Solver.add_clause session block;
          loop acc (found + 1)
        end
  in
  loop init 0

let models ?projection ?limit cnf =
  List.rev (fold_models ?projection ?limit cnf (fun acc m -> m :: acc) [])

let count ?projection ?limit cnf =
  fold_models ?projection ?limit cnf (fun n _ -> n + 1) 0

let is_unique ?projection cnf =
  count ?projection ~limit:2 cnf = 1

let forced_true cnf vars =
  let session = Solver.session cnf in
  match Solver.solve_assuming session [] with
  | Solver.Unsat -> None
  | Solver.Sat first ->
    (* v is forced iff cnf /\ -v is unsatisfiable; skip the assumption call
       when the current model already witnesses v = false. *)
    Some
      (List.filter
         (fun v ->
           first.(v)
           &&
           match Solver.solve_assuming session [ -v ] with
           | Solver.Unsat -> true
           | Solver.Sat _ -> false)
         vars)
