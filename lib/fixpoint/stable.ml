module Ground = Evallib.Ground
module Idb = Evallib.Idb

let reduct_least_fixpoint g s =
  Ground.idb_of_valuation g
    (Ground.supported g ~t:(Ground.valuation g s) ~f:(Ground.empty_valuation g))

let is_stable g s = Idb.equal (reduct_least_fixpoint g s) s

let stable_models ?limit solver =
  (* Stable implies supported, and the supported models are exactly the
     SAT-enumerated fixpoints; filter those for stability.  The limit
     applies to the stable models returned. *)
  let g = Solve.ground solver in
  let stable = List.filter (is_stable g) (Solve.enumerate solver) in
  match limit with
  | None -> stable
  | Some l -> List.filteri (fun i _ -> i < l) stable

let has_stable_model solver = stable_models ~limit:1 solver <> []

let count_stable ?limit solver = List.length (stable_models ?limit solver)
