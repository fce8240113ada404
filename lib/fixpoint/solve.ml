module Ground = Evallib.Ground
module Idb = Evallib.Idb
module Cnf = Satlib.Cnf
module Solver = Satlib.Solver
module Count = Satlib.Count
module Enumerate = Satlib.Enumerate
module Outcome = Satlib.Outcome
module Sat_stats = Satlib.Sat_stats
module ISet = Satlib.Count.ISet

type t = {
  program : Datalog.Ast.program;
  db : Relalg.Database.t;
  ground : Ground.t;
  encoding : Encode.t;
}

let prepare ?planner:(_ : Planlib.Plan.planner option) ?plan_cache program
    db =
  let ground = Ground.ground ?cache:plan_cache program db in
  { program; db; ground; encoding = Encode.build ground }

let ground t = t.ground

let atom_count t = Ground.atom_count t.ground

let exists t = Solver.is_satisfiable (Encode.cnf t.encoding)

let exists_outcome ?conflict_budget ?time_budget t =
  Solver.solve_outcome ?conflict_budget ?time_budget (Encode.cnf t.encoding)

let find t =
  match Solver.solve (Encode.cnf t.encoding) with
  | Solver.Unsat -> None
  | Solver.Sat model -> Some (Encode.idb_of_model t.encoding model)

let find_outcome ?conflict_budget ?time_budget t =
  match
    Solver.solve_outcome ?conflict_budget ?time_budget (Encode.cnf t.encoding)
  with
  | Outcome.Sat model -> `Found (Encode.idb_of_model t.encoding model)
  | Outcome.Unsat -> `No_fixpoint
  | Outcome.Unknown r -> `Unknown r

(* --- component census ---------------------------------------------------- *)

(* The encoding's CNF falls apart into connected components exactly when
   the ground program does (the paper's G_n: one component per cycle).
   Fixpoints then factor: every combination of per-component models is a
   model, so the census is a product and the enumeration a cross-product.
   Only the atom variables matter for the result ([idb_of_model] ignores
   the instance auxiliaries), so components are recombined by overlaying
   their projected values. *)

(* [f] on every component, in component order: it gets the component's
   atom variables (the projection it is enumerated on) and its own CNF
   over all the variables. *)
let on_components t comps f =
  let atom_vars = Encode.atom_variables t.encoding in
  let nvars = Cnf.num_vars (Encode.cnf t.encoding) in
  List.map
    (fun (cs, vs) ->
      Sat_stats.component_counted ();
      f (List.filter (fun v -> ISet.mem v vs) atom_vars) (Cnf.of_list nvars cs))
    comps

(* Atom variables no clause constrains: each doubles the census. *)
let free_atoms t comps =
  let constrained =
    List.fold_left (fun acc (_, vs) -> ISet.union acc vs) ISet.empty comps
  in
  List.filter
    (fun v -> not (ISet.mem v constrained))
    (Encode.atom_variables t.encoding)

let flat_enumerate ?limit t =
  Enumerate.models
    ~projection:(Encode.atom_variables t.encoding)
    ?limit (Encode.cnf t.encoding)
  |> List.map (Encode.idb_of_model t.encoding)

let take limit l =
  match limit with
  | None -> l
  | Some n ->
    let rec go n = function
      | x :: rest when n > 0 -> x :: go (n - 1) rest
      | _ -> []
    in
    go n l

let enumerate ?limit t =
  let cnf = Encode.cnf t.encoding in
  match Count.components (Cnf.clauses cnf) with
  | [] | [ _ ] ->
    (* Nothing to decompose (plus: keeps the flat enumeration order for
       single-component instances). *)
    flat_enumerate ?limit t
  | comps ->
    let nvars = Cnf.num_vars cnf in
    let per_component =
      on_components t comps (fun projection sub ->
          (projection, Enumerate.models ~projection ?limit sub))
    in
    let free_choices =
      List.map
        (fun v ->
          let tt = Array.make (nvars + 1) false in
          tt.(v) <- true;
          ([ v ], [ Array.make (nvars + 1) false; tt ]))
        (free_atoms t comps)
    in
    let overlay base (projection, m) =
      let merged = Array.copy base in
      List.iter (fun v -> merged.(v) <- m.(v)) projection;
      merged
    in
    let combos =
      List.fold_left
        (fun acc (projection, ms) ->
          take limit
            (List.concat_map
               (fun base ->
                 List.map (fun m -> overlay base (projection, m)) ms)
               acc))
        [ Array.make (nvars + 1) false ]
        (per_component @ free_choices)
    in
    List.map (Encode.idb_of_model t.encoding) combos

let count_exact ?(budget = 2_000_000) t =
  let cnf = Encode.cnf t.encoding in
  let nvars = Cnf.num_vars cnf in
  let all_vars = ISet.of_list (List.init nvars (fun i -> i + 1)) in
  let comps = Count.components (Cnf.clauses cnf) in
  match comps with
  | [] -> Count.to_outcome { value = Count.pow2 nvars; exact = true }
  | [ _ ] -> Count.count_limited ~budget cnf
  | comps ->
    let constrained =
      List.fold_left (fun acc (_, vs) -> ISet.union acc vs) ISet.empty comps
    in
    let free = ISet.cardinal (ISet.diff all_vars constrained) in
    let per_comp_budget = max 1 (budget / List.length comps) in
    let parts =
      List.map
        (fun (cs, vs) ->
          Sat_stats.component_counted ();
          Count.count_clauses ~budget:per_comp_budget cs vs)
        comps
    in
    (* An exact zero absorbs the product no matter what the unexplored
       parts would have said. *)
    let exact_zero =
      List.exists (fun (p : Count.partial) -> p.value = 0 && p.exact) parts
    in
    let value =
      List.fold_left (fun a (p : Count.partial) -> Count.mul a p.value) 1 parts
    in
    let exact =
      exact_zero || List.for_all (fun (p : Count.partial) -> p.exact) parts
    in
    let value = if exact_zero then 0 else Count.mul value (Count.pow2 free) in
    Count.to_outcome { value; exact }

(* The same census as [List.length (enumerate ?limit t)], without the
   cross-product.  Without a limit it is the exact count, one model count
   per component instead of one solver call per model: the encoding's
   auxiliaries are functions of its atom variables, so its models are the
   fixpoints.  With one, min(limit, product of the component counts), each
   count itself enumerated up to [limit], and the running product capped
   after every step so that it cannot overflow. *)
let count ?limit t =
  match limit with
  | None -> (
    match count_exact ~budget:max_int t with
    | Outcome.Exact n | Outcome.Lower_bound (n, _) -> n)
  | Some cap -> (
    let cnf = Encode.cnf t.encoding in
    match Count.components (Cnf.clauses cnf) with
    | [] | [ _ ] ->
      Enumerate.count ~projection:(Encode.atom_variables t.encoding) ?limit cnf
    | comps ->
      let counts =
        on_components t comps (fun projection sub ->
            Enumerate.count ~projection ?limit sub)
      in
      let free = Count.pow2 (List.length (free_atoms t comps)) in
      List.fold_left
        (fun acc c -> min cap (Count.mul acc c))
        (min cap free) counts)

let has_unique t =
  Enumerate.is_unique
    ~projection:(Encode.atom_variables t.encoding)
    (Encode.cnf t.encoding)

let forced_true t =
  Enumerate.forced_true (Encode.cnf t.encoding)
    (Encode.atom_variables t.encoding)

let intersection t =
  Option.map (Encode.idb_of_true_vars t.encoding) (forced_true t)

let least t =
  match forced_true t with
  | None -> None
  | Some vars ->
    let g = t.ground in
    let v = Ground.empty_valuation g in
    List.iter (fun x -> v.(x) <- true) vars;
    if Ground.same_atoms g (Ground.consequences g ~pos:v ~neg:v) v then
      Some (Encode.idb_of_true_vars t.encoding vars)
    else None

let minimal t =
  let session = Solver.session (Encode.cnf t.encoding) in
  let atom_vars = Encode.atom_variables t.encoding in
  match Solver.solve_assuming session [] with
  | Solver.Unsat -> None
  | Solver.Sat model ->
    (* Shrink: demand a model strictly below the current one until UNSAT.
       The narrowing clauses accumulate monotonically, so one incremental
       session serves the whole descent. *)
    let rec shrink model =
      let true_vars = List.filter (fun v -> model.(v)) atom_vars in
      let false_vars = List.filter (fun v -> not model.(v)) atom_vars in
      List.iter (fun v -> Solver.add_clause session [ -v ]) false_vars;
      Solver.add_clause session (List.map (fun v -> -v) true_vars);
      match Solver.solve_assuming session [] with
      | Solver.Unsat -> model
      | Solver.Sat smaller -> shrink smaller
    in
    Some (Encode.idb_of_model t.encoding (shrink model))
