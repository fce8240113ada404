module SSet = Set.Make (String)

type rewritten = {
  program : Ast.program;
  answer_pred : string;
  seed_pred : string;
  adornment : string;
}

let bound_constants (a : Ast.atom) =
  List.filter_map
    (function Ast.Const c -> Some c | Ast.Var _ -> None)
    a.Ast.args

(* Adornment of an atom given the currently bound variables: constants and
   bound variables are 'b', the rest 'f'. *)
let adorn bound (a : Ast.atom) =
  String.init (List.length a.Ast.args) (fun i ->
      match List.nth a.Ast.args i with
      | Ast.Const _ -> 'b'
      | Ast.Var x -> if SSet.mem x bound then 'b' else 'f')

let bound_args adornment args =
  List.filteri (fun i _ -> adornment.[i] = 'b') args

let term_vars = function
  | Ast.Var x -> [ x ]
  | Ast.Const _ -> []

let atom_vars (a : Ast.atom) = List.concat_map term_vars a.Ast.args

let rewrite (p : Ast.program) ~(query : Ast.atom) =
  let idb = Ast.idb_predicates p in
  if not (Ast.is_positive p) then
    Error "magic sets: the program must be positive (no negation, no !=)"
  else if not (List.mem query.Ast.pred idb) then
    Error
      (Printf.sprintf "magic sets: %s is not an IDB predicate" query.Ast.pred)
  else
    match Ast.inferred_schema p with
    | Error msg -> Error ("magic sets: " ^ msg)
    | Ok schema
      when Relalg.Schema.arity_exn query.Ast.pred schema
           <> List.length query.Ast.args ->
      Error
        (Printf.sprintf "magic sets: %s expects %d arguments, query has %d"
           query.Ast.pred
           (Relalg.Schema.arity_exn query.Ast.pred schema)
           (List.length query.Ast.args))
    | Ok _ ->
      (* Name mangling, kept collision-free against existing predicates. *)
      let all_preds = Ast.predicates p in
      let mangle base =
        let rec free candidate =
          if List.mem candidate all_preds then free (candidate ^ "_m")
          else candidate
        in
        free base
      in
      let adorned_name pred sigma = mangle (pred ^ "_" ^ sigma) in
      let magic_name pred sigma = mangle ("magic_" ^ pred ^ "_" ^ sigma) in
      let rewritten_rules = ref [] in
      let emitted = Hashtbl.create 8 in
      (* Worklist of (idb predicate, adornment) pairs to process. *)
      let pending = Queue.create () in
      let require pred sigma =
        if not (Hashtbl.mem emitted (pred, sigma)) then begin
          Hashtbl.add emitted (pred, sigma) ();
          Queue.add (pred, sigma) pending
        end
      in
      let query_sigma = adorn SSet.empty query in
      require query.Ast.pred query_sigma;
      while not (Queue.is_empty pending) do
        let pred, sigma = Queue.pop pending in
        let rules =
          List.filter (fun (r : Ast.rule) -> r.Ast.head.Ast.pred = pred) p.Ast.rules
        in
        List.iter
          (fun (r : Ast.rule) ->
            (* Bound head variables seed the sideways information passing. *)
            let head_bound =
              List.mapi (fun i t -> (i, t)) r.Ast.head.Ast.args
              |> List.concat_map (fun (i, t) ->
                     if sigma.[i] = 'b' then term_vars t else [])
            in
            let magic_guard =
              Ast.Pos
                (Ast.atom (magic_name pred sigma)
                   (bound_args sigma r.Ast.head.Ast.args))
            in
            (* Walk the body left to right, adorning IDB atoms, emitting
               magic rules, and accumulating bound variables. *)
            let bound = ref (SSet.of_list head_bound) in
            let prefix = ref [ magic_guard ] in
            let new_body =
              List.map
                (fun lit ->
                  match lit with
                  | Ast.Pos a when List.mem a.Ast.pred idb ->
                    let tau = adorn !bound a in
                    require a.Ast.pred tau;
                    (* Magic rule: the bindings flowing into this subgoal. *)
                    let magic_head =
                      Ast.atom (magic_name a.Ast.pred tau)
                        (bound_args tau a.Ast.args)
                    in
                    rewritten_rules :=
                      Ast.rule magic_head (List.rev !prefix)
                      :: !rewritten_rules;
                    let adorned =
                      Ast.Pos (Ast.atom (adorned_name a.Ast.pred tau) a.Ast.args)
                    in
                    bound := SSet.union !bound (SSet.of_list (atom_vars a));
                    prefix := adorned :: !prefix;
                    adorned
                  | Ast.Pos a ->
                    bound := SSet.union !bound (SSet.of_list (atom_vars a));
                    prefix := lit :: !prefix;
                    lit
                  | Ast.Eq (t1, t2) ->
                    (* An equality binds the other side once one side is
                       bound. *)
                    let vs1 = term_vars t1 and vs2 = term_vars t2 in
                    let side_bound ts =
                      ts = [] || List.for_all (fun v -> SSet.mem v !bound) ts
                    in
                    if side_bound vs1 || side_bound vs2 then
                      bound := SSet.union !bound (SSet.of_list (vs1 @ vs2));
                    prefix := lit :: !prefix;
                    lit
                  | Ast.Neg _ | Ast.Neq _ | Ast.Leq _ | Ast.Geq _
                  | Ast.Plus _ ->
                    (* Unreachable: positivity was checked (and positive
                       programs have no order comparisons or additions). *)
                    assert false)
                r.Ast.body
            in
            let head' = Ast.atom (adorned_name pred sigma) r.Ast.head.Ast.args in
            rewritten_rules :=
              Ast.rule head' (magic_guard :: new_body) :: !rewritten_rules)
          rules
      done;
      (* Seed: the query's own bindings. *)
      let seed_pred = magic_name query.Ast.pred query_sigma in
      let seed =
        Ast.rule
          (Ast.atom seed_pred
             (List.map
                (fun c -> Ast.Const c)
                (bound_constants query)))
          []
      in
      Ok
        {
          program = Ast.program (seed :: List.rev !rewritten_rules);
          answer_pred = adorned_name query.Ast.pred query_sigma;
          seed_pred;
          adornment = query_sigma;
        }

let rewrite_exn p ~query =
  match rewrite p ~query with
  | Ok r -> r
  | Error msg -> invalid_arg ("Magic.rewrite: " ^ msg)
