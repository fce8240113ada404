type stratification = {
  strata : string list list;
  stratum_of : string -> int option;
}

type result =
  | Stratified of stratification
  | Not_stratifiable of { offending : string * string }
  | Not_limit_stratifiable of { pred : string; rule : Ast.rule }

type split = {
  layers : stratification;
  tainted : string -> bool;
}

(* One pass over the components of the dependency graph.  Tarjan's
   numbering is reverse topological (an edge cu -> cv between distinct
   components has cv < cu), so visiting the components in increasing order
   sees every dependency first.  A component's layer is the max over its
   out-edges of the target's layer, plus one across a negative or aggregate
   edge; edges inside a component are ignored.  EDB-only components sit at
   layer 0, and IDB components start there as well.  A component is tainted
   when a negative edge lies inside it or one of its out-edges reaches a
   tainted component.  Returns the split with the first negative and the
   first aggregate edge that lies inside a component, if any: either one
   defeats stratification. *)
let analyse (p : Ast.program) =
  let dep = Depgraph.build p in
  let digraph, names = Depgraph.graph dep in
  let { Graphlib.Scc.count; component } = Graphlib.Scc.compute digraph in
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  let comp name = component.(Hashtbl.find index name) in
  let negative = Depgraph.negative_edges dep in
  let aggregate = Depgraph.aggregate_edges dep in
  let strict = Hashtbl.create 16 in
  let tainted = Array.make count false in
  List.iter
    (fun (u, v) ->
      let cu = comp u and cv = comp v in
      if cu = cv then tainted.(cu) <- true
      else Hashtbl.replace strict (cu, cv) ())
    negative;
  List.iter
    (fun (u, v, _) -> Hashtbl.replace strict (comp u, comp v) ())
    aggregate;
  let out = Array.make count [] in
  List.iter
    (fun (u, v) ->
      let cu = component.(u) and cv = component.(v) in
      if cu <> cv then out.(cu) <- cv :: out.(cu))
    (Graphlib.Digraph.edges digraph);
  let layer = Array.make count 0 in
  for c = 0 to count - 1 do
    List.iter
      (fun cv ->
        let step = if Hashtbl.mem strict (c, cv) then 1 else 0 in
        layer.(c) <- max layer.(c) (layer.(cv) + step);
        if tainted.(cv) then tainted.(c) <- true)
      out.(c)
  done;
  let idb = Ast.idb_predicates p in
  let idb_layer = Hashtbl.create 16 in
  List.iter (fun name -> Hashtbl.replace idb_layer name layer.(comp name)) idb;
  let top =
    List.fold_left (fun acc name -> max acc (Hashtbl.find idb_layer name)) 0 idb
  in
  let strata = Array.make (top + 1) [] in
  List.iter
    (fun name ->
      let s = Hashtbl.find idb_layer name in
      strata.(s) <- name :: strata.(s))
    (List.rev idb);
  let split =
    {
      layers =
        {
          strata = Array.to_list strata;
          stratum_of = Hashtbl.find_opt idb_layer;
        };
      tainted =
        (fun name -> Hashtbl.mem idb_layer name && tainted.(comp name));
    }
  in
  ( split,
    List.find_opt (fun (u, v) -> comp u = comp v) negative,
    List.find_opt (fun (u, v, _) -> comp u = comp v) aggregate )

let split p =
  let split, _, _ = analyse p in
  split

let stratify p =
  (* The limit-stratification side condition: a malign (non-monotone) use
     of a limit predicate's bound inside the component computing that bound
     defeats stratification just like negation would — the offending rule
     is reported by name. *)
  match analyse p with
  | _, Some offending, _ -> Not_stratifiable { offending }
  | _, None, Some (_, pred, rule) -> Not_limit_stratifiable { pred; rule }
  | split, None, None -> Stratified split.layers

let limit_error_to_string ~pred ~(rule : Ast.rule) =
  Printf.sprintf
    "not limit-stratifiable: rule \"%s\" uses the bound of limit predicate \
     %s non-monotonically inside the recursive component that computes it"
    (Pretty.rule_to_string rule) pred

let is_stratified p =
  match stratify p with
  | Stratified _ -> true
  | Not_stratifiable _ | Not_limit_stratifiable _ -> false

let rules_of_stratum (p : Ast.program) strat s =
  List.filter
    (fun (r : Ast.rule) -> strat.stratum_of r.head.pred = Some s)
    p.Ast.rules
