module Ast = Datalog.Ast

type fact = string * string list

module Facts = Set.Make (struct
  type t = fact

  let compare = compare
end)

type db = {
  universe : string list;
  edb : Facts.t;
}

(* Facts of (predicate, relation) bindings — a database's relations, or an
   engine valuation's. *)
let facts_of_bindings bindings =
  let name = Relalg.Symbol.name in
  List.fold_left
    (fun acc (pred, rel) ->
      List.fold_left
        (fun acc t -> Facts.add (pred, List.map name (Relalg.Tuple.to_list t)) acc)
        acc
        (Relalg.Relation.to_list rel))
    Facts.empty bindings

let of_database d =
  {
    universe = List.map Relalg.Symbol.name (Relalg.Database.universe d);
    edb = facts_of_bindings (Relalg.Database.relations d);
  }

let unsupported what =
  invalid_arg (Printf.sprintf "Reference: %s is outside the reference" what)

let check_supported (p : Ast.program) =
  if p.limits <> [] then unsupported "a limit declaration"

let idb_of (p : Ast.program) =
  List.sort_uniq String.compare
    (List.map (fun (r : Ast.rule) -> r.head.pred) p.rules)

(* Every assignment of [vars] to elements of [universe]. *)
let rec assignments universe = function
  | [] -> [ [] ]
  | v :: vs ->
    let rest = assignments universe vs in
    List.concat_map (fun c -> List.map (fun a -> (v, c) :: a) rest) universe

let value sigma = function
  | Ast.Var v -> List.assoc v sigma
  | Ast.Const c -> Relalg.Symbol.name c

let ground sigma (a : Ast.atom) : fact = (a.pred, List.map (value sigma) a.args)

(* Whether a ground body literal holds when positive IDB atoms are read in
   [pos] and negated ones in [neg]: one set for the two-valued Theta,
   Fitting's two bounds for Kripke-Kleene. *)
let holds ~idb d ~pos ~neg sigma literal =
  let mem s ((pred, _) as f) =
    if List.mem pred idb then Facts.mem f s else Facts.mem f d.edb
  in
  match literal with
  | Ast.Pos a -> mem pos (ground sigma a)
  | Ast.Neg a -> not (mem neg (ground sigma a))
  | Ast.Eq (t1, t2) -> String.equal (value sigma t1) (value sigma t2)
  | Ast.Neq (t1, t2) -> not (String.equal (value sigma t1) (value sigma t2))
  | Ast.Leq _ | Ast.Geq _ -> unsupported "an order comparison"
  | Ast.Plus _ -> unsupported "an addition"

(* The heads of the ground instances of [rules] whose bodies hold. *)
let heads ~idb rules d ~pos ~neg =
  List.fold_left
    (fun acc (r : Ast.rule) ->
      List.fold_left
        (fun acc sigma ->
          if List.for_all (holds ~idb d ~pos ~neg sigma) r.body then
            Facts.add (ground sigma r.head) acc
          else acc)
        acc
        (assignments d.universe (Ast.rule_variables r)))
    Facts.empty rules

(* Theta restricted to [rules]. *)
let theta_of ~idb rules d s = heads ~idb rules d ~pos:s ~neg:s

let theta p d s =
  check_supported p;
  theta_of ~idb:(idb_of p) p.rules d s

(* Iterates [step] from [s] until it returns its argument. *)
let rec limit step s =
  let s' = step s in
  if Facts.equal s s' then s else limit step s'

let inflationary p d =
  check_supported p;
  let idb = idb_of p in
  limit (fun s -> Facts.union s (theta_of ~idb p.rules d s)) Facts.empty

(* The least level assignment, or [None] when some level reaches the number
   of IDB predicates — only a cycle through negation pushes it that far. *)
let levels (p : Ast.program) idb =
  let level = Hashtbl.create 16 in
  let get q = Option.value ~default:0 (Hashtbl.find_opt level q) in
  let rec settle () =
    let changed = ref false in
    List.iter
      (fun (r : Ast.rule) ->
        let need =
          List.fold_left
            (fun m -> function
              | Ast.Pos a when List.mem a.pred idb -> max m (get a.pred)
              | Ast.Neg a when List.mem a.pred idb -> max m (get a.pred + 1)
              | _ -> m)
            0 r.body
        in
        if need > get r.head.pred then begin
          Hashtbl.replace level r.head.pred need;
          changed := true
        end)
      p.rules;
    if List.exists (fun q -> get q >= List.length idb) idb then None
    else if !changed then settle ()
    else Some get
  in
  settle ()

let stratified p d =
  check_supported p;
  let idb = idb_of p in
  match levels p idb with
  | None -> None
  | Some level ->
    let top = List.fold_left (fun m q -> max m (level q)) 0 idb in
    (* A stratum's rules negate only lower strata, which are fixed by now,
       so its Theta is monotone: iterate it up from the lower strata to its
       least fixpoint. *)
    let rec stratum k lower =
      if k > top then lower
      else
        let rules =
          List.filter (fun (r : Ast.rule) -> level r.head.pred = k) p.rules
        in
        let step s = Facts.union lower (theta_of ~idb rules d s) in
        stratum (k + 1) (limit step lower)
    in
    Some (stratum 0 Facts.empty)

(* Every atom of a head predicate over the universe, at its head arity. *)
let herbrand_base (p : Ast.program) d =
  let rec tuples n =
    if n = 0 then [ [] ]
    else
      List.concat_map (fun c -> List.map (fun t -> c :: t) (tuples (n - 1)))
        d.universe
  in
  List.fold_left
    (fun acc (r : Ast.rule) ->
      List.fold_left
        (fun acc args -> Facts.add (r.head.pred, args) acc)
        acc
        (tuples (List.length r.head.args)))
    Facts.empty p.rules

let kripke_kleene p d =
  check_supported p;
  let idb = idb_of p in
  (* Fitting's operator on (true, possible): a head is true when some
     instance's positive atoms are true and its negated atoms impossible,
     possible when some instance's positive atoms are possible and its
     negated atoms not true.  From (nothing, everything) it only gains
     knowledge, so the iteration stops at its least fixpoint. *)
  let rec iterate t q =
    let t' = heads ~idb p.rules d ~pos:t ~neg:q in
    let q' = heads ~idb p.rules d ~pos:q ~neg:t in
    if Facts.equal t t' && Facts.equal q q' then (t, q) else iterate t' q'
  in
  iterate Facts.empty (herbrand_base p d)
