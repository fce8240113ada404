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

(* --- Fixpoints by brute force ------------------------------------------ *)

(* The reference's own grounding: every assignment of each rule's
   variables whose database literals and (in)equalities hold, with its
   IDB atoms kept. *)
type instance = {
  ihead : fact;
  ipos : fact list;
  ineg : fact list;
}

let grounding p d =
  let idb = idb_of p in
  let is_idb (a : Ast.atom) = List.mem a.pred idb in
  List.concat_map
    (fun (r : Ast.rule) ->
      List.filter_map
        (fun sigma ->
          let decided =
            List.filter
              (function Ast.Pos a | Ast.Neg a -> not (is_idb a) | _ -> true)
              r.body
          in
          if
            List.for_all
              (holds ~idb d ~pos:Facts.empty ~neg:Facts.empty sigma)
              decided
          then
            let atoms f =
              List.filter_map
                (fun l -> Option.map (ground sigma) (f l))
                r.body
            in
            Some
              {
                ihead = ground sigma r.head;
                ipos = atoms (function Ast.Pos a when is_idb a -> Some a | _ -> None);
                ineg = atoms (function Ast.Neg a when is_idb a -> Some a | _ -> None);
              }
          else None)
        (assignments d.universe (Ast.rule_variables r)))
    p.rules

let well_founded p d =
  check_supported p;
  let instances = grounding p d in
  (* Van Gelder's A(S): the least fixpoint of the instances with every
     negated atom read in S.  A is antimonotone, so from U = {} the
     alternation U := A(O), O := A(U) climbs in U and descends in O. *)
  let a s =
    limit
      (fun x ->
        List.fold_left
          (fun acc i ->
            if
              List.for_all (fun f -> Facts.mem f x) i.ipos
              && not (List.exists (fun f -> Facts.mem f s) i.ineg)
            then Facts.add i.ihead acc
            else acc)
          Facts.empty instances)
      Facts.empty
  in
  let rec alternate under over =
    let under' = a over in
    let over' = a under' in
    if Facts.equal under under' && Facts.equal over over' then (under, over)
    else alternate under' over'
  in
  alternate Facts.empty (a Facts.empty)

(* A fixpoint S holds only heads of instances, and Theta(S) reads S only
   at the IDB atoms that some body mentions: so S = Theta(G) for
   G = S restricted to those atoms, and S is a fixpoint iff Theta(G)
   restricted to them is G.  The guesses are the heads that bodies
   mention. *)
let guessed instances =
  let heads = Facts.of_list (List.map (fun i -> i.ihead) instances) in
  let read =
    List.fold_left
      (fun acc i -> Facts.union acc (Facts.of_list (i.ipos @ i.ineg)))
      Facts.empty instances
  in
  Facts.elements (Facts.inter heads read)

let fixpoint_search_size p d =
  check_supported p;
  List.length (guessed (grounding p d))

let fixpoints p d =
  check_supported p;
  let instances = grounding p d in
  let guesses = Array.of_list (guessed instances) in
  let k = Array.length guesses in
  if k > 20 then unsupported "a fixpoint search over more than 2^20 guesses";
  let bit f =
    let rec find i =
      if i >= k then None
      else if guesses.(i) = f then Some i
      else find (i + 1)
    in
    find 0
  in
  (* Each instance as bit masks over the guesses: a positive atom outside
     them is false in every guess, a negated one true. *)
  let masked =
    List.filter_map
      (fun i ->
        let mask atoms =
          List.fold_left
            (fun acc f ->
              match (acc, bit f) with
              | Some m, Some b -> Some (m lor (1 lsl b))
              | _ -> None)
            (Some 0) atoms
        in
        let neg =
          List.fold_left
            (fun m f -> match bit f with Some b -> m lor (1 lsl b) | None -> m)
            0 i.ineg
        in
        Option.map
          (fun pos ->
            let head = match bit i.ihead with Some b -> 1 lsl b | None -> 0 in
            (pos, neg, head, i.ihead))
          (mask i.ipos))
      instances
  in
  let fires g (pos, neg, _, _) = pos land lnot g = 0 && neg land g = 0 in
  let fixpoints = ref [] in
  for g = (1 lsl k) - 1 downto 0 do
    let derived =
      List.fold_left
        (fun acc ((_, _, b, _) as i) -> if fires g i then acc lor b else acc)
        0 masked
    in
    if derived = g then begin
      let s =
        List.fold_left
          (fun acc ((_, _, _, h) as i) -> if fires g i then Facts.add h acc else acc)
          Facts.empty masked
      in
      (* The definition has the last word. *)
      if Facts.equal (theta p d s) s then fixpoints := s :: !fixpoints
      else invalid_arg "Reference.fixpoints: a guess is not a fixpoint of theta"
    end
  done;
  !fixpoints

(* --- The CNF component split ----------------------------------------------- *)

module Vars = Set.Make (Int)

let clause_vars c = Vars.of_list (List.map abs c)

(* Each clause is checked against every existing group, and the groups it
   touches are merged by re-concatenating their clause lists: quadratic,
   and the order-defining original. *)
let components clauses =
  let groups : (int list list * Vars.t) list ref = ref [] in
  List.iter
    (fun clause ->
      let cv = clause_vars clause in
      let touching, rest =
        List.partition
          (fun (_, vars) -> not (Vars.is_empty (Vars.inter cv vars)))
          !groups
      in
      let merged_clauses = clause :: List.concat_map fst touching in
      let merged_vars =
        List.fold_left (fun acc (_, vs) -> Vars.union acc vs) cv touching
      in
      groups := (merged_clauses, merged_vars) :: rest)
    clauses;
  List.map (fun (cs, vs) -> (cs, Vars.elements vs)) !groups
