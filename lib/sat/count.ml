module ISet = Set.Make (Int)

exception Conflict

(* Assign literal [l] true: drop satisfied clauses, shrink the others.
   @raise Conflict when an empty clause appears. *)
let assign l clauses =
  List.filter_map
    (fun clause ->
      if List.mem l clause then None
      else
        match List.filter (fun l' -> l' <> -l) clause with
        | [] -> raise Conflict
        | smaller -> Some smaller)
    clauses

(* Exhaustive unit propagation; returns the simplified clauses and the set
   of variables that got forced. *)
let rec propagate clauses forced =
  match List.find_opt (fun c -> List.length c = 1) clauses with
  | None -> (clauses, forced)
  | Some [ l ] -> propagate (assign l clauses) (ISet.add (abs l) forced)
  | Some _ -> assert false

(* A component's clauses, as the merges built it: the clause that made
   the component, then the components it merged, latest first. *)
type merge = Merge of int list * merge list

let preorder tree =
  let rec go acc = function
    | [] -> List.rev acc
    | Merge (c, merged) :: rest -> go (c :: acc) (merged @ rest)
  in
  go [] [ tree ]

(* Union-find over variable ids (union by size, path halving).  Each
   clause merges the components its variables touch into one, whose merge
   tree lists them latest first; the tree's preorder is the component's
   clause list.  Sorting the touched components costs O(k log k) for a
   clause that touches k of them; the rest is near-linear in the
   literals. *)
let components clauses =
  let clauses = Array.of_list clauses in
  let top =
    Array.fold_left (List.fold_left (fun m l -> max m (abs l))) 0 clauses
  in
  let parent = Array.init (top + 1) Fun.id in
  let size = Array.make (top + 1) 1 in
  let rec find v =
    let p = parent.(v) in
    if p = v then v
    else begin
      let g = parent.(p) in
      parent.(v) <- g;
      find g
    end
  in
  let union a b =
    let a = find a and b = find b in
    if a <> b then begin
      let a, b = if size.(a) < size.(b) then (b, a) else (a, b) in
      parent.(b) <- a;
      size.(a) <- size.(a) + size.(b)
    end
  in
  (* The component of a root: the index of its last clause and its merge
     tree.  Entries of roots that later lost a union go stale. *)
  let group = Array.make (top + 1) None in
  let seen = Array.make (top + 1) (-1) in
  let empties = ref [] in
  Array.iteri
    (fun i c ->
      match c with
      | [] -> empties := (i, [ [] ], ISet.empty) :: !empties
      | l :: _ ->
        let touched =
          List.fold_left
            (fun acc l ->
              let r = find (abs l) in
              if seen.(r) = i then acc
              else begin
                seen.(r) <- i;
                match group.(r) with
                | Some g -> g :: acc
                | None -> acc
              end)
            [] c
        in
        let latest_first =
          List.sort (fun (a, _) (b, _) -> Int.compare b a) touched
        in
        List.iter (fun l' -> union (abs l) (abs l')) c;
        group.(find (abs l)) <- Some (i, Merge (c, List.map snd latest_first)))
    clauses;
  (* A variable is its own root when it first occurs, so [seen] marks
     exactly the variables that occur. *)
  let vars = Array.make (top + 1) [] in
  for v = top downto 1 do
    if seen.(v) >= 0 then begin
      let r = find v in
      vars.(r) <- v :: vars.(r)
    end
  done;
  let live = ref !empties in
  for r = 1 to top do
    match group.(r) with
    | Some (last, tree) when parent.(r) = r ->
      live := (last, preorder tree, ISet.of_list vars.(r)) :: !live
    | _ -> ()
  done;
  List.map
    (fun (_, cs, vs) -> (cs, vs))
    (List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a) !live)

(* Counts saturate: [max_int] stands for "[max_int] or more" and absorbs
   every sum and product it enters, except a product with 0. *)
let add a b = if a > max_int - b then max_int else a + b

let mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let pow2 n =
  if n < 0 then invalid_arg "Count.pow2"
  else if n >= Sys.int_size - 1 then max_int
  else 1 lsl n

type partial = {
  value : int;
  exact : bool;
}

let to_outcome = function
  | { value; _ } when value = max_int ->
    Outcome.Lower_bound (max_int, Outcome.Count_overflow)
  | { value; exact = true } -> Outcome.Exact value
  | { value; exact = false } -> Outcome.Lower_bound (value, Outcome.Node_budget)

(* Budgeted DPLL count.  Exhaustion never discards completed work: a
   subtree the budget cannot afford contributes 0 (a sound lower bound)
   and flips [exact] off, while fully counted siblings — earlier branch
   sides, earlier components — keep their exact contribution.  Branch sums
   and component products combine values and AND exactness; an exact 0
   absorbs a product (the formula is unsatisfiable there no matter what
   the unexplored part would have said). *)
let count_nonempty ~budget clauses vars =
  let nodes = ref 0 in
  let exhausted = ref false in
  let rec go clauses vars =
    if !exhausted then { value = 0; exact = false }
    else begin
      incr nodes;
      if !nodes > budget then begin
        exhausted := true;
        Sat_stats.budget_exhausted ();
        { value = 0; exact = false }
      end
      else
        match propagate clauses ISet.empty with
        | exception Conflict -> { value = 0; exact = true }
        | clauses, forced ->
          let vars = ISet.diff vars forced in
          if clauses = [] then
            { value = pow2 (ISet.cardinal vars); exact = true }
          else begin
            let comps = components clauses in
            let constrained =
              List.fold_left
                (fun acc (_, vs) -> ISet.union acc vs)
                ISet.empty comps
            in
            let free = ISet.cardinal (ISet.diff vars constrained) in
            let product =
              List.fold_left
                (fun acc (cs, vs) ->
                  if acc.value = 0 then acc
                  else begin
                    (* Branch on some variable of the component. *)
                    let v = ISet.min_elt vs in
                    let vs' = ISet.remove v vs in
                    let pos =
                      match assign v cs with
                      | exception Conflict -> { value = 0; exact = true }
                      | cs' -> go cs' vs'
                    in
                    let neg =
                      match assign (-v) cs with
                      | exception Conflict -> { value = 0; exact = true }
                      | cs' -> go cs' vs'
                    in
                    {
                      value = mul acc.value (add pos.value neg.value);
                      exact = acc.exact && pos.exact && neg.exact;
                    }
                  end)
                { value = 1; exact = true }
                comps
            in
            { product with value = mul product.value (pow2 free) }
          end
    end
  in
  go clauses vars

(* An empty clause can only occur in the input — [assign] raises [Conflict]
   rather than ever producing one — so one up-front check keeps the
   recursion free of it (a clause with no variables would otherwise confuse
   the component split). *)
let count_clauses ~budget clauses vars =
  if List.mem [] clauses then { value = 0; exact = true }
  else count_nonempty ~budget clauses vars

let count_limited ~budget cnf =
  let clauses = Cnf.clauses cnf in
  let vars = ISet.of_list (List.init (Cnf.num_vars cnf) (fun i -> i + 1)) in
  to_outcome (count_clauses ~budget clauses vars)

let count cnf =
  match count_limited ~budget:max_int cnf with
  | Outcome.Exact n -> n
  | Outcome.Lower_bound _ ->
    (* No node budget: only a saturated count gets here. *)
    invalid_arg "Count.count: the count exceeds the integer range"
