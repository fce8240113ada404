(* The greatest unfounded set w.r.t. (T, F), over ids: the program atoms
   without a non-circular line of support. *)
let unfounded g ~t ~f =
  let s = Ground.supported g ~t ~f in
  List.filter (fun a -> not s.(a)) (List.init (Ground.atom_count g) succ)

let greatest_unfounded_set g ~true_facts ~false_facts =
  List.map (Ground.atom g)
    (unfounded g ~t:(Ground.valuation g true_facts)
       ~f:(Ground.valuation g false_facts))

let eval_ground g =
  let rec iterate t f =
    (* Immediate consequences w.r.t. (T, F): negated subgoals must be in
       F, so they are read in its complement. *)
    let t' = Ground.consequences g ~pos:t ~neg:(Array.map not f) in
    Array.iteri (fun a b -> if b then t'.(a) <- true) t;
    let f' = Array.copy f in
    List.iter (fun a -> f'.(a) <- true) (unfounded g ~t ~f);
    if Ground.same_atoms g t t' && Ground.same_atoms g f f' then (t, f)
    else iterate t' f'
  in
  let t, f = iterate (Ground.empty_valuation g) (Ground.empty_valuation g) in
  {
    Wellfounded.true_facts = Ground.idb_of_valuation g t;
    possible = Ground.idb_of_valuation g (Array.map not f);
  }

let eval p db = eval_ground (Ground.ground p db)
