type model = {
  true_facts : Idb.t;
  possible : Idb.t;
}

let unknown m = Idb.diff m.possible m.true_facts

let is_total m = Idb.is_empty (unknown m)

let eval_ground g =
  (* Knowledge-order iteration from (empty, everything): T climbs, P
     descends; both are bounded, so this terminates.  An instance surely
     fires when its positive subgoals are in T and no negated one is in P,
     and possibly fires the other way round. *)
  let rec iterate t p =
    let t' = Ground.consequences g ~pos:t ~neg:p in
    let p' = Ground.consequences g ~pos:p ~neg:t in
    if Ground.same_atoms g t t' && Ground.same_atoms g p p' then
      {
        true_facts = Ground.idb_of_valuation g t;
        possible = Ground.idb_of_valuation g p;
      }
    else iterate t' p'
  in
  let everything = Ground.empty_valuation g in
  Array.fill everything 1 (Ground.atom_count g) true;
  iterate (Ground.empty_valuation g) everything

let eval ?cache p db = eval_ground (Ground.ground ?cache p db)
