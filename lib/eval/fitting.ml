type model = {
  true_facts : Idb.t;
  possible : Idb.t;
}

let unknown m = Idb.diff m.possible m.true_facts

let is_total m = Idb.is_empty (unknown m)

let holds idb (a : Ground.gatom) =
  Idb.mem idb a.Ground.pred
  && Relalg.Relation.mem a.Ground.tuple (Idb.get idb a.Ground.pred)

let eval_ground g =
  let schema = Idb.schema (Ground.to_idb g []) in
  let all = Ground.to_idb g (Ground.atoms g) in
  let step (t, p) =
    List.fold_left
      (fun (t', p') (gr : Ground.grule) ->
        let head = gr.Ground.head in
        let surely =
          List.for_all (holds t) gr.Ground.pos
          && not (List.exists (holds p) gr.Ground.neg)
        in
        let possibly =
          List.for_all (holds p) gr.Ground.pos
          && not (List.exists (holds t) gr.Ground.neg)
        in
        ( (if surely then Idb.add_fact t' head.Ground.pred head.Ground.tuple
           else t'),
          if possibly then Idb.add_fact p' head.Ground.pred head.Ground.tuple
          else p' ))
      (Idb.empty schema, Idb.empty schema)
      (Ground.rules g)
  in
  (* Knowledge-order iteration from (empty, everything): T climbs, P
     descends; both are bounded, so this terminates. *)
  let rec iterate t p =
    let t', p' = step (t, p) in
    if Idb.equal t t' && Idb.equal p p' then { true_facts = t; possible = p }
    else iterate t' p'
  in
  iterate (Idb.empty schema) all

let eval ?cache p db = eval_ground (Ground.ground ?cache p db)
