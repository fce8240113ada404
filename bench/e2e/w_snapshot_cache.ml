(* snapshot_cache: [negdl eval -s stratified --snapshot FILE] used as a
   model cache.  op1 is a miss (cold: no file, so parse, evaluate, capture
   and write the snapshot), op2 a hit (warm: parse, read, check, digest the
   EDB and restore).  The Store and the snapshot codec are exercised for
   writing on one side and for reading on the other.  The database is many
   components, each its own small random graph. *)

open Negdl

let name = "snapshot_cache"

let components = 200

let size = 16

let reach_program =
  "r(X, Y) :- e(X, Y).\n\
   r(X, Y) :- e(X, Z), r(Z, Y).\n\
   reached(Y) :- r(X, Y).\n\
   unreached(X) :- v(X), !reached(X).\n"

(* The vertex renaming of [seed]: it moves component [c] (the vertices
   [c * size] to [c * size + size - 1]) to another slot and permutes the
   vertices within it. *)
let renaming ~seed ~components ~size =
  let rng = Prng.create seed in
  let slot = Array.of_list (Prng.shuffle rng (List.init components Fun.id)) in
  let perm =
    Array.init components (fun _ -> Array.of_list (Prng.shuffle rng (List.init size Fun.id)))
  in
  fun v -> (slot.(v / size) * size) + perm.(v / size).(v mod size)

(* The edges of [components] vertex-disjoint random graphs on [size]
   vertices each, with average out-degree 1.8: one fixed draw. *)
let base_edges ~components ~size =
  List.concat
    (List.init components (fun c ->
         let g =
           Generate.random ~seed:(Harness.subseed 1 c) ~n:size ~p:(1.8 /. float_of_int size)
         in
         List.map (fun (u, v) -> ((c * size) + u, (c * size) + v)) (Digraph.edges g)))

(* The base graphs renamed by a seed's [renaming], plus a [v] fact for every
   vertex: every seed yields a model of the same size and shape, and so the
   same work, under other names. *)
let components_db ~rename ~components ~size =
  let edges =
    List.map (fun (u, v) -> (rename u, rename v)) (base_edges ~components ~size)
  in
  let g = Digraph.make (components * size) edges in
  List.fold_left
    (fun db i -> Database.add_fact "v" (Tuple.singleton (Digraph.vertex_symbol i)) db)
    (Digraph.to_database g) (Digraph.vertices g)

let run (ctx : Harness.ctx) =
  let program = Harness.write_input ctx "reach.dl" reach_program in
  let facts = Filename.concat ctx.work "reach.facts" in
  let snap = Filename.concat ctx.work "model.snap" in
  let cold_digest = ref "" in
  (* A hit must restore exactly the model the last miss computed. *)
  let check (o : Harness.outcome) =
    if not o.ok then o
    else if o.kind = "op1" then begin
      cold_digest := o.digest;
      o
    end
    else if o.digest = !cold_digest then o
    else { o with ok = false; failed = 1; msg = "warm model differs from the cold one" }
  in
  (* Rounds 2j and 2j+1 share a renaming: the second runs the hit first,
     which needs the first's snapshot of the same database. *)
  Harness.rounds ctx ~check ~round:(fun i ->
      if i mod 2 = 0 then begin
        let rename = renaming ~seed:(Harness.subseed ctx.seed (i / 2)) ~components ~size in
        ignore
          (Harness.write_input ctx "reach.facts"
             (Harness.facts_text (components_db ~rename ~components ~size)))
      end;
      [
        ( "op1",
          fun () ->
            if Sys.file_exists snap then Sys.remove snap;
            [ name; "cold"; program; facts; snap ] );
        ("op2", fun () -> [ name; "warm"; program; facts; snap ]);
      ])

let child = function
  | [ expect; program_file; facts_file; snap ] ->
    Cli.defaults ();
    Harness.Child.ready ();
    Harness.Child.op_begin ();
    let program = Cli.load_program program_file in
    let db = Cli.load_database facts_file in
    let model, restored = Cli.eval_with_snapshot program db snap in
    Harness.Child.op_end ();
    Harness.Child.digest (Harness.model_digest model);
    Harness.Child.check
      (restored = (expect = "warm"))
      (if restored then "a miss found a fresh snapshot" else "a hit re-evaluated")
  | _ -> Harness.Child.die "usage: snapshot_cache cold|warm PROGRAM FACTS SNAPSHOT"

(* File size and rows come from the misses, which write the file; the
   per-child mean would halve them. *)
let layer_metrics ~get outcomes =
  let misses = List.filter (fun (o : Harness.outcome) -> o.kind = "op1") (Harness.traced outcomes) in
  let per_miss name =
    Harness.mean (List.map (fun o -> float_of_int (Harness.counter o name)) misses)
  in
  [
    ("snapshot.file_bytes", per_miss "snapshot.file_bytes");
    ("snapshot.rows", per_miss "snapshot.rows");
    ("snapshot.bytes_per_tuple", Harness.ratio (get "snapshot.file_bytes") (get "snapshot.rows"));
  ]
