(* eval_distance: [negdl eval] of the Prop 2 distance program, the paper's
   own separating example.  op1 reads it under the inflationary semantics
   (the distance query), op2 under the stratified one (TC and not TC), on
   the same graph.  The 4-ary carrier puts nearly all the time in
   evaluation: plan execution, index maintenance, Store interning and bulk
   builds.  The graph is one fixed G(n, p) draw whose vertices each round
   renames by a permutation from the run's seed: every operation does the
   same work, so a run's latency does not hinge on which graphs it drew. *)

open Negdl

let name = "eval_distance"

let n = 20

let p = 2.0 /. float_of_int n

let base = lazy (Generate.random ~seed:1 ~n ~p)

let graph seed =
  let perm = Array.of_list (Prng.shuffle (Prng.create seed) (List.init n Fun.id)) in
  Digraph.make n
    (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Digraph.edges (Lazy.force base)))

let run (ctx : Harness.ctx) =
  let program =
    Harness.write_input ctx "distance.dl" (Pretty.program_to_string Distance.program)
  in
  Harness.rounds ctx ~check:Fun.id ~round:(fun i ->
      let seed = Harness.subseed ctx.seed i in
      let facts =
        Harness.write_input ctx "distance.facts"
          (Harness.facts_text (Digraph.to_database (graph seed)))
      in
      let op sem () = [ name; sem; program; facts; string_of_int seed ] in
      [ ("op1", op "inflationary"); ("op2", op "stratified") ])

(* The carrier must hold exactly the quads the definition admits.  The
   predicates are [Distance.reference]'s and [Distance.reference_stratified]'s,
   over a precomputed distance (or reachability) matrix; counting plus
   membership avoids building the reference relation tuple by tuple. *)
let admits semantics g =
  let n = Digraph.vertex_count g in
  match semantics with
  | Semantics_inflationary ->
    let d = Array.init n (fun x -> Array.init n (fun y -> Traverse.positive_distance g x y)) in
    fun x y x' y' ->
      (match (d.(x).(y), d.(x').(y')) with
      | None, _ -> false
      | Some _, None -> true
      | Some a, Some b -> a <= b)
  | _ ->
    let tc = Traverse.transitive_closure g in
    let r = Array.init n (fun x -> Array.init n (fun y -> Digraph.has_edge tc x y)) in
    fun x y x' y' -> r.(x).(y) && not r.(x').(y')

let matches_definition semantics g carrier =
  let n = Digraph.vertex_count g in
  let admits = admits semantics g in
  let sym = Array.init n (fun i -> Digraph.vertex_symbol i) in
  let count = ref 0 and ok = ref true in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      for x' = 0 to n - 1 do
        for y' = 0 to n - 1 do
          if admits x y x' y' then begin
            incr count;
            if not (Relation.mem (Tuple.make [| sym.(x); sym.(y); sym.(x'); sym.(y') |]) carrier)
            then ok := false
          end
        done
      done
    done
  done;
  !ok && !count = Relation.cardinal carrier

let child = function
  | [ sem; program_file; facts_file; seed ] ->
    let semantics =
      if sem = "inflationary" then Semantics_inflationary else Semantics_stratified
    in
    Cli.defaults ();
    Harness.Child.ready ();
    Harness.Child.op_begin ();
    let program = Cli.load_program program_file in
    let db = Cli.load_database facts_file in
    let result = Cli.run semantics program db in
    Harness.Child.op_end ();
    Harness.Child.check
      (matches_definition semantics (graph (int_of_string seed))
         (Idb.get result.facts Distance.carrier))
      (sem ^ " carrier differs from the distance-query definition")
  | _ -> Harness.Child.die "usage: eval_distance SEMANTICS PROGRAM FACTS SEED"

let layer_metrics ~get:_ _ = []
