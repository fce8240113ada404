module Schema = Relalg.Schema
module Relation = Relalg.Relation
module Plan = Planlib.Plan

type engine = [ `Naive | `Seminaive | `Parallel ]

type trace = {
  result : Idb.t;
  deltas : Idb.t list;
}

let stages t = List.length t.deltas

let stage_of t pred tuple =
  let rec find n = function
    | [] -> None
    | d :: rest ->
      if Idb.mem d pred && Relalg.Relation.mem tuple (Idb.get d pred) then
        Some n
      else find (n + 1) rest
  in
  find 1 t.deltas

let make_resolver ~schema ~base ~neg ~current ~delta_occ ~delta
    (occ : Engine.occurrence) =
  if Schema.mem occ.pred schema then
    match occ.polarity with
    | `Neg -> (
      match neg with
      | `Current -> { Engine.find = (fun p _a -> Idb.get current p) }
      | `Frozen src -> src)
    | `Pos -> (
      match delta_occ with
      | Some j when occ.index = j ->
        { Engine.find = (fun p _a -> Idb.get delta p) }
      | _ -> { Engine.find = (fun p _a -> Idb.get current p) })
  else base

(* Positive body occurrences of evolving predicates, as literal indices. *)
let delta_positions ~schema (rule : Datalog.Ast.rule) =
  List.mapi (fun i l -> (i, l)) rule.body
  |> List.filter_map (fun (i, l) ->
         match l with
         | Datalog.Ast.Pos a when Schema.mem a.pred schema -> Some i
         | _ -> None)

(* One rule application, packaged so an iteration's applications can run
   in order, fanned whole across the domain pool, or individually sharded
   over it.  Each task carries its own statistics shard; shards are merged
   at the iteration barrier, which keeps the counters exact without
   cross-domain contention.  Plans are fetched (and, on a miss, compiled)
   here — in the coordinator, before any fan-out — because the plan cache
   is not synchronised; the tasks then only execute. *)
type task = {
  shard : Stats.t option;
  head : string;
  plan : Plan.t;
  resolver : Engine.resolver;
}

let rule_tasks ~cache ~limits ~stats ~universe spec =
  let universe_size = List.length universe in
  List.map
    (fun ((rule : Datalog.Ast.rule), variant, resolver) ->
      let shard = Option.map (fun _ -> Stats.create ()) stats in
      let plan =
        Engine.plan_rule ~cache ~variant ~limits ?stats:shard
          ~universe_size ~resolver rule
      in
      { shard; head = rule.head.pred; plan; resolver })
    spec

(* Runs one iteration's tasks and merges the per-task IDB fragments (and
   statistics shards).  Rules within one Theta application are independent —
   they all read the same immutable [current]/[delta] valuations — so the
   fan-out is sound.

   Under [parallel], the axis of parallelism is picked per stage: when the
   stage has at least as many runnable applications as pool participants,
   whole tasks fan across the pool (each saturates one domain); when it has
   fewer — the single-heavy-recursive-rule regime, where rule fan-out
   degenerates to sequential execution — each task instead runs morsel-
   sharded {e within} the pool ({!Engine.run_plan_sharded}). *)
let run_tasks ~parallel ~pool ~stats ~schema ~universe tasks =
  let seq t =
    Engine.run_plan ?stats:t.shard ~universe ~resolver:t.resolver t.plan
  in
  let sharded t =
    Engine.run_plan_sharded ?stats:t.shard ~pool ~universe
      ~resolver:t.resolver t.plan
  in
  let results =
    match tasks with
    | [] -> []
    | _ when not parallel -> List.map seq tasks
    | _ ->
      let participants = Negdl_util.Domain_pool.size pool + 1 in
      (* [max participants 2]: on a pool of size 0 a lone task still takes
         the sharded path (which then runs inline), so par=1 measures the
         sharding tax honestly instead of silently reverting. *)
      if List.length tasks < max participants 2 then
        List.map sharded tasks
      else (
        match tasks with
        | [ t ] -> [ seq t ]
        | _ ->
          Negdl_util.Domain_pool.run pool
            (List.map (fun t () -> seq t) tasks))
  in
  (match stats with
  | Some s ->
    List.iter
      (fun t -> Option.iter (fun sh -> Stats.merge_into s ~src:sh) t.shard)
      tasks
  | None -> ());
  List.fold_left2
    (fun acc t derived ->
      let old =
        if Idb.mem acc t.head then Idb.get acc t.head
        else Relation.empty (Relation.arity derived)
      in
      Idb.set acc t.head (Relation.union old derived))
    (Idb.empty schema) tasks results

let full_application ~parallel ~pool ~cache ~limits ~stats ~rules
    ~schema ~universe ~base ~neg ~current =
  let resolver =
    make_resolver ~schema ~base ~neg ~current ~delta_occ:None ~delta:current
  in
  run_tasks ~parallel ~pool ~stats ~schema ~universe
    (rule_tasks ~cache ~limits ~stats ~universe
       (List.map (fun r -> (r, Plan.Full, resolver)) rules))

let delta_application ~parallel ~pool ~cache ~limits ~stats ~rules
    ~schema ~universe ~base ~neg ~current ~delta =
  let spec =
    List.concat_map
      (fun rule ->
        List.map
          (fun j ->
            ( rule,
              Plan.Delta j,
              make_resolver ~schema ~base ~neg ~current ~delta_occ:(Some j)
                ~delta ))
          (delta_positions ~schema rule))
      rules
  in
  run_tasks ~parallel ~pool ~stats ~schema ~universe
    (rule_tasks ~cache ~limits ~stats ~universe spec)

(* The semi-naive delta chase shared by [run] (after its full stage 1) and
   [run_delta] (seeded directly): iterate delta applications until no fresh
   tuple appears.  [init] must already contain [delta]. *)
let seminaive_chase ~parallel ~pool ~cache ~limits ~stats ~rules
    ~schema ~universe ~base ~neg ~bump_iteration ~init ~delta =
  let rec loop current delta rev_deltas =
    bump_iteration ();
    let derived =
      delta_application ~parallel ~pool ~cache ~limits ~stats ~rules
        ~schema ~universe ~base ~neg ~current ~delta
    in
    (* The limit-aware union: candidates for a declared limit relation
       land only when they improve their group's bound, and [fresh] is the
       changed-group delta.  Without limits this is diff-then-union. *)
    let next, fresh = Idb.tighten_union ~limits current derived in
    if Idb.is_empty fresh then
      { result = current; deltas = List.rev rev_deltas }
    else loop next fresh (fresh :: rev_deltas)
  in
  loop init delta []

let apply_once ?(parallel = false) ?pool ?cache ?(limits = []) ?stats
    ~rules ~schema ~universe ~base ~neg ~current () =
  let pool =
    match pool with Some p -> p | None -> Negdl_util.Domain_pool.default ()
  in
  let cache =
    match cache with Some c -> c | None -> Planlib.Cache.create ()
  in
  full_application ~parallel ~pool ~cache ~limits ~stats ~rules
    ~schema ~universe ~base ~neg ~current

let run ?(engine = `Seminaive) ?cache ?(limits = []) ?stats ?pool
    ?label ~rules ~schema ~universe ~base ~neg ~init () =
  (match label with
  | Some l -> Stats.timed stats l
  | None -> fun f -> f ())
  @@ fun () ->
  (* One cache per saturation when the caller doesn't share a longer-lived
     one: plans are then still reused across all iterations of this run. *)
  let cache =
    match cache with Some c -> c | None -> Planlib.Cache.create ()
  in
  let pool =
    match pool with Some p -> p | None -> Negdl_util.Domain_pool.default ()
  in
  let bump_iteration () =
    match stats with
    | Some s -> s.Stats.iterations <- s.Stats.iterations + 1
    | None -> ()
  in
  match engine with
  | `Naive ->
    let rec loop current rev_deltas =
      bump_iteration ();
      let derived =
        full_application ~parallel:false ~pool ~cache ~limits ~stats
          ~rules ~schema ~universe ~base ~neg ~current
      in
      let next, delta = Idb.tighten_union ~limits current derived in
      if Idb.is_empty delta then
        { result = current; deltas = List.rev rev_deltas }
      else loop next (delta :: rev_deltas)
    in
    loop init []
  | (`Seminaive | `Parallel) as e ->
    (* Stage 1 applies every rule in full; later stages only chase the
       previous stage's delta through positive evolving literals.  Under
       [`Parallel] each stage's applications either fan whole across the
       domain pool or — when the stage has fewer runnable applications
       than participants — run morsel-sharded within it (see
       {!run_tasks}); both merge at the stage barrier. *)
    let parallel = e = `Parallel in
    bump_iteration ();
    let derived =
      full_application ~parallel ~pool ~cache ~limits ~stats ~rules
        ~schema ~universe ~base ~neg ~current:init
    in
    let init1, delta1 = Idb.tighten_union ~limits init derived in
    if Idb.is_empty delta1 then { result = init; deltas = [] }
    else
      let t =
        seminaive_chase ~parallel ~pool ~cache ~limits ~stats ~rules
          ~schema ~universe ~base ~neg ~bump_iteration ~init:init1
          ~delta:delta1
      in
      { t with deltas = delta1 :: t.deltas }

let run_delta ?(engine = `Seminaive) ?cache ?(limits = []) ?stats
    ?pool ?label ~rules ~schema ~universe ~base ~neg ~init ~delta () =
  (match label with
  | Some l -> Stats.timed stats l
  | None -> fun f -> f ())
  @@ fun () ->
  if Idb.is_empty delta then { result = init; deltas = [] }
  else begin
    let cache =
      match cache with Some c -> c | None -> Planlib.Cache.create ()
    in
    let pool =
      match pool with Some p -> p | None -> Negdl_util.Domain_pool.default ()
    in
    let bump_iteration () =
      match stats with
      | Some s -> s.Stats.iterations <- s.Stats.iterations + 1
      | None -> ()
    in
    (* The delta chase is the whole run: no full stage 1.  [`Naive] has no
       delta-specialized form, so it rides the semi-naive chase too — the
       computed limit is the same. *)
    let parallel = engine = `Parallel in
    seminaive_chase ~parallel ~pool ~cache ~limits ~stats ~rules
      ~schema ~universe ~base ~neg ~bump_iteration ~init ~delta
  end
