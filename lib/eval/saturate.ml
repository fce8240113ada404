module Schema = Relalg.Schema
module Relation = Relalg.Relation
module Plan = Planlib.Plan

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

(* One iteration's rule applications: each plan is fetched (and, on a
   miss, compiled) first, then every plan runs against the same immutable
   [current]/[delta] valuations, counting into [stats], and the derived
   relations are unioned per head predicate. *)
let apply_rules ~cache ~limits ~stats ~schema ~universe spec =
  let universe_size () = List.length universe in
  let tasks =
    List.map
      (fun ((rule : Datalog.Ast.rule), variant, resolver) ->
        ( rule.head.pred,
          Engine.plan_rule ~cache ~variant ~limits ?stats ~universe_size
            ~resolver rule,
          resolver ))
      spec
  in
  List.fold_left
    (fun acc (head, plan, resolver) ->
      let derived = Engine.run_plan ?stats ~universe ~resolver plan in
      let old =
        if Idb.mem acc head then Idb.get acc head
        else Relation.empty (Relation.arity derived)
      in
      Idb.set acc head (Relation.union old derived))
    (Idb.empty schema) tasks

let full_application ~cache ~limits ~stats ~rules ~schema ~universe ~base
    ~neg ~current =
  let resolver =
    make_resolver ~schema ~base ~neg ~current ~delta_occ:None ~delta:current
  in
  apply_rules ~cache ~limits ~stats ~schema ~universe
    (List.map (fun r -> (r, Plan.Full, resolver)) rules)

let delta_application ~cache ~limits ~stats ~rules ~schema ~universe ~base
    ~neg ~current ~delta =
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
  apply_rules ~cache ~limits ~stats ~schema ~universe spec

let bump_iteration stats =
  match stats with
  | Some s -> s.Stats.iterations <- s.Stats.iterations + 1
  | None -> ()

(* The semi-naive delta chase shared by [run] (after its full stage 1) and
   [run_delta] (seeded directly): iterate delta applications until no fresh
   tuple appears.  [init] must already contain [delta]. *)
let seminaive_chase ~cache ~limits ~stats ~rules ~schema ~universe ~base
    ~neg ~init ~delta =
  let rec loop current delta rev_deltas =
    bump_iteration stats;
    let derived =
      delta_application ~cache ~limits ~stats ~rules ~schema ~universe ~base
        ~neg ~current ~delta
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

let timed_run ~stats ~label f =
  match label with Some l -> Stats.timed stats l f | None -> f ()

let run ?cache ?(limits = []) ?stats ?label ~rules ~schema ~universe ~base
    ~neg ~init () =
  timed_run ~stats ~label @@ fun () ->
  (* One cache per saturation when the caller doesn't share a longer-lived
     one: plans are then still reused across all iterations of this run. *)
  let cache =
    match cache with Some c -> c | None -> Planlib.Cache.create ()
  in
  (* Stage 1 applies every rule in full; later stages only chase the
     previous stage's delta through positive evolving literals. *)
  bump_iteration stats;
  let derived =
    full_application ~cache ~limits ~stats ~rules ~schema ~universe ~base
      ~neg ~current:init
  in
  let init1, delta1 = Idb.tighten_union ~limits init derived in
  if Idb.is_empty delta1 then { result = init; deltas = [] }
  else
    let t =
      seminaive_chase ~cache ~limits ~stats ~rules ~schema ~universe ~base
        ~neg ~init:init1 ~delta:delta1
    in
    { t with deltas = delta1 :: t.deltas }

let run_delta ?cache ?(limits = []) ?stats ?label ~rules ~schema ~universe
    ~base ~neg ~init ~delta () =
  timed_run ~stats ~label @@ fun () ->
  if Idb.is_empty delta then { result = init; deltas = [] }
  else
    let cache =
      match cache with Some c -> c | None -> Planlib.Cache.create ()
    in
    (* The delta chase is the whole run: no full stage 1. *)
    seminaive_chase ~cache ~limits ~stats ~rules ~schema ~universe ~base ~neg
      ~init ~delta
