module Ast = Datalog.Ast
module Parser = Datalog.Parser
module Relation = Relalg.Relation
module Tuple = Relalg.Tuple
module Database = Relalg.Database
module Plan = Planlib.Plan
module Snapfile = Snapshotlib.Snapshot

(* The semantics tag stored in (and demanded of) snapshot files: the serve
   layer materialises the stratified model only. *)
let semantics = "stratified"

type update_report = {
  inserted : int;
  deleted : int;
  overdeleted : int;
  rederived : int;
}

type counters = {
  batches : int;
  inserted : int;
  deleted : int;
  overdeleted : int;
  rederived : int;
  queries : int;
  cache_hits : int;
  cache_misses : int;
}

type t = {
  program : Ast.program;
  stats : Stats.t;
  cache : Planlib.Cache.t;  (** Compiled plans shared across all batches. *)
  mutable db : Database.t;
  mutable idb : Idb.t;
  mutable version : int;
      (** Bumped on every applied update; query-cache entries are valid
          only for the version they were computed at. *)
  query_cache : (string, int * Relation.t) Hashtbl.t;
  mutable c : counters;
}

let zero_counters =
  {
    batches = 0;
    inserted = 0;
    deleted = 0;
    overdeleted = 0;
    rederived = 0;
    queries = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

let create ?engine:(_ : [ `Seminaive ] option)
    ?planner:(_ : Plan.planner option) ?indexing:(_ : Engine.indexing option)
    ?storage:(_ : Relation.storage option) ?grain:(_ : Engine.grain option)
    ?stats program db =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let cache = Planlib.Cache.create () in
  match Datalog.Check.validate_database program db with
  | Error e -> Error (Datalog.Check.error_to_string e)
  | Ok () -> (
    match Stratified.eval ~cache ~stats program db with
    | Error e -> Error (Stratified.error_to_string e)
    | Ok idb ->
      Ok
        {
          program;
          stats;
          cache;
          db;
          idb;
          version = 0;
          query_cache = Hashtbl.create 64;
          c = zero_counters;
        })

let database t = t.db
let snapshot t = t.idb
let version t = t.version
let counters t = t.c
let stats t = t.stats

(* --- snapshots ---------------------------------------------------------- *)

let snapshot_to t path =
  (* Pin the published immutable pair once: the writer streams from it
     while the update loop keeps installing new versions. *)
  let db = t.db and idb = t.idb in
  match
    Snapfile.capture ~program:t.program ~semantics ~db (Idb.bindings idb)
  with
  | Error e -> Error (Snapfile.error_to_string e)
  | Ok image -> (
    match Snapfile.write_file path image with
    | Error e -> Error (Snapfile.error_to_string e)
    | Ok bytes -> Ok bytes)

(* Model reconstruction shared by [restore_from] and [create_restored]:
   fails closed (program/semantics fingerprints, two-valuedness, schema
   arities) before anything is installed. *)
let model_of_image program image =
  match Snapfile.check_program image ~program ~semantics with
  | Error e -> Error (Snapfile.error_to_string e)
  | Ok () -> (
    match Snapfile.restore image with
    | Error e -> Error (Snapfile.error_to_string e)
    | Ok r ->
      if r.Snapfile.r_unknown <> [] then
        Error "snapshot holds a three-valued model; serve is two-valued"
      else (
        match
          List.fold_left
            (fun idb (name, rel) -> Idb.set idb name rel)
            (Idb.of_program program) r.Snapfile.r_idb
        with
        | exception Invalid_argument m -> Error ("snapshot: " ^ m)
        | idb -> Ok (r.Snapfile.r_db, idb)))

let restore_from t path =
  match Snapfile.read_file path with
  | Error e -> Error (Snapfile.error_to_string e)
  | Ok image -> (
    match model_of_image t.program image with
    | Error e -> Error e
    | Ok (db, idb) ->
      t.db <- db;
      t.idb <- idb;
      (* Reset to version 0 with the result cache emptied: entries tagged
         with pre-restore versions must not collide with the restarted
         version counter. *)
      Hashtbl.reset t.query_cache;
      t.version <- 0;
      Ok ())

let create_restored ?stats program image =
  match Stratified.check program with
  | Error e -> Error (Stratified.error_to_string e)
  | Ok _ -> (
    match model_of_image program image with
    | Error e -> Error e
    | Ok (db, idb) ->
      let stats = match stats with Some s -> s | None -> Stats.create () in
      Ok
        {
          program;
          stats;
          cache = Planlib.Cache.create ();
          db;
          idb;
          version = 0;
          query_cache = Hashtbl.create 64;
          c = zero_counters;
        })

(* --- updates ------------------------------------------------------------ *)

let update t ~additions ~removals =
  match
    Dred.apply ~cache:t.cache ~stats:t.stats ~who:"update" t.program t.db
      ~current:t.idb ~additions ~removals ()
  with
  | exception Invalid_argument msg -> Error msg
  | delta ->
    (* Counted over distinct facts: DRed collapses a fact repeated in one
       batch, and so must the report. *)
    let count_distinct keep facts =
      List.length (List.filter keep (List.sort_uniq compare facts))
    in
    let inserted =
      count_distinct
        (fun (pred, tuple) ->
          Database.mem_fact pred tuple delta.Dred.new_db
          && not (Database.mem_fact pred tuple t.db))
        additions
    in
    let deleted =
      count_distinct
        (fun (pred, tuple) ->
          not (Database.mem_fact pred tuple delta.Dred.new_db))
        removals
    in
    t.db <- delta.Dred.new_db;
    t.idb <- delta.Dred.new_idb;
    (* The published [db]/[idb] values are immutable, so a reader that
       pinned the previous pair keeps a consistent snapshot; the version
       bump makes its cache entries miss. *)
    t.version <- t.version + 1;
    t.c <-
      {
        t.c with
        batches = t.c.batches + 1;
        inserted = t.c.inserted + inserted;
        deleted = t.c.deleted + deleted;
        overdeleted = t.c.overdeleted + delta.Dred.overdeleted;
        rederived = t.c.rederived + delta.Dred.rederived;
      };
    Ok
      {
        inserted;
        deleted;
        overdeleted = delta.Dred.overdeleted;
        rederived = delta.Dred.rederived;
      }

let insert t additions = update t ~additions ~removals:[]
let delete t removals = update t ~additions:[] ~removals

(* --- queries ------------------------------------------------------------ *)

let canonical atom = Format.asprintf "%a" Datalog.Pretty.pp_atom atom

(* Pure snapshot read: IDB predicates from the materialised model, EDB
   from the database. *)
let eval_query ~db ~idb (atom : Ast.atom) =
  let rel =
    if Idb.mem idb atom.Ast.pred then Some (Idb.get idb atom.Ast.pred)
    else Database.relation atom.Ast.pred db
  in
  match rel with
  | None -> Error (Printf.sprintf "unknown predicate %s" atom.Ast.pred)
  | Some rel -> Query.select rel ~query:atom

let bump_queries t n = t.c <- { t.c with queries = t.c.queries + n }
let bump_hits t = t.c <- { t.c with cache_hits = t.c.cache_hits + 1 }
let bump_misses t = t.c <- { t.c with cache_misses = t.c.cache_misses + 1 }

let cached t key =
  match Hashtbl.find_opt t.query_cache key with
  | Some (v, rel) when v = t.version -> Some rel
  | _ -> None

let query t atom =
  bump_queries t 1;
  let key = canonical atom in
  match cached t key with
  | Some rel ->
    bump_hits t;
    Ok rel
  | None -> (
    bump_misses t;
    match eval_query ~db:t.db ~idb:t.idb atom with
    | Ok rel ->
      Hashtbl.replace t.query_cache key (t.version, rel);
      Ok rel
    | Error _ as e -> e)

let query_all t atoms =
  match atoms with
  | [] -> []
  | [ atom ] -> [ query t atom ]
  | _ ->
    bump_queries t (List.length atoms);
    (* Pin the snapshot once: every query of the batch reads the same
       immutable db/idb pair. *)
    let db = t.db and idb = t.idb and v = t.version in
    let keyed = List.map (fun a -> (a, canonical a)) atoms in
    let misses =
      List.fold_left
        (fun acc (a, k) ->
          if cached t k <> None || List.mem_assoc k acc then acc
          else (k, a) :: acc)
        [] keyed
      |> List.rev
    in
    (* Each distinct atom not cached before the batch is one miss; every
       other atom — cached before, or repeating one earlier in the batch —
       is a hit, so hits + misses = the batch size. *)
    t.c <-
      {
        t.c with
        cache_misses = t.c.cache_misses + List.length misses;
        cache_hits = t.c.cache_hits + List.length atoms - List.length misses;
      };
    List.iter
      (fun (k, a) ->
        match eval_query ~db ~idb a with
        | Ok rel -> Hashtbl.replace t.query_cache k (v, rel)
        | Error _ -> ())
      misses;
    List.map
      (fun (a, k) ->
        match cached t k with
        | Some rel -> Ok rel
        | None -> eval_query ~db ~idb a)
      keyed

(* --- the line protocol -------------------------------------------------- *)

type response = Reply of string list | Quit | Shutdown

let split_command line =
  match String.index_opt line ' ' with
  | None -> (String.lowercase_ascii line, "")
  | Some i ->
    ( String.lowercase_ascii (String.sub line 0 i),
      String.trim (String.sub line i (String.length line - i)) )

(* Facts arrive in the textual fact format ([e(a, b). e(b, c).]); new
   constants enter the universe with their facts.  A bare [#universe]
   declaration is rejected: the incremental layer tracks universe growth
   through the facts of a batch. *)
let parse_facts rest =
  if String.trim rest = "" then Error "no facts given"
  else
    match Database.parse rest with
    | Error e -> Error e
    | Ok batch ->
      let facts =
        List.concat_map
          (fun (pred, rel) ->
            List.rev
              (Relation.fold (fun tuple acc -> (pred, tuple) :: acc) rel []))
          (Database.relations batch)
      in
      let in_facts sym =
        List.exists (fun (_, tuple) -> List.mem sym (Tuple.to_list tuple)) facts
      in
      if List.for_all in_facts (Database.universe batch) then Ok facts
      else
        Error
          "#universe is not supported over the protocol; new constants \
           enter with their facts"

let parse_goal s =
  let s = String.trim s in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '.' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  if String.trim s = "" then Error "empty query"
  else
    match Parser.parse_rule (String.trim s ^ ".") with
    | Ok { Ast.head; body = [] } -> Ok head
    | Ok _ -> Error "a query is a single atom, e.g. s(v0, Y)"
    | Error e -> Error e

let extra_counter t name =
  match List.assoc_opt name t.stats.Stats.extra with Some n -> n | None -> 0

let stats_lines t =
  let edb =
    List.fold_left
      (fun acc (_, rel) -> acc + Relation.cardinal rel)
      0
      (Database.relations t.db)
  in
  [
    Printf.sprintf "facts: edb=%d idb=%d universe=%d version=%d" edb
      (Idb.total_cardinal t.idb)
      (Database.universe_size t.db)
      t.version;
    Printf.sprintf
      "updates: batches=%d inserted=%d deleted=%d overdeleted=%d \
       rederived=%d"
      t.c.batches t.c.inserted t.c.deleted t.c.overdeleted t.c.rederived;
    Printf.sprintf "queries: served=%d cache_hits=%d cache_misses=%d"
      t.c.queries t.c.cache_hits t.c.cache_misses;
    Printf.sprintf "plans: cached=%d compiles=%d cache_hits=%d"
      (Planlib.Cache.cardinal t.cache)
      t.stats.Stats.plan.Plan.plan_compiles
      t.stats.Stats.plan.Plan.plan_cache_hits;
    Printf.sprintf
      "work: rule_applications=%d delta_applications=%d \
       putback_applications=%d full_applications=%d"
      t.stats.Stats.rule_applications
      (extra_counter t "dred delta applications")
      (extra_counter t "dred putback applications")
      (extra_counter t "dred full applications");
    (* The store's sizes and counters, cumulative like every other
       counter here. *)
    (let c = Relalg.Store.contention () in
     Printf.sprintf
       "store: tuples=%d symbols=%d intern_hits=%d intern_misses=%d"
       (Relalg.Store.count ()) (Relalg.Symbol.count ())
       c.Relalg.Store.cache_hits c.Relalg.Store.cache_misses);
  ]

let write_reply ~cmd (r : update_report) =
  if cmd = "insert" then
    Printf.sprintf "ok inserted=%d overdeleted=%d derived=%d" r.inserted
      r.overdeleted r.rederived
  else
    Printf.sprintf "ok deleted=%d overdeleted=%d rederived=%d" r.deleted
      r.overdeleted r.rederived

let apply_write t ~cmd facts =
  if cmd = "insert" then insert t facts else delete t facts

let reply_write ~cmd = function
  | Ok r -> Reply [ write_reply ~cmd r ]
  | Error e -> Reply [ "error: " ^ e ]

let handle_line t line =
  let line = String.trim line in
  if line = "" || line.[0] = '%' then Reply []
  else
    let cmd, rest = split_command line in
    match cmd with
    | "quit" -> Quit
    | "shutdown" -> Shutdown
    | "stats" -> Reply (stats_lines t)
    | "insert" | "delete" -> (
      match parse_facts rest with
      | Error e -> Reply [ "error: " ^ e ]
      | Ok facts -> reply_write ~cmd (apply_write t ~cmd facts))
    | "query" ->
      (* Multiple atoms separated by ';' are answered as one batch against
         one pinned snapshot. *)
      let goals = List.map parse_goal (String.split_on_char ';' rest) in
      let atoms =
        List.filter_map (function Ok a -> Some a | Error _ -> None) goals
      in
      let results = ref (query_all t atoms) in
      let next () =
        match !results with
        | r :: rest ->
          results := rest;
          r
        | [] -> assert false
      in
      Reply
        (List.map
           (function
             | Error e -> "error: " ^ e
             | Ok _ -> (
               match next () with
               | Ok rel ->
                 Format.asprintf "%a %% %d answer(s)" Relation.pp rel
                   (Relation.cardinal rel)
               | Error e -> "error: " ^ e))
           goals)
    | "snapshot" -> (
      if rest = "" then Reply [ "error: usage: snapshot <file>" ]
      else
        match snapshot_to t rest with
        | Ok bytes -> Reply [ Printf.sprintf "ok bytes=%d" bytes ]
        | Error e -> Reply [ "error: " ^ e ])
    | "restore" -> (
      if rest = "" then Reply [ "error: usage: restore <file>" ]
      else
        match restore_from t rest with
        | Ok () -> Reply [ "ok version=0" ]
        | Error e -> Reply [ "error: " ^ e ])
    | _ ->
      Reply
        [
          Printf.sprintf
            "error: unknown command '%s' (insert, delete, query, stats, \
             snapshot, restore, quit, shutdown)"
            cmd;
        ]

(* --- write batching ------------------------------------------------------ *)

(* Classify a line as a write command with parsed facts, without applying
   it.  Anything else — including a write line whose facts fail to parse —
   goes through [handle_line] one at a time. *)
let classify_write line =
  let line = String.trim line in
  if line = "" || line.[0] = '%' then None
  else
    let cmd, rest = split_command line in
    match cmd with
    | "insert" | "delete" -> (
      match parse_facts rest with
      | Ok facts -> Some (cmd, facts)
      | Error _ -> None)
    | _ -> None

let handle_batch t lines =
  (* A maximal run of consecutive same-command write lines coalesces into
     one DRed update: one overdeletion/rederivation pass for the whole run
     instead of one per line.  The run's first line answers with the
     combined report (the exact format [handle_line] gives a single line —
     a run of one is byte-identical), the remaining lines acknowledge
     their fate; any other line flushes the run and is handled alone.  The
     report counts distinct facts, so a line that repeats an earlier
     line's fact adds nothing to it and still answers [ok coalesced] —
     where, sent alone after the first, a repeated delete would be an
     error and a repeated insert would report [inserted=0].  When the
     combined update is refused, which leaves [t] unchanged, the run's
     lines are applied one at a time instead, each answering as it would
     alone: one bad line must not take the valid lines read with it. *)
  let flush run acc =
    match run with
    | None -> acc
    | Some (cmd, [ facts ]) ->
      reply_write ~cmd (apply_write t ~cmd facts) :: acc
    | Some (cmd, rev_fact_lists) -> (
      match apply_write t ~cmd (List.concat (List.rev rev_fact_lists)) with
      | Ok r ->
        let rec push n acc =
          if n = 0 then acc else push (n - 1) (Reply [ "ok coalesced" ] :: acc)
        in
        push (List.length rev_fact_lists - 1) (reply_write ~cmd (Ok r) :: acc)
      | Error _ ->
        List.fold_left
          (fun acc facts -> reply_write ~cmd (apply_write t ~cmd facts) :: acc)
          acc
          (List.rev rev_fact_lists))
  in
  let rec go run acc = function
    | [] -> List.rev (flush run acc)
    | line :: rest -> (
      match classify_write line with
      | Some (cmd, facts) -> (
        match run with
        | Some (c, fls) when c = cmd -> go (Some (c, facts :: fls)) acc rest
        | _ -> go (Some (cmd, [ facts ])) (flush run acc) rest)
      | None -> (
        let acc = flush run acc in
        match handle_line t line with
        | Reply _ as r -> go None (r :: acc) rest
        | (Quit | Shutdown) as r -> List.rev (r :: acc)))
  in
  go None [] lines
