(* Tests for the incremental materialization server: the snapshot after any
   sequence of insert/delete batches must fingerprint-identically match
   from-scratch stratified saturation (the differential oracle runs the same
   random op sequences through both paths); the query cache must hit per
   version and miss across
   updates; snapshots pinned by a reader must be immune to concurrent
   writes; and the protocol layer must answer errors without dying. *)

module Ast = Datalog.Ast
module Parser = Datalog.Parser
module Serve = Evallib.Serve
module Stratified = Evallib.Stratified
module Idb = Evallib.Idb
module Query = Evallib.Query
module Generate = Graphlib.Generate
module Digraph = Graphlib.Digraph
module Tuple = Relalg.Tuple
module Relation = Relalg.Relation
module Database = Relalg.Database

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let tc =
  Parser.parse_program_exn "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y)."

(* Reachability with a negation-dependent complement: exercises all three
   DRed phases across a stratum boundary. *)
let reach =
  Parser.parse_program_exn
    "r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y). reached(Y) :- r(X, \
     Y). unreached(X) :- v(X), !reached(X)."

let vsym = Digraph.vertex_symbol
let edge u v = ("e", Tuple.pair (vsym u) (vsym v))

let with_vertices db n =
  List.fold_left
    (fun d i -> Database.add_fact "v" (Tuple.singleton (vsym i)) d)
    db
    (List.init n (fun i -> i))

let goal s =
  match Parser.parse_rule (s ^ ".") with
  | Ok { Ast.head; body = [] } -> head
  | Ok _ | Error _ -> Alcotest.failf "bad test goal %s" s

(* --- the serving state ---------------------------------------------------- *)

let test_create_and_query () =
  let db = Digraph.to_database (Generate.path 4) in
  let t = ok_or_fail (Serve.create tc db) in
  check int "initial version" 0 (Serve.version t);
  let rel = ok_or_fail (Serve.query t (goal "s(v0, Y)")) in
  check int "closure from v0" 3 (Relation.cardinal rel);
  (* EDB predicates are queryable too. *)
  let e = ok_or_fail (Serve.query t (goal "e(X, Y)")) in
  check int "edb relation" 3 (Relation.cardinal e);
  check bool "unknown predicate is an Error" true
    (Result.is_error (Serve.query t (goal "nope(X)")))

let test_update_maintains_model () =
  let db = Digraph.to_database (Generate.path 4) in
  let t = ok_or_fail (Serve.create tc db) in
  let r = ok_or_fail (Serve.insert t [ edge 3 0 ]) in
  check int "one fact inserted" 1 r.Serve.inserted;
  check bool "cycle closes the square" true
    (Idb.equal (Serve.snapshot t)
       (Stratified.eval_exn tc (Serve.database t)));
  let r = ok_or_fail (Serve.delete t [ edge 1 2 ]) in
  check int "one fact deleted" 1 r.Serve.deleted;
  check bool "overdeletion happened" true (r.Serve.overdeleted > 0);
  check bool "still matches recomputation" true
    (Idb.equal (Serve.snapshot t)
       (Stratified.eval_exn tc (Serve.database t)));
  check int "version bumped per batch" 2 (Serve.version t)

let test_update_validation_keeps_state () =
  let db = Digraph.to_database (Generate.path 3) in
  let t = ok_or_fail (Serve.create tc db) in
  let v = Serve.version t and idb = Serve.snapshot t in
  check bool "IDB insert rejected" true
    (Result.is_error (Serve.insert t [ ("s", Tuple.pair (vsym 0) (vsym 1)) ]));
  check bool "absent removal rejected" true
    (Result.is_error (Serve.delete t [ edge 2 0 ]));
  check bool "arity mismatch rejected" true
    (Result.is_error (Serve.insert t [ ("e", Tuple.singleton (vsym 0)) ]));
  check int "version unchanged" v (Serve.version t);
  check bool "snapshot unchanged" true (Idb.equal idb (Serve.snapshot t))

let test_query_cache () =
  let db = Digraph.to_database (Generate.path 4) in
  let t = ok_or_fail (Serve.create tc db) in
  ignore (ok_or_fail (Serve.query t (goal "s(v0, Y)")));
  ignore (ok_or_fail (Serve.query t (goal "s(v0, Y)")));
  let c = Serve.counters t in
  check int "second identical query hits" 1 c.Serve.cache_hits;
  check int "first was a miss" 1 c.Serve.cache_misses;
  (* An update bumps the version: the cached entry must go stale. *)
  ignore (ok_or_fail (Serve.insert t [ edge 3 0 ]));
  let rel = ok_or_fail (Serve.query t (goal "s(v0, Y)")) in
  check int "post-update answer is fresh" 4 (Relation.cardinal rel);
  let c = Serve.counters t in
  check int "update invalidated the entry" 2 c.Serve.cache_misses

let test_query_batch () =
  let db = Digraph.to_database (Generate.path 4) in
  let t = ok_or_fail (Serve.create tc db) in
  let atoms =
    [ goal "s(v0, Y)"; goal "s(v1, Y)"; goal "s(v0, Y)"; goal "nope(X)" ]
  in
  (match Serve.query_all t atoms with
  | [ Ok a; Ok b; Ok a'; Error _ ] ->
    check int "s(v0, _)" 3 (Relation.cardinal a);
    check int "s(v1, _)" 2 (Relation.cardinal b);
    check bool "duplicate answered identically" true (Relation.equal a a')
  | _ -> Alcotest.fail "unexpected batch shape");
  (* Three distinct atoms were uncached (one of them an error): three
     misses.  Only the repeated atom is a hit. *)
  let c = Serve.counters t in
  check int "every atom served" 4 c.Serve.queries;
  check int "one miss per distinct uncached atom" 3 c.Serve.cache_misses;
  check int "the duplicate is the only hit" 1 c.Serve.cache_hits;
  (* Atoms cached before the batch are hits too. *)
  ignore (Serve.query_all t [ goal "s(v1, Y)"; goal "s(v2, Y)" ]);
  let c = Serve.counters t in
  check int "cached-before atom hits" 2 c.Serve.cache_hits;
  check int "hits + misses = served" c.Serve.queries
    (c.Serve.cache_hits + c.Serve.cache_misses)

(* --- Query.select (regression: arity mismatch was a bare exception) ------- *)

let test_select_arity_and_diagonal () =
  let rel =
    Relation.of_list 2
      [
        Tuple.of_strings [ "a"; "a" ];
        Tuple.of_strings [ "a"; "b" ];
        Tuple.of_strings [ "b"; "b" ];
      ]
  in
  (match Query.select rel ~query:(goal "s(X)") with
  | Error msg ->
    check bool "message names both arities" true
      (String.length msg > 0
      && msg = "query atom s/1 does not match the stored relation s/2")
  | Ok _ -> Alcotest.fail "arity mismatch must be an Error");
  (* Repeated variables select the diagonal. *)
  let diag = ok_or_fail (Query.select rel ~query:(goal "s(X, X)")) in
  check int "diagonal" 2 (Relation.cardinal diag);
  let bound = ok_or_fail (Query.select rel ~query:(goal "s(a, Y)")) in
  check int "bound first column" 2 (Relation.cardinal bound)

(* --- snapshot isolation ---------------------------------------------------- *)

let test_snapshot_isolation () =
  (* A reader pins the snapshot, then a writer applies updates: the pinned
     values must not move, and fresh reads see the new state. *)
  let db = Digraph.to_database (Generate.path 4) in
  let t = ok_or_fail (Serve.create tc db) in
  let pinned = Serve.snapshot t in
  let before = Idb.fingerprint pinned in
  let writer =
    Domain.spawn (fun () ->
        ignore (ok_or_fail (Serve.insert t [ edge 3 0 ]));
        ignore (ok_or_fail (Serve.delete t [ edge 0 1 ])))
  in
  (* Concurrent reads of the pinned snapshot while the writer runs. *)
  for _ = 1 to 100 do
    check int "pinned snapshot never moves" before (Idb.fingerprint pinned)
  done;
  Domain.join writer;
  check int "pinned still identical after the writer" before
    (Idb.fingerprint pinned);
  check bool "fresh snapshot reflects the updates" true
    (Idb.equal (Serve.snapshot t)
       (Stratified.eval_exn tc (Serve.database t)))

(* --- the line protocol ----------------------------------------------------- *)

let reply t line =
  match Serve.handle_line t line with
  | Serve.Reply lines -> lines
  | Serve.Quit -> [ "<quit>" ]
  | Serve.Shutdown -> [ "<shutdown>" ]

let test_protocol () =
  (* Path v0->v1->v2 with v(v0..v2): only v0 is unreached.  Inserting
     e(v2, v3) brings a brand-new constant in with its fact; deleting it
     again overdeletes the whole chain it enabled. *)
  let db = with_vertices (Digraph.to_database (Generate.path 3)) 3 in
  let t = ok_or_fail (Serve.create reach db) in
  check (Alcotest.list Alcotest.string) "comments and blanks" []
    (reply t "% a comment" @ reply t "   ");
  check (Alcotest.list Alcotest.string) "insert replies with counts"
    [ "ok inserted=1 overdeleted=0 derived=4" ]
    (reply t "insert e(v2, v3).");
  check (Alcotest.list Alcotest.string) "delete replies with counts"
    [ "ok deleted=1 overdeleted=4 rederived=0" ]
    (reply t "delete e(v2, v3).");
  (match reply t "query unreached(X)" with
  | [ line ] ->
    check bool "v0 still unreached" true
      (contains ~needle:"v0" line)
  | _ -> Alcotest.fail "one answer line expected");
  (match reply t "query r(v0, Y); unreached(X)" with
  | [ _; _ ] -> ()
  | _ -> Alcotest.fail "two answer lines expected");
  check bool "unknown command is an error" true
    (match reply t "frobnicate" with
    | [ line ] -> contains ~needle:"error:" line
    | _ -> false);
  check bool "bad facts are an error" true
    (match reply t "insert e(v0" with
    | [ line ] -> contains ~needle:"error:" line
    | _ -> false);
  check bool "IDB insert is an error, session survives" true
    (match reply t "insert r(v0, v1)." with
    | [ line ] -> contains ~needle:"error:" line
    | _ -> false);
  (* Five core lines, plus the store-contention line whenever the hashed
     backend has touched the packed store (cumulative, so by this point in
     the session it has). *)
  let stats_reply = reply t "stats" in
  check bool "stats is five or six lines" true
    (List.length stats_reply = 5 || List.length stats_reply = 6);
  check bool "contention line present iff sixth" true
    (match List.rev stats_reply with
    | last :: _ when List.length stats_reply = 6 ->
      contains ~needle:"contention:" last
    | _ -> List.length stats_reply = 5);
  check (Alcotest.list Alcotest.string) "quit" [ "<quit>" ] (reply t "quit");
  check (Alcotest.list Alcotest.string) "shutdown" [ "<shutdown>" ]
    (reply t "shutdown")

let flatten_batch t lines =
  List.map
    (function
      | Serve.Reply ls -> ls
      | Serve.Quit -> [ "<quit>" ]
      | Serve.Shutdown -> [ "<shutdown>" ])
    (Serve.handle_batch t lines)

let test_batch_coalescing () =
  (* Three consecutive inserts are one DRed batch: one combined report,
     two "ok coalesced", and the batch counter moves by one.  A delete
     breaks the run.  Replies stay line-for-line positional. *)
  let db = with_vertices (Digraph.to_database (Generate.path 3)) 3 in
  let t = ok_or_fail (Serve.create reach db) in
  let replies =
    flatten_batch t
      [
        "insert e(v2, v3).";
        "insert e(v3, v4).";
        "insert e(v4, v0).";
        "delete e(v4, v0).";
        "query unreached(X)";
      ]
  in
  (match replies with
  | [ [ first ]; [ "ok coalesced" ]; [ "ok coalesced" ]; [ del ]; [ _q ] ] ->
    check bool "combined report counts all three" true
      (contains ~needle:"inserted=3" first);
    check bool "delete not merged into the insert run" true
      (contains ~needle:"deleted=1" del)
  | _ -> Alcotest.fail "unexpected reply shape");
  check int "two DRed batches for four write lines" 2
    (Serve.counters t).Serve.batches;
  (* A run of one is byte-identical to handle_line. *)
  let t2 = ok_or_fail (Serve.create reach db) in
  let batch_reply = flatten_batch t2 [ "insert e(v2, v3)." ] in
  let t3 = ok_or_fail (Serve.create reach db) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "singleton run = handle_line" batch_reply
    [ reply t3 "insert e(v2, v3)." ];
  (* Unparseable write lines are not coalesced; a refused merged run is
     applied line by line, each line answering as it would alone; quit
     stops the batch. *)
  let t4 = ok_or_fail (Serve.create reach db) in
  let replies =
    flatten_batch t4
      [
        "insert e(v0";
        "delete e(v0, v9).";
        "delete e(v1, v9).";
        "quit";
        "query unreached(X)";
      ]
  in
  (match replies with
  | [ [ bad ]; del1; del2; [ "<quit>" ] ] ->
    check bool "parse error answered alone" true
      (contains ~needle:"error:" bad);
    let t5 = ok_or_fail (Serve.create reach db) in
    check
      (Alcotest.list (Alcotest.list Alcotest.string))
      "each line of a refused run answers as it would alone"
      [ reply t5 "delete e(v0, v9)."; reply t5 "delete e(v1, v9)." ]
      [ del1; del2 ]
  | _ -> Alcotest.fail "quit must end the batch before the query");
  (* A valid write read together with a refused one is applied, as if it
     had arrived alone: one DRed batch, the valid line's own report. *)
  let t6 = ok_or_fail (Serve.create reach db) in
  match flatten_batch t6 [ "insert e(v0, v1, v2)."; "insert e(v2, v0)." ] with
  | [ [ bad ]; [ ok ] ] ->
    check bool "the wrong arity is refused" true
      (contains ~needle:"error:" bad);
    check bool "the valid insert applies" true
      (contains ~needle:"ok inserted=1" ok);
    check int "one DRed batch" 1 (Serve.counters t6).Serve.batches
  | _ -> Alcotest.fail "one reply per line"

(* --- delta-proportional upkeep -------------------------------------------- *)

(* 256 disjoint 8-vertex components, the served benchmark's shape: each a
   cycle with one chord, so the model holds 16,384 [r] facts and a delete
   over-deletes and re-derives within its component.  Once warm-up writes
   have compiled every plan and built every index those plans read, a
   one-fact delete in another component and its re-insert build no index:
   the column indexes follow DRed's removals instead of being rebuilt over
   the whole relation.  (A counter, not a timing.) *)
let test_delta_builds_no_index () =
  let components = 256 and size = 8 in
  let component = Digraph.add_edge (Generate.cycle size) 0 (size / 2) in
  let n = components * size in
  let db =
    with_vertices
      (Digraph.to_database (Generate.disjoint_copies components component))
      n
  in
  let t = ok_or_fail (Serve.create reach db) in
  check bool "a model of at least 10k tuples" true
    (Idb.total_cardinal (Serve.snapshot t) >= 10_000);
  let builds () =
    (Serve.stats t).Evallib.Stats.plan.Planlib.Plan.index_builds
  in
  let cycle_edge c = edge ((c * size) + 5) ((c * size) + 6) in
  List.iter
    (fun c ->
      ignore (ok_or_fail (Serve.delete t [ cycle_edge c ]));
      ignore (ok_or_fail (Serve.insert t [ cycle_edge c ])))
    [ 0; 1 ];
  let before = builds () in
  let r = ok_or_fail (Serve.delete t [ cycle_edge 9 ]) in
  check bool "the delete over-deleted" true (r.Serve.overdeleted > 0);
  check int "a one-fact delete builds no index" before (builds ());
  let cut = (9 * size) + 6 in
  let answer =
    ok_or_fail (Serve.query t (goal (Printf.sprintf "r(v%d, Y)" cut)))
  in
  let plain =
    Relation.filter
      (fun tu -> Relalg.Symbol.equal (Tuple.get tu 0) (vsym cut))
      (Idb.get (Serve.snapshot t) "r")
  in
  check bool "a point query = a filter of the model" true
    (Relation.equal answer plain);
  check int "the cut's head still reaches the other seven vertices"
    (size - 1) (Relation.cardinal answer);
  ignore (ok_or_fail (Serve.insert t [ cycle_edge 9 ]));
  check int "its re-insert builds none" before (builds ());
  check bool "the model is recomputation's" true
    (Idb.equal (Serve.snapshot t)
       (Stratified.eval_exn reach (Serve.database t)))

(* --- differential oracle ---------------------------------------------------
   Random op sequences through the incremental path vs from-scratch
   stratified saturation: after every batch the fingerprints must agree. *)

type op = Insert of int * int | Delete of int | Query of int

let pp_op = function
  | Insert (u, v) -> Printf.sprintf "ins(%d,%d)" u v
  | Delete i -> Printf.sprintf "del#%d" i
  | Query u -> Printf.sprintf "q(%d)" u

let gen_ops n =
  QCheck.Gen.(
    list_size (int_range 3 10)
      (frequency
         [
           ( 3,
             let* u = int_range 0 (n - 1) in
             let* v = int_range 0 (n - 1) in
             return (Insert (u, v)) );
           (3, map (fun i -> Delete i) (int_range 0 50));
           (2, map (fun u -> Query u) (int_range 0 (n - 1)));
         ]))

let current_edges t =
  match Database.relation "e" (Serve.database t) with
  | None -> []
  | Some rel -> List.rev (Relation.fold (fun tup acc -> tup :: acc) rel [])

(* Runs one op sequence through a server and checks the oracle after every
   mutation.  Returns true (QCheck property) or raises via Alcotest.fail. *)
let run_ops program db ops =
  let t = ok_or_fail (Serve.create program db) in
  List.iter
    (fun op ->
      (match op with
      | Insert (u, v) ->
        (* Inserting a present edge is rejected as a no-op batch only when
           validation fails; present-fact inserts are accepted and change
           nothing — both fine for the oracle. *)
        ignore (Serve.insert t [ edge u v ])
      | Delete i -> (
        match current_edges t with
        | [] -> ()
        | edges ->
          let tup = List.nth edges (i mod List.length edges) in
          ignore (ok_or_fail (Serve.delete t [ ("e", tup) ])))
      | Query u ->
        ignore (Serve.query t (goal (Printf.sprintf "r(v%d, Y)" u)));
        ignore (Serve.query t (goal (Printf.sprintf "unreached(v%d)" u))));
      let scratch = Stratified.eval_exn program (Serve.database t) in
      if Idb.fingerprint (Serve.snapshot t) <> Idb.fingerprint scratch then
        Alcotest.failf "fingerprint divergence after %s" (pp_op op);
      if not (Idb.equal (Serve.snapshot t) scratch) then
        Alcotest.failf "model divergence after %s" (pp_op op))
    ops;
  true

let prop_differential ~name =
  QCheck.Test.make ~name ~count:40
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 3 5 in
         let* seed = int_range 0 10_000 in
         let* ops = gen_ops n in
         return (n, seed, ops))
       ~print:(fun (n, seed, ops) ->
         Printf.sprintf "n=%d seed=%d ops=[%s]" n seed
           (String.concat "; " (List.map pp_op ops))))
    (fun (n, seed, ops) ->
      let db =
        with_vertices
          (Digraph.to_database (Generate.random ~seed ~n ~p:0.35))
          n
      in
      run_ops reach db ops)

let differential_props =
  [ prop_differential ~name:"oracle: seminaive, hashed, par=1" ]

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "create and query" `Quick test_create_and_query;
          Alcotest.test_case "update maintains model" `Quick
            test_update_maintains_model;
          Alcotest.test_case "validation keeps state" `Quick
            test_update_validation_keeps_state;
          Alcotest.test_case "query cache" `Quick test_query_cache;
          Alcotest.test_case "query batch" `Quick test_query_batch;
          Alcotest.test_case "select arity and diagonal" `Quick
            test_select_arity_and_diagonal;
          Alcotest.test_case "snapshot isolation" `Quick
            test_snapshot_isolation;
          Alcotest.test_case "protocol" `Quick test_protocol;
          Alcotest.test_case "batch coalescing" `Quick test_batch_coalescing;
          Alcotest.test_case "a delta builds no index" `Quick
            test_delta_builds_no_index;
        ] );
      ("oracle", List.map QCheck_alcotest.to_alcotest differential_props);
    ]
