(* Tests for the relational substrate: symbols, tuples, relations,
   schemas, databases and the fact-file parser. *)

open Relalg

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Symbol -------------------------------------------------------------- *)

let test_symbol_interning () =
  let a1 = Symbol.intern "alpha" in
  let a2 = Symbol.intern "alpha" in
  let b = Symbol.intern "beta" in
  check bool "same symbol" true (Symbol.equal a1 a2);
  check bool "different symbols" false (Symbol.equal a1 b);
  check (Alcotest.string) "name round trip" "alpha" (Symbol.name a1)

let test_symbol_fresh () =
  let f1 = Symbol.fresh "gensym" in
  let f2 = Symbol.fresh "gensym" in
  check bool "fresh are distinct" false (Symbol.equal f1 f2)

let test_symbol_of_int () =
  check bool "of_int = intern of decimal" true
    (Symbol.equal (Symbol.of_int 42) (Symbol.intern "42"))

(* --- Tuple ---------------------------------------------------------------- *)

let test_tuple_basic () =
  let t = Tuple.of_strings [ "a"; "b"; "c" ] in
  check int "arity" 3 (Tuple.arity t);
  check (Alcotest.string) "get" "b" (Symbol.name (Tuple.get t 1));
  Alcotest.check_raises "out of range" (Invalid_argument "Tuple.get")
    (fun () -> ignore (Tuple.get t 3))

let test_tuple_compare () =
  let t1 = Tuple.of_ints [ 1; 2 ] in
  let t2 = Tuple.of_ints [ 1; 2 ] in
  let t3 = Tuple.of_ints [ 1 ] in
  check bool "equal" true (Tuple.equal t1 t2);
  check bool "shorter first" true (Tuple.compare t3 t1 < 0)

let test_tuple_ops () =
  let t = Tuple.of_strings [ "a"; "b"; "c"; "d" ] in
  check bool "project reorders" true
    (Tuple.equal (Tuple.project [ 2; 0 ] t) (Tuple.of_strings [ "c"; "a" ]));
  check bool "append" true
    (Tuple.equal
       (Tuple.append (Tuple.of_strings [ "a" ]) (Tuple.of_strings [ "b" ]))
       (Tuple.of_strings [ "a"; "b" ]));
  check bool "sub" true
    (Tuple.equal (Tuple.sub t 1 2) (Tuple.of_strings [ "b"; "c" ]))

let test_tuple_immutability () =
  let arr = [| Symbol.intern "a" |] in
  let t = Tuple.make arr in
  arr.(0) <- Symbol.intern "b";
  check (Alcotest.string) "copy on make" "a" (Symbol.name (Tuple.get t 0))

(* --- Relation ------------------------------------------------------------- *)

let r_ab = Relation.of_list 2 [ Tuple.of_strings [ "a"; "b" ] ]

let test_relation_set_ops () =
  let r1 =
    Relation.of_list 1 [ Tuple.of_strings [ "a" ]; Tuple.of_strings [ "b" ] ]
  in
  let r2 = Relation.of_list 1 [ Tuple.of_strings [ "b" ] ] in
  check int "union" 2 (Relation.cardinal (Relation.union r1 r2));
  check int "inter" 1 (Relation.cardinal (Relation.inter r1 r2));
  check int "diff" 1 (Relation.cardinal (Relation.diff r1 r2));
  check bool "subset" true (Relation.subset r2 r1);
  check bool "not subset" false (Relation.subset r1 r2)

let test_relation_arity_mismatch () =
  Alcotest.check_raises "add wrong arity"
    (Invalid_argument "Relation.add: tuple arity 1, relation arity 2")
    (fun () -> ignore (Relation.add (Tuple.of_strings [ "a" ]) r_ab))

let test_relation_product_project () =
  let r1 = Relation.of_list 1 [ Tuple.of_strings [ "a" ]; Tuple.of_strings [ "b" ] ] in
  let r2 = Relation.of_list 1 [ Tuple.of_strings [ "c" ] ] in
  let p = Relation.product r1 r2 in
  check int "product size" 2 (Relation.cardinal p);
  check int "product arity" 2 (Relation.arity p);
  let back = Relation.project [ 0 ] p in
  check bool "project back" true (Relation.equal back r1)

let test_relation_full_complement () =
  let u = List.map Symbol.intern [ "a"; "b"; "c" ] in
  let full = Relation.full u 2 in
  check int "3^2" 9 (Relation.cardinal full);
  let c = Relation.complement u r_ab in
  check int "complement" 8 (Relation.cardinal c);
  check bool "misses ab" false (Relation.mem (Tuple.of_strings [ "a"; "b" ]) c)

let test_relation_full_zero_arity () =
  let u = List.map Symbol.intern [ "a" ] in
  check int "A^0 = {()}" 1 (Relation.cardinal (Relation.full u 0));
  check int "empty universe, arity 0" 1 (Relation.cardinal (Relation.full [] 0));
  check int "empty universe, arity 2" 0 (Relation.cardinal (Relation.full [] 2))

let test_relation_map_arity () =
  let r = Relation.of_list 1 [ Tuple.of_strings [ "a" ] ] in
  Alcotest.check_raises "map to the wrong arity"
    (Invalid_argument "Relation.map: tuple arity 1, relation arity 2")
    (fun () -> ignore (Relation.map 2 (fun _ -> Tuple.of_strings [ "x" ]) r));
  check bool "map to the declared arity" true
    (Relation.equal
       (Relation.map 2 (fun t -> Tuple.append t t) r)
       (Relation.of_list 2 [ Tuple.of_strings [ "a"; "a" ] ]))

let test_relation_join_positions () =
  let e =
    Relation.of_list 2
      [ Tuple.of_strings [ "a"; "b" ]; Tuple.of_strings [ "b"; "c" ] ]
  in
  let joined = Relation.join_positions [ (1, 0) ] e e in
  (* (a,b) joins (b,c): one result. *)
  check int "path of length 2" 1 (Relation.cardinal joined);
  check int "arity 4" 4 (Relation.arity joined)

(* --- Limit semantics -------------------------------------------------------- *)

let rel2 rows = Relation.of_list 2 (List.map Tuple.of_strings rows)

let test_relation_tighten () =
  let current = rel2 [ [ "a"; "3" ]; [ "b"; "2" ] ] in
  let candidates =
    rel2 [ [ "a"; "1" ]; [ "a"; "2" ]; [ "b"; "5" ]; [ "c"; "4" ] ]
  in
  let result, changed = Relation.tighten ~kind:`Min ~col:1 current candidates in
  check bool "bounds tightened, new group admitted" true
    (Relation.equal result (rel2 [ [ "a"; "1" ]; [ "b"; "2" ]; [ "c"; "4" ] ]));
  check bool "changed-group delta holds exactly the new bounds" true
    (Relation.equal changed (rel2 [ [ "a"; "1" ]; [ "c"; "4" ] ]));
  let result', changed' = Relation.tighten ~kind:`Min ~col:1 result candidates in
  check bool "idempotent on dominated candidates" true
    (Relation.equal result' result);
  check bool "no-op yields an empty delta" true (Relation.is_empty changed')

let test_relation_tighten_max () =
  let current = rel2 [ [ "a"; "3" ] ] in
  let candidates = rel2 [ [ "a"; "5" ]; [ "a"; "4" ] ] in
  let result, changed = Relation.tighten ~kind:`Max ~col:1 current candidates in
  check bool "max keeps the greatest" true
    (Relation.equal result (rel2 [ [ "a"; "5" ] ]));
  check bool "delta is the one improved bound" true
    (Relation.equal changed (rel2 [ [ "a"; "5" ] ]))

let test_relation_dominant () =
  (* "9" vs "10" pins numeric, not lexicographic, value comparison. *)
  let r = rel2 [ [ "a"; "9" ]; [ "a"; "10" ]; [ "b"; "7" ] ] in
  check bool "min keeps least per group" true
    (Relation.equal
       (Relation.dominant ~kind:`Min ~col:1 r)
       (rel2 [ [ "a"; "9" ]; [ "b"; "7" ] ]));
  check bool "max keeps greatest per group" true
    (Relation.equal
       (Relation.dominant ~kind:`Max ~col:1 r)
       (rel2 [ [ "a"; "10" ]; [ "b"; "7" ] ]));
  check bool "out-of-range column rejected" true
    (try
       ignore (Relation.dominant ~kind:`Min ~col:2 r);
       false
     with Invalid_argument _ -> true)

(* --- Idset ------------------------------------------------------------------ *)

let test_idset_basic () =
  let s = Idset.of_list [ 5; 1; 3; 1; 5 ] in
  check int "cardinal dedups" 3 (Idset.cardinal s);
  check bool "mem" true (Idset.mem 3 s);
  check bool "not mem" false (Idset.mem 2 s);
  check (Alcotest.list int) "elements increasing" [ 1; 3; 5 ]
    (Idset.elements s);
  check (Alcotest.option int) "choose_opt is minimum" (Some 1)
    (Idset.choose_opt s);
  check bool "remove" false (Idset.mem 3 (Idset.remove 3 s));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Idset.add: negative element") (fun () ->
      ignore (Idset.add (-1) Idset.empty))

let test_idset_sharing () =
  let s = Idset.of_list [ 0; 7; 42 ] in
  check bool "re-add is physically the same set" true (Idset.add 7 s == s)

let test_idset_large () =
  (* Exercise branch paths well past one machine word of prefix bits. *)
  let xs = List.init 500 (fun i -> (i * 7919) land 0xFFFFF) in
  let s = Idset.of_list xs in
  let module IS = Set.Make (Int) in
  let ref_set = IS.of_list xs in
  check int "cardinal" (IS.cardinal ref_set) (Idset.cardinal s);
  check (Alcotest.list int) "elements" (IS.elements ref_set)
    (Idset.elements s)

let arb_id_lists =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (int_range 0 40) (int_range 0 200))
        (list_size (int_range 0 40) (int_range 0 200)))

(* Two independent sets, plus edits (add when [true], remove otherwise)
   that derive a version of the first sharing all its untouched paths. *)
let arb_id_lists_edits =
  QCheck.make
    QCheck.Gen.(
      triple
        (list_size (int_range 0 40) (int_range 0 200))
        (list_size (int_range 0 40) (int_range 0 200))
        (list_size (int_range 0 6) (pair bool (int_range 0 200))))

let prop_idset_model =
  QCheck.Test.make ~name:"Idset ops agree with Set.Make(Int)" ~count:300
    arb_id_lists_edits (fun (l1, l2, edits) ->
      let module IS = Set.Make (Int) in
      let agree (s1, m1) (s2, m2) =
        let same s m = Idset.elements s = IS.elements m in
        same (Idset.union s1 s2) (IS.union m1 m2)
        && same (Idset.inter s1 s2) (IS.inter m1 m2)
        && same (Idset.diff s1 s2) (IS.diff m1 m2)
        && Idset.subset s1 s2 = IS.subset m1 m2
        && Idset.equal s1 s2 = IS.equal m1 m2
      in
      let edit (s, m) (add, k) =
        if add then (Idset.add k s, IS.add k m)
        else (Idset.remove k s, IS.remove k m)
      in
      let a = (Idset.of_list l1, IS.of_list l1) in
      let b = (Idset.of_list l2, IS.of_list l2) in
      let a' = List.fold_left edit a edits in
      (* Independent operands, a set and a version of it (both ways
         round), and a set paired with itself. *)
      agree a b && agree a a' && agree a' a && agree a a)

let prop_idset_compare =
  QCheck.Test.make ~name:"Idset compare is consistent with equal" ~count:300
    arb_id_lists (fun (l1, l2) ->
      let s1 = Idset.of_list l1 and s2 = Idset.of_list l2 in
      let c12 = Idset.compare s1 s2 and c21 = Idset.compare s2 s1 in
      if Idset.equal s1 s2 then c12 = 0 && c21 = 0
      else c12 <> 0 && c12 * c21 < 0)

(* --- Store ------------------------------------------------------------------ *)

let test_store_intern () =
  let t = Tuple.of_strings [ "store_x"; "store_y" ] in
  let id1 = Store.intern t in
  let id2 = Store.intern (Tuple.of_strings [ "store_x"; "store_y" ]) in
  check int "same tuple, same id" id1 id2;
  check bool "memoized tuple round trip" true (Tuple.equal t (Store.tuple id1));
  check int "hash precomputed" (Tuple.hash t) (Store.hash id1);
  check int "arity" 2 (Store.arity id1);
  check (Alcotest.string) "get" "store_y" (Symbol.name (Store.get id1 1))

let test_store_find_no_intern () =
  let probe = Tuple.of_strings [ "store_never_interned"; "q" ] in
  let before = Store.count () in
  check bool "find misses without interning" true (Store.find probe = None);
  check int "probe did not grow the store" before (Store.count ());
  let id = Store.intern probe in
  check (Alcotest.option int) "find after intern" (Some id) (Store.find probe);
  check bool "mem" true (Store.mem probe)

let test_store_partition_ids () =
  let id = Store.intern (Tuple.of_strings [ "part_probe"; "p" ]) in
  let p = Store.id_part id in
  check bool "stripe in range" true (p >= 0 && p < Store.partitions ());
  check int "id recomposes" id (Store.id_make ~part:p ~local:(Store.id_local id));
  check int "stripe counts sum to the total" (Store.count ())
    (Array.fold_left ( + ) 0 (Store.part_counts ()));
  (* The contention record is internally consistent: counters only grow
     and skew is bounded by the largest stripe. *)
  let c = Store.contention () in
  check bool "contention counters non-negative" true
    (c.Store.stripe_locks >= 0 && c.Store.cache_hits >= 0
   && c.Store.cache_misses >= 0 && c.Store.partition_skew >= 0);
  check bool "skew bounded by max stripe" true
    (c.Store.partition_skew
    <= Array.fold_left max 0 (Store.part_counts ()))

(* --- Relation store --------------------------------------------------------- *)

let t2 a b = Tuple.of_strings [ a; b ]

let test_store_round_trip () =
  let r = Relation.of_list 2 [ t2 "a" "b"; t2 "b" "c"; t2 "a" "b" ] in
  check int "of_list dedups" 2 (Relation.cardinal r);
  check bool "mem" true (Relation.mem (t2 "b" "c") r);
  check bool "not mem" false (Relation.mem (t2 "c" "b") r);
  let r' = Relation.of_seq 2 (List.to_seq (Relation.to_list r)) in
  check bool "of_seq round trip" true (Relation.equal r r')

let test_store_add_all () =
  let r = Relation.of_list 2 [ t2 "a" "b" ] in
  (* Build a column index first so add_all must extend it. *)
  ignore (Relation.matching 0 (Symbol.intern "a") r);
  let r' = Relation.add_all [ t2 "a" "c"; t2 "a" "b"; t2 "d" "e" ] r in
  check int "add_all adds only fresh" 3 (Relation.cardinal r');
  check int "extended index serves new tuples" 2
    (List.length (Relation.matching 0 (Symbol.intern "a") r'))

let test_store_builder () =
  let b = Relation.builder 2 in
  check bool "first add is fresh" true (Relation.builder_add b (t2 "a" "b"));
  check bool "duplicate add reports stale" false
    (Relation.builder_add b (t2 "a" "b"));
  check bool "second fresh" true (Relation.builder_add b (t2 "b" "c"));
  check int "builder cardinal" 2 (Relation.builder_cardinal b);
  let r = Relation.build b in
  check int "built cardinal" 2 (Relation.cardinal r)

let test_store_full () =
  let u = List.map Symbol.intern [ "a"; "b"; "c" ] in
  let full = Relation.full u 2 in
  check int "full 3^2" 9 (Relation.cardinal full);
  let pairs =
    List.concat_map (fun x -> List.map (fun y -> Tuple.make [| x; y |]) u) u
  in
  check bool "full = every pair" true
    (Relation.equal full (Relation.of_list 2 pairs))

(* [set_default_storage] remains only so the end-to-end bench harness
   compiles; calling it must change nothing. *)
let test_default_storage () =
  let before = Relation.of_list 1 [ Tuple.of_strings [ "a" ] ] in
  Relation.set_default_storage `Hashed;
  check bool "later relations are unchanged" true
    (Relation.equal before (Relation.of_list 1 [ Tuple.of_strings [ "a" ] ]))

(* --- Concurrent interning ----------------------------------------------------- *)

(* Evaluation is sequential, but the Symbol and Store intern tables keep
   their locks for library callers that intern from several domains; these
   tests hammer them from concurrently running domains.  Every job interns
   an overlapping window of names and tuples; domain-safety means all jobs
   observe identical ids and every name/tuple round-trips afterwards. *)

(* Runs every job on a domain of its own; results in job order. *)
let in_domains jobs = List.map Domain.join (List.map Domain.spawn jobs)

let test_concurrent_interning () =
  let jobs = 8 and names = 200 in
  let name k = Printf.sprintf "conc_sym_%d" k in
  let job j () =
    (* Each job walks the shared window from a different offset so the
       domains race on first-intern of each name. *)
    List.init names (fun i ->
        let k = (i + (j * 17)) mod names in
        let sym = Symbol.intern (name k) in
        let id = Store.intern (Tuple.make [| sym; sym |]) in
        (k, (sym :> int), id))
  in
  let results =
    in_domains (List.init jobs job) |> List.map (List.sort compare)
  in
  (match results with
  | [] -> Alcotest.fail "no results"
  | first :: rest ->
    List.iteri
      (fun j r ->
        check bool
          (Printf.sprintf "job %d observed the same ids as job 0" (j + 1))
          true (r = first))
      rest);
  for k = 0 to names - 1 do
    check (Alcotest.string) "name round trip after the race" (name k)
      (Symbol.name (Symbol.intern (name k)))
  done

let test_concurrent_fresh () =
  let per_job = 50 in
  let job () = List.init per_job (fun _ -> Symbol.fresh "conc_fresh") in
  let all =
    in_domains (List.init 6 (fun _ -> job))
    |> List.concat
    |> List.map (fun s -> (s : Symbol.t :> int))
  in
  let distinct = List.sort_uniq compare all in
  check int "fresh symbols are globally distinct across domains"
    (List.length all) (List.length distinct)

(* Regression for Symbol.intern's lock-free fast path: names interned
   before the race must resolve to their existing ids from every domain
   without ever taking the lock's append path (the symbol count must not
   move). *)
let test_symbol_reintern_race () =
  let names = 300 in
  let name k = Printf.sprintf "reintern_%d" k in
  let expected =
    Array.init names (fun k -> (Symbol.intern (name k) :> int))
  in
  let count_before = Symbol.count () in
  let job j () =
    List.init names (fun i ->
        let k = (i + (j * 41)) mod names in
        (k, (Symbol.intern (name k) :> int)))
  in
  let results = in_domains (List.init 8 job) in
  List.iter
    (List.iter
       (fun (k, id) ->
         check int
           (Printf.sprintf "racing re-intern of %s kept its id" (name k))
           expected.(k) id))
    results;
  check int "racing re-interns created no symbols" count_before
    (Symbol.count ())

(* Eight domains intern overlapping segment batches into the same
   stripes; every domain must observe identical ids, the store must grow
   by exactly the distinct rows, and contents must round-trip. *)
let test_concurrent_intern_seg () =
  let k = 3 and rows = 400 and distinct = 157 in
  (* Row [r] is determined by [r mod distinct], so the 400-row batch
     re-interns most rows and the 8 domains collide heavily. *)
  let flat =
    Array.init (rows * k) (fun w ->
        let r = w / k and j = w mod k in
        let base = r mod distinct in
        Symbol.intern
          (Printf.sprintf "seg_%d_%d" j ((base * (j + 3)) mod distinct)))
  in
  let count_before = Store.count () in
  let job j () =
    List.init rows (fun i ->
        let r = (i + (j * 53)) mod rows in
        (r, Store.intern_seg flat ~pos:(r * k) ~len:k))
    |> List.sort compare
  in
  let results = in_domains (List.init 8 job) in
  (match results with
  | [] -> Alcotest.fail "no results"
  | first :: rest ->
    List.iteri
      (fun j r ->
        check bool
          (Printf.sprintf "domain %d observed the same ids" (j + 1))
          true (r = first))
      rest;
    let ids =
      List.sort_uniq compare (List.map snd first)
    in
    check int "distinct ids = distinct rows" distinct (List.length ids);
    check int "store grew by exactly the distinct rows"
      (count_before + distinct) (Store.count ());
    (* Striping sanity: 157 hash-scattered rows cannot all land in one
       of >= 2 stripes. *)
    if Store.partitions () > 1 then
      check bool "rows landed in more than one stripe" true
        (List.length
           (List.sort_uniq compare (List.map Store.id_part ids))
        > 1);
    List.iter
      (fun (r, id) ->
        check bool "segment round trip" true
          (Tuple.equal (Store.tuple id)
             (Tuple.make (Array.sub flat (r * k) k))))
      first)

(* --- Schema ---------------------------------------------------------------- *)

let test_schema () =
  let s = Schema.of_list [ ("e", 2); ("t", 1) ] in
  check (Alcotest.option Alcotest.int) "arity" (Some 2) (Schema.arity "e" s);
  check (Alcotest.option Alcotest.int) "missing" None (Schema.arity "x" s);
  Alcotest.check_raises "conflict"
    (Invalid_argument "Schema.add: e declared with arity 2, then 3")
    (fun () -> ignore (Schema.add "e" 3 s))

(* --- Database --------------------------------------------------------------- *)

let test_database_basics () =
  let db =
    Database.of_facts ~universe:[ "a"; "b"; "c" ]
      [ ("e", [ "a"; "b" ]); ("e", [ "b"; "c" ]); ("v", [ "a" ]) ]
  in
  check int "universe" 3 (Database.universe_size db);
  check bool "fact" true (Database.mem_fact "e" (Tuple.of_strings [ "a"; "b" ]) db);
  check bool "no fact" false
    (Database.mem_fact "e" (Tuple.of_strings [ "b"; "a" ]) db);
  check int "schema" 2 (List.length (Schema.to_list (Database.schema db)))

let test_database_universe_guard () =
  let db = Database.create_strings [ "a" ] in
  Alcotest.check_raises "outside universe"
    (Invalid_argument
       "Database.add_fact: tuple (z) of p uses a constant outside the universe")
    (fun () -> ignore (Database.add_fact "p" (Tuple.of_strings [ "z" ]) db))

let test_database_merge_restrict () =
  let d1 = Database.of_facts ~universe:[ "a" ] [ ("p", [ "a" ]) ] in
  let d2 = Database.of_facts ~universe:[ "b" ] [ ("q", [ "b" ]); ("p", [ "b" ]) ] in
  let m = Database.merge d1 d2 in
  check int "merged universe" 2 (Database.universe_size m);
  check int "merged p" 2
    (Relation.cardinal (Database.relation_or_empty ~arity:1 "p" m));
  let r = Database.restrict [ "q" ] m in
  check bool "restrict drops p" true (Database.relation "p" r = None);
  check bool "restrict keeps q" true (Database.relation "q" r <> None)

let test_database_parse () =
  let text =
    "% a graph\n#universe isolated.\nedge(a, b).\nedge(b, c).\nmark(a).\n"
  in
  let db = Database.parse_exn text in
  check int "universe includes isolated" 4 (Database.universe_size db);
  check bool "edge" true
    (Database.mem_fact "edge" (Tuple.of_strings [ "a"; "b" ]) db)

let test_database_parse_zero_ary () =
  let db = Database.parse_exn "flag." in
  check bool "zero-ary fact" true (Database.mem_fact "flag" Tuple.empty db)

let test_database_parse_errors () =
  (match Database.parse "edge(a, b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing paren accepted");
  (match Database.parse "bad stuff(a)." with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk accepted");
  (* An error names the line on which the offending statement starts,
     past comments and blank lines, even when the statement runs on. *)
  match Database.parse "% header\ne(a, b). e(b, c).\n\ne(c,\n  ,d)." with
  | Error msg ->
    check Alcotest.string "statement start"
      {|line 4: bad constant "" in "e(c,\n  ,d)"|} msg
  | Ok _ -> Alcotest.fail "empty constant accepted"

let test_database_parse_mixed_arity () =
  (* A predicate keeps the arity of its first fact; the reader used to
     raise from [Relation.add] instead. *)
  (match Database.parse "e(a, b).\ne(c)." with
  | Error msg ->
    check Alcotest.string "names the predicate and both arities"
      "line 2: arity mismatch: e(c) has 1 argument(s) but e has arity 2" msg
  | Ok _ -> Alcotest.fail "mixed arities accepted");
  match Database.parse "flag. flag(a)." with
  | Error msg ->
    check Alcotest.string "zero-ary first"
      "line 1: arity mismatch: flag(a) has 1 argument(s) but flag has arity 0"
      msg
  | Ok _ -> Alcotest.fail "mixed arities accepted"

let test_database_remove_fact () =
  let db = Database.of_facts ~universe:[] [ ("p", [ "a" ]); ("p", [ "b" ]) ] in
  let a = Tuple.of_strings [ "a" ] and b = Tuple.of_strings [ "b" ] in
  let db' = Database.remove_fact "p" a db in
  check bool "removed" false (Database.mem_fact "p" a db');
  check bool "other kept" true (Database.mem_fact "p" b db');
  check int "universe kept" 2 (Database.universe_size db');
  let empty = Database.remove_fact "p" b db' in
  check bool "emptied relation stays bound" true
    (Database.relation "p" empty <> None);
  check bool "absent tuple: same database" true
    (Database.equal db' (Database.remove_fact "p" a db'));
  check bool "unbound name: same database" true
    (Database.equal db (Database.remove_fact "q" a db))

let test_database_equal () =
  let d1 = Database.of_facts ~universe:[ "a" ] [ ("p", [ "a" ]) ] in
  let d2 = Database.of_facts ~universe:[ "a" ] [ ("p", [ "a" ]) ] in
  let d3 = Database.of_facts ~universe:[ "a"; "b" ] [ ("p", [ "a" ]) ] in
  check bool "equal" true (Database.equal d1 d2);
  check bool "universe matters" false (Database.equal d1 d3)

(* --- Properties ------------------------------------------------------------- *)

let tuple_gen =
  QCheck.Gen.(
    let* len = int_range 0 3 in
    list_size (return len) (int_range 0 5) >|= Tuple.of_ints)

let relation_of_tuples arity ts =
  List.fold_left
    (fun r t -> if Tuple.arity t = arity then Relation.add t r else r)
    (Relation.empty arity) ts

let arb_pair_of_relations =
  QCheck.make
    QCheck.Gen.(
      let* arity = int_range 0 2 in
      let tg =
        list_size (return arity) (int_range 0 4) >|= Tuple.of_ints
      in
      let* l1 = list_size (int_range 0 12) tg in
      let* l2 = list_size (int_range 0 12) tg in
      return (arity, l1, l2))

let prop_set_algebra_model =
  QCheck.Test.make ~name:"relation set algebra agrees with Set.Make(Tuple)"
    ~count:200 arb_pair_of_relations (fun (arity, l1, l2) ->
      let module TS = Set.Make (Tuple) in
      let r1 = Relation.of_list arity l1 and r2 = Relation.of_list arity l2 in
      let m1 = TS.of_list l1 and m2 = TS.of_list l2 in
      let same r m =
        List.equal Tuple.equal (Relation.to_list r) (TS.elements m)
      in
      same (Relation.union r1 r2) (TS.union m1 m2)
      && same (Relation.inter r1 r2) (TS.inter m1 m2)
      && same (Relation.diff r1 r2) (TS.diff m1 m2)
      && Relation.subset r1 r2 = TS.subset m1 m2
      && Relation.equal r1 r2 = TS.equal m1 m2)

let prop_union_commutes =
  QCheck.Test.make ~name:"union commutes" ~count:200 arb_pair_of_relations
    (fun (arity, l1, l2) ->
      let r1 = relation_of_tuples arity l1 in
      let r2 = relation_of_tuples arity l2 in
      Relation.equal (Relation.union r1 r2) (Relation.union r2 r1))

let prop_diff_inter_partition =
  QCheck.Test.make ~name:"diff + inter = left operand" ~count:200
    arb_pair_of_relations (fun (arity, l1, l2) ->
      let r1 = relation_of_tuples arity l1 in
      let r2 = relation_of_tuples arity l2 in
      Relation.equal
        (Relation.union (Relation.diff r1 r2) (Relation.inter r1 r2))
        r1)

let prop_tuple_compare_total =
  QCheck.Test.make ~name:"tuple compare antisymmetric" ~count:200
    (QCheck.make QCheck.Gen.(pair tuple_gen tuple_gen))
    (fun (t1, t2) ->
      let c12 = Tuple.compare t1 t2 and c21 = Tuple.compare t2 t1 in
      (c12 = 0 && c21 = 0 && Tuple.equal t1 t2) || c12 * c21 < 0)

(* Column indexes maintained through a run of operations equal indexes
   built fresh: every step starts from a relation indexed on every column
   (the previous check built them all), so [add]/[union] extend them and
   [remove]/[diff]/[tighten] take tuples out of them.  After a removal that
   leaves more tuples than it takes, the indexes must still be built — a
   silent fall-back to lazy rebuilds fails the property. *)
type rel_step =
  | Add of Tuple.t
  | Add_all of Tuple.t list
  | Remove of Tuple.t
  | Remove_nth of int
  | Union of Tuple.t list
  | Diff of Tuple.t list
  | Diff_version of int * Tuple.t list
      (** Diff with a version of the relation itself: its [n]th tuple
          removed, the list added. *)
  | Inter of Tuple.t list
  | Filter of int
  | Tighten of bool * int * Tuple.t list

let index_universe = 4

let pp_rel_step =
  let tl ts = String.concat " " (List.map Tuple.to_string ts) in
  function
  | Add t -> "add " ^ Tuple.to_string t
  | Add_all ts -> "add_all " ^ tl ts
  | Remove t -> "remove " ^ Tuple.to_string t
  | Remove_nth n -> Printf.sprintf "remove #%d" n
  | Union ts -> "union " ^ tl ts
  | Diff ts -> "diff " ^ tl ts
  | Diff_version (n, ts) -> Printf.sprintf "diff version -#%d +%s" n (tl ts)
  | Inter ts -> "inter " ^ tl ts
  | Filter k -> Printf.sprintf "filter col0 <> %d" k
  | Tighten (min, col, ts) ->
    Printf.sprintf "tighten %s@%d %s" (if min then "min" else "max") col (tl ts)

let arb_index_run =
  let open QCheck.Gen in
  let gen =
    let* arity = int_range 1 3 in
    let tuple =
      list_size (return arity) (int_range 0 (index_universe - 1))
      >|= Tuple.of_ints
    in
    let tuples = list_size (int_range 0 12) tuple in
    let step =
      frequency
        [
          (2, map (fun t -> Add t) tuple);
          (2, map (fun ts -> Add_all ts) tuples);
          (2, map (fun t -> Remove t) tuple);
          (3, map (fun n -> Remove_nth n) (int_range 0 100));
          (2, map (fun ts -> Union ts) tuples);
          (3, map (fun ts -> Diff ts) tuples);
          ( 3,
            map2
              (fun n ts -> Diff_version (n, ts))
              (int_range 0 100)
              (list_size (int_range 0 3) tuple) );
          (1, map (fun ts -> Inter ts) tuples);
          (1, map (fun k -> Filter k) (int_range 0 (index_universe - 1)));
          ( 2,
            map3
              (fun min col ts -> Tighten (min, col, ts))
              bool
              (int_range 0 (arity - 1))
              tuples );
        ]
    in
    let* init = list_size (int_range 0 30) tuple in
    let* steps = list_size (int_range 1 12) step in
    return (arity, init, steps)
  in
  QCheck.make gen ~print:(fun (arity, init, steps) ->
      Printf.sprintf "arity %d, %d initial tuples: %s" arity (List.length init)
        (String.concat "; " (List.map pp_rel_step steps)))

let prop_maintained_indexes =
  QCheck.Test.make ~name:"maintained indexes equal fresh ones" ~count:300
    arb_index_run (fun (arity, init, steps) ->
      let syms = List.init index_universe Symbol.of_int in
      let columns = List.init arity Fun.id in
      let consistent r =
        let all = Relation.to_list r in
        Relation.cardinal r = List.length all
        && List.for_all
             (fun col ->
               List.for_all
                 (fun c ->
                   List.equal Tuple.equal
                     (List.sort Tuple.compare (Relation.matching col c r))
                     (List.filter
                        (fun t -> Symbol.equal (Tuple.get t col) c)
                        all))
                 syms)
             columns
      in
      let of_list ts = Relation.of_list arity ts in
      let remove_nth n r =
        match Relation.to_list r with
        | [] -> r
        | all -> Relation.remove (List.nth all (n mod List.length all)) r
      in
      let step r = function
        | Add t -> Relation.add t r
        | Add_all ts -> Relation.add_all ts r
        | Remove t -> Relation.remove t r
        | Remove_nth n -> remove_nth n r
        | Union ts -> Relation.union r (of_list ts)
        | Diff ts -> Relation.diff r (of_list ts)
        | Diff_version (n, ts) ->
          Relation.diff r (Relation.add_all ts (remove_nth n r))
        | Inter ts -> Relation.inter r (of_list ts)
        | Filter k ->
          let c = Symbol.of_int k in
          Relation.filter (fun t -> not (Symbol.equal (Tuple.get t 0) c)) r
        | Tighten (min, col, ts) ->
          let kind = if min then `Min else `Max in
          fst (Relation.tighten ~kind ~col r (of_list ts))
      in
      let removes = function
        | Remove _ | Remove_nth _ | Diff _ | Diff_version _ -> true
        | Add _ | Add_all _ | Union _ | Inter _ | Filter _ | Tighten _ -> false
      in
      let r0 = of_list init in
      consistent r0
      && snd
           (List.fold_left
              (fun (r, ok) st ->
                let r' = step r st in
                let left = Relation.cardinal r - Relation.cardinal r' in
                let kept_indexes =
                  (not (removes st))
                  || left >= Relation.cardinal r'
                  || List.for_all (Relation.has_index r') columns
                in
                (r', ok && kept_indexes && consistent r'))
              (r0, true) steps))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_union_commutes;
      prop_diff_inter_partition;
      prop_tuple_compare_total;
      prop_idset_model;
      prop_idset_compare;
      prop_set_algebra_model;
      prop_maintained_indexes;
    ]

let () =
  Alcotest.run "relalg"
    [
      ( "symbol",
        [
          Alcotest.test_case "interning" `Quick test_symbol_interning;
          Alcotest.test_case "fresh" `Quick test_symbol_fresh;
          Alcotest.test_case "of_int" `Quick test_symbol_of_int;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basic" `Quick test_tuple_basic;
          Alcotest.test_case "compare" `Quick test_tuple_compare;
          Alcotest.test_case "ops" `Quick test_tuple_ops;
          Alcotest.test_case "immutability" `Quick test_tuple_immutability;
        ] );
      ( "relation",
        [
          Alcotest.test_case "set ops" `Quick test_relation_set_ops;
          Alcotest.test_case "arity mismatch" `Quick test_relation_arity_mismatch;
          Alcotest.test_case "product/project" `Quick test_relation_product_project;
          Alcotest.test_case "full/complement" `Quick test_relation_full_complement;
          Alcotest.test_case "zero arity" `Quick test_relation_full_zero_arity;
          Alcotest.test_case "map arity check" `Quick test_relation_map_arity;
          Alcotest.test_case "join" `Quick test_relation_join_positions;
          Alcotest.test_case "tighten" `Quick test_relation_tighten;
          Alcotest.test_case "tighten max" `Quick test_relation_tighten_max;
          Alcotest.test_case "dominant" `Quick test_relation_dominant;
        ] );
      ( "idset",
        [
          Alcotest.test_case "basic" `Quick test_idset_basic;
          Alcotest.test_case "sharing" `Quick test_idset_sharing;
          Alcotest.test_case "large" `Quick test_idset_large;
        ] );
      ( "store",
        [
          Alcotest.test_case "intern" `Quick test_store_intern;
          Alcotest.test_case "find without intern" `Quick
            test_store_find_no_intern;
          Alcotest.test_case "partitioned ids" `Quick test_store_partition_ids;
        ] );
      ( "storage",
        [
          Alcotest.test_case "round trip" `Quick test_store_round_trip;
          Alcotest.test_case "add_all" `Quick test_store_add_all;
          Alcotest.test_case "builder" `Quick test_store_builder;
          Alcotest.test_case "full" `Quick test_store_full;
          Alcotest.test_case "default storage" `Quick test_default_storage;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent interning" `Quick
            test_concurrent_interning;
          Alcotest.test_case "concurrent fresh" `Quick test_concurrent_fresh;
          Alcotest.test_case "racing re-intern" `Quick
            test_symbol_reintern_race;
          Alcotest.test_case "concurrent segment intern" `Quick
            test_concurrent_intern_seg;
        ] );
      ("schema", [ Alcotest.test_case "basic" `Quick test_schema ]);
      ( "database",
        [
          Alcotest.test_case "basics" `Quick test_database_basics;
          Alcotest.test_case "universe guard" `Quick test_database_universe_guard;
          Alcotest.test_case "merge/restrict" `Quick test_database_merge_restrict;
          Alcotest.test_case "parse" `Quick test_database_parse;
          Alcotest.test_case "parse zero-ary" `Quick test_database_parse_zero_ary;
          Alcotest.test_case "parse errors" `Quick test_database_parse_errors;
          Alcotest.test_case "parse mixed arity" `Quick
            test_database_parse_mixed_arity;
          Alcotest.test_case "remove fact" `Quick test_database_remove_fact;
          Alcotest.test_case "equal" `Quick test_database_equal;
        ] );
      ("properties", qcheck_tests);
    ]
