module Ast = Datalog.Ast

let variables = [ "X"; "Y"; "Z" ]

let preds = [ ("p", 1); ("q", 1); ("r", 2); ("e", 2); ("u", 1) ]

let idb_preds = [ ("p", 1); ("q", 1); ("r", 2) ]

let gen_term = QCheck.Gen.(map (fun v -> Ast.Var v) (oneofl variables))

let gen_atom_of preds =
  QCheck.Gen.(
    let* name, arity = oneofl preds in
    let* args = list_size (return arity) gen_term in
    return (Ast.atom name args))

let gen_literal =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun a -> Ast.Pos a) (gen_atom_of preds));
        (3, map (fun a -> Ast.Neg a) (gen_atom_of preds));
        ( 1,
          let* v1 = oneofl variables in
          let* v2 = oneofl variables in
          let* eq = bool in
          return
            (if eq then Ast.Eq (Ast.Var v1, Ast.Var v2)
             else Ast.Neq (Ast.Var v1, Ast.Var v2)) );
      ])

let gen_rule =
  QCheck.Gen.(
    let* head = gen_atom_of idb_preds in
    let* body_len = int_range 1 3 in
    let* body = list_size (return body_len) gen_literal in
    return (Ast.rule head body))

let gen_program =
  QCheck.Gen.(
    let* n = int_range 1 4 in
    let* rules = list_size (return n) gen_rule in
    return (Ast.program rules))

(* A random digraph on [lo] to [hi] vertices, each vertex marked [u] or
   not at random. *)
let gen_marked_graph lo hi =
  QCheck.Gen.(
    let* n = int_range lo hi in
    let* seed = int_range 0 10000 in
    let g = Graphlib.Generate.random ~seed ~n ~p:0.35 in
    let db = Graphlib.Digraph.to_database g in
    let* marks = list_size (return n) bool in
    let db =
      List.fold_left
        (fun db (v, marked) ->
          if marked then
            Relalg.Database.add_fact "u"
              (Relalg.Tuple.singleton (Graphlib.Digraph.vertex_symbol v))
              db
          else db)
        db
        (List.mapi (fun v m -> (v, m)) marks)
    in
    return db)

let gen_database = gen_marked_graph 2 4

let print_case (p, db) =
  Printf.sprintf "program:\n%s\ndatabase:\n%s"
    (Datalog.Pretty.program_to_string p)
    (Relalg.Database.to_string db)

let arb_case =
  QCheck.make (QCheck.Gen.pair gen_program gen_database) ~print:print_case

(* --- random two-component bodies ----------------------------------------- *)

(* Two test rules whose bodies end in the same component over A, B,
   which shares no variable with the prefix before it.  The first rule's
   prefix is a driving chain over X, Z, Y, where Z is dead (absent from the
   head); the second's is another join over X and Y.  The component reads
   the transitive closure r, positive or negated.  r grows at every
   inflationary stage, so a buffer of the component's rows is right for
   one rule application only, and a positive r in it makes a key met at
   one stage owe new rows at a later one.  Each head keeps both X and Y,
   so prefix rows deduplicated on fewer slots lose tuples; the two heads
   may arrange their arguments differently, so the rules may share keys
   only when they emit the same rows for them.  Sometimes the component
   also reads !w(B), where w reads !h: the program is then
   unstratifiable. *)
let gen_hoist_program =
  QCheck.Gen.(
    let* p1 = oneofl [ "e"; "r" ] in
    let* p2 = oneofl [ "e"; "r" ] in
    let* guard = oneofl [ ""; ", u(X)"; ", !u(Y)" ] in
    let* hoisted =
      oneofl
        [
          "!r(A, B)";
          "r(A, B)";
          "!r(B, A), u(A)";
          "r(A, B), !e(A, B)";
          "!r(A, B), !r(B, A)";
        ]
    in
    let heads = [ "h(X, Y, A, B)"; "h(Y, B, X, A)"; "h(X, B, Y, B)" ] in
    let* head = oneofl heads in
    let* head2 = oneofl heads in
    let* prefix2 = oneofl [ "e(X, Y)"; "r(Y, X)"; "e(X, Y), !r(Y, X)" ] in
    let* toggle = bool in
    let hoisted = if toggle then hoisted ^ ", !w(B)" else hoisted in
    let text =
      Printf.sprintf
        "r(X, Y) :- e(X, Y).\n\
         r(X, Y) :- e(X, Z), r(Z, Y).\n\
         %s :- %s(X, Z), %s(Z, Y)%s, %s.\n\
         %s :- %s, %s.%s"
        head p1 p2 guard hoisted head2 prefix2 hoisted
        (if toggle then "\nw(X) :- u(X), !h(X, X, X, X)." else "")
    in
    return (Datalog.Parser.parse_program_exn text))

let gen_hoist_case =
  QCheck.Gen.pair gen_hoist_program (gen_marked_graph 3 6)

let arb_hoist_case = QCheck.make gen_hoist_case ~print:print_case

let print_cases (p, dbs) =
  String.concat "\n" (List.map (fun db -> print_case (p, db)) dbs)

let arb_hoist_cases =
  QCheck.make
    (QCheck.Gen.pair gen_hoist_program
       (QCheck.Gen.list_repeat 3 (gen_marked_graph 3 6)))
    ~print:print_cases

(* --- strata around a negative cycle ------------------------------------- *)

(* A component [w] with negation inside a cycle, between stratified
   predicates.  Below it lie [b], the transitive closure of [e], and [c],
   which negates [b] or [u]; [w] reads [e] or [b] positively and may read
   [c] or negate [c] or [b].  Above it, [a] reads [w] positively, [n]
   negates [w] or [a], and [t] reads [n] positively or under negation.
   When [w] reads only [e], [u], [b] positively and its own negation, it
   sits at layer 0 with the untainted [b], and [n] at layer 1, with [c]
   when [c] negates [b].  The graphs are small enough that [e] often has
   an odd cycle, whose [w] facts are unknown. *)
let gen_split_program =
  QCheck.Gen.(
    let* c_rule =
      oneofl [ "c(X) :- u(X), !b(X, X)."; "c(X) :- e(X, Y), !u(Y)." ]
    in
    let* w_drive = oneofl [ "e(X, Y)"; "b(X, Y)"; "e(Y, X)" ] in
    let* w_extra = oneofl [ ""; ", !c(Y)"; ", c(X)"; ", !b(Y, X)"; ", u(Y)" ] in
    let* w_second =
      oneofl [ ""; "w(X) :- e(X, Y), u(Y), !w(Y).\n"; "w(X) :- c(X), !w(X).\n" ]
    in
    let* a_guard = oneofl [ ""; ", u(X)"; ", !c(X)"; ", b(X, X)" ] in
    let* a_rec = oneofl [ ""; "a(X) :- e(X, Y), a(Y).\n" ] in
    let* n_rule =
      oneofl
        [
          "n(X) :- u(X), !w(X).";
          "n(X) :- e(X, Y), !w(Y).";
          "n(X) :- b(X, Y), !a(Y).";
          "n(X) :- c(X), !a(X), !w(X).";
        ]
    in
    let* t_rule =
      oneofl
        [
          "t(X, Y) :- b(X, Y), n(X), !c(Y).";
          "t(X, Y) :- n(X), n(Y), !b(X, Y).";
          "t(X, Y) :- e(X, Y), !n(Y), !w(X).";
        ]
    in
    let text =
      Printf.sprintf
        "b(X, Y) :- e(X, Y).\n\
         b(X, Y) :- e(X, Z), b(Z, Y).\n\
         %s\n\
         w(X) :- %s, !w(Y)%s.\n\
         %sa(X) :- w(X)%s.\n\
         %s%s\n\
         %s"
        c_rule w_drive w_extra w_second a_guard a_rec n_rule t_rule
    in
    return (Datalog.Parser.parse_program_exn text))

let arb_split_case =
  QCheck.make
    (QCheck.Gen.pair gen_split_program (gen_marked_graph 3 6))
    ~print:print_case

(* --- random limit programs ---------------------------------------------- *)

(* A weighted-graph cost workload whose shape guarantees termination of
   both the tightening evaluation and its pair-materializing reference
   (the [<= cap] guard bounds every derivable cost), and whose guard
   polarity matches the limit kind so the stratum above the limit
   predicate stays monotone under tightening.  Randomness lives in the
   kind, the cap/threshold, the negated stratum, the rule set (an
   optional unit-cost hop counter as a second limit predicate) and the
   weighted digraph. *)
let gen_limit_case =
  QCheck.Gen.(
    let* kind = oneofl [ Ast.Min; Ast.Max ] in
    let* cap = int_range 6 14 in
    let* thr = int_range 0 cap in
    let* negated = bool in
    let* two_sources = bool in
    let* with_hops = bool in
    let guard = match kind with Ast.Min -> "<=" | Ast.Max -> ">=" in
    (* A [S <= cap] guard is monotone in a min bound (shrinking D keeps
       the guard satisfied) but anti-monotone in a max bound, where the
       stratifier rightly rejects it.  So min workloads terminate by the
       cap over an arbitrary digraph, and max workloads terminate
       structurally over a DAG with no guard at all. *)
    let cap_guard =
      match kind with
      | Ast.Min -> Printf.sprintf ", S <= %d" cap
      | Ast.Max -> ""
    in
    let text =
      Printf.sprintf
        "dist(X, 0) :- source(X).\n\
         dist(Y, S) :- dist(X, D), edge(X, Y, W), S = D + W%s.\n\
         near(X) :- dist(X, D), D %s %d.%s%s"
        cap_guard guard thr
        (if negated then "\nfar(X) :- node(X), !near(X)." else "")
        (if with_hops then
           Printf.sprintf
             "\nhops(X, 0) :- source(X).\n\
              hops(Y, S) :- hops(X, D), edge(X, Y, W), S = D + 1%s."
             cap_guard
         else "")
    in
    let rules = (Datalog.Parser.parse_program_exn text).Ast.rules in
    let limits =
      { Ast.limit_pred = "dist"; kind; column = 1 }
      :: (if with_hops then [ { Ast.limit_pred = "hops"; kind; column = 1 } ]
          else [])
    in
    let* n = int_range 3 6 in
    let* nedges = int_range n (3 * n) in
    let* edges =
      list_size (return nedges)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 4))
    in
    let edges =
      match kind with
      | Ast.Min -> edges
      | Ast.Max ->
        (* Orient every edge upward and drop self-loops: acyclicity is
           the max workload's termination argument. *)
        List.filter_map
          (fun (a, b, w) ->
            if a = b then None else Some (min a b, max a b, w))
          edges
    in
    let v i = Relalg.Symbol.intern (Printf.sprintf "v%d" i) in
    let add_fact pred syms db =
      Relalg.Database.add_fact pred
        (Relalg.Tuple.of_list syms)
        (Relalg.Database.add_universe syms db)
    in
    let db = Relalg.Database.create ~universe:[] in
    let db = add_fact "source" [ v 0 ] db in
    let db = if two_sources && n > 1 then add_fact "source" [ v 1 ] db else db in
    let db =
      List.fold_left
        (fun db i -> add_fact "node" [ v i ] db)
        db
        (List.init n (fun i -> i))
    in
    let db =
      List.fold_left
        (fun db (a, b, w) ->
          add_fact "edge" [ v a; v b; Relalg.Symbol.of_int w ] db)
        db edges
    in
    return (Ast.program ~limits rules, Ast.program rules, db))

let print_limit_case (limit_p, _pairs_p, db) =
  Printf.sprintf "program:\n%s\ndatabase:\n%s"
    (Datalog.Pretty.program_to_string limit_p)
    (Relalg.Database.to_string db)

let arb_limit_case = QCheck.make gen_limit_case ~print:print_limit_case

let positivise (p : Ast.program) =
  let fix_rule (r : Ast.rule) =
    let body =
      List.filter
        (function
          | Ast.Pos _ | Ast.Eq _ -> true
          | Ast.Neg _ | Ast.Neq _ | Ast.Leq _ | Ast.Geq _ | Ast.Plus _ ->
            false)
        r.body
    in
    let body =
      if List.exists (function Ast.Pos _ -> true | _ -> false) body then body
      else Ast.Pos (Ast.atom "e" [ Ast.Var "X"; Ast.Var "Y" ]) :: body
    in
    { r with Ast.body }
  in
  Ast.program (List.map fix_rule p.Ast.rules)
