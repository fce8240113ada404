(* The win-move game under the semantics zoo — a guided tour of why the
   paper proposes inflationary semantics.

   win(X) <- e(X, Y), !win(Y): position X is winning if some move reaches a
   losing position.  The rule recurses through negation, so the stratified
   semantics refuses it outright.  Fixpoint semantics may offer zero, one,
   or many fixpoints depending on the graph (Section 2's trichotomy).  The
   well-founded semantics answers with three values (draws are 'unknown').
   Inflationary semantics always answers — though its answer on cyclic
   games ("reachable in an odd number of steps from somewhere") is cruder.

   Run with:  dune exec examples/win_move.exe *)

let win = Negdl.Parser.parse_program_exn "win(X) :- e(X, Y), !win(Y)."

let describe g name =
  let db = Negdl.Digraph.to_database g in
  Format.printf "--- %s ---@." name;
  (* Stratified: always fails. *)
  (match Negdl.run Negdl.Semantics_stratified win db with
  | Error e -> Format.printf "  stratified:    refused (%s)@." e
  | Ok _ -> Format.printf "  stratified:    (unexpectedly accepted)@.");
  (* Fixpoint census. *)
  let report = Negdl.analyze_fixpoints win db in
  Format.printf "  fixpoints:     %s@."
    (match report.Negdl.fixpoint_count with
    | Some 0 -> "none"
    | Some 1 -> "unique"
    | Some n -> Printf.sprintf "%d (non-deterministic!)" n
    | None -> "?");
  (* Kripke-Kleene: three-valued, more cautious than well-founded. *)
  let kk = Negdl.Fitting.eval win db in
  let kk_unknown = Negdl.Idb.total_cardinal (Negdl.Fitting.unknown kk) in
  Format.printf "  kripke-kleene: %d true, %d unknown@."
    (Negdl.Idb.total_cardinal kk.Negdl.Fitting.true_facts)
    kk_unknown;
  (* Well-founded: the game-theoretic answer. *)
  let model = Negdl.Wellfounded.eval win db in
  let tuples rel =
    String.concat " " (List.map Negdl.Tuple.to_string (Negdl.Relation.to_list rel))
  in
  Format.printf "  well-founded:  win=%s"
    (tuples (Negdl.Idb.get model.Negdl.Wellfounded.true_facts "win"));
  let unknown = Negdl.Wellfounded.unknown model in
  if Negdl.Idb.is_empty unknown then Format.printf " (no draws)@."
  else Format.printf " draws=%s@." (tuples (Negdl.Idb.get unknown "win"));
  (* Inflationary: total, but coarse. *)
  let infl = Negdl.Inflationary.carrier win ~carrier:"win" db in
  Format.printf "  inflationary:  win=%s@.@." (tuples infl)

let () =
  (* An acyclic game: fully determined; all semantics that answer agree. *)
  describe (Negdl.Generate.path 4) "path game v0 -> v1 -> v2 -> v3";

  (* A 2-cycle: a draw.  No stratification; two incomparable fixpoints
     ({v0} and {v1} -- either player can be declared the winner
     consistently!); the well-founded model leaves both unknown. *)
  describe (Negdl.Digraph.make 2 [ (0, 1); (1, 0) ]) "two-position loop";

  (* A 3-cycle: *no* fixpoint at all (the paper's odd cycle), but the
     well-founded and inflationary semantics still answer. *)
  describe (Negdl.Generate.cycle 3) "three-position loop";

  (* Cycle with an exit: v2 can escape to a sink v3. *)
  describe
    (Negdl.Digraph.make 4 [ (0, 1); (1, 0); (1, 2); (2, 3) ])
    "loop with an exit"
