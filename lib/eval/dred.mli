(** Incremental view maintenance (DRed, delete-and-rederive) — delta-driven,
    over the compiled-plan layer, for stratified programs.

    Given a stratified program, a database, its materialised model and an
    update batch (EDB facts to add and/or remove), maintenance avoids
    recomputing from scratch.  Strata are processed lowest first; within a
    stratum the per-predicate deltas of the levels below (the EDB changes,
    extended with each completed stratum's own differences) drive three
    phases:

    + {e over-delete}: delta-specialized rule variants seeded from the
      deleted lower facts (and from {e added} facts read through flipped
      negated literals — an addition kills derivations only through
      negation) transitively remove every materialised fact with an
      affected derivation, chasing within the stratum against the old
      valuation;
    + {e re-derive}: each rule is augmented with its own head as a
      prepended positive literal resolved to the overdeleted facts
      ([Delta 0]), so surviving alternative derivations put facts back with
      work driven by the deletion, not the relation; semi-naive evaluation
      ({!Saturate.run_delta}) continues from what came back;
    + {e insert}: the mirror-image triggers seed from the added facts
      (and from removed facts under negation) and semi-naive continues from
      the genuinely fresh derivations.  Additions that grow the universe
      additionally re-apply the non-range-restricted (enumerating) rules in
      full — the only rules that can derive from new constants alone.

    No grounding and no full per-rule application happens on the usual
    path: work per batch is proportional to the delta (the
    ["dred ..."] counters in {!Stats.field-extra} prove it).  That covers
    index upkeep too: the relations of the model keep their column indexes
    through the removals ({!Relalg.Relation.diff},
    {!Relalg.Relation.remove}), the old and new valuations share all but
    the changed paths ({!Relalg.Idset}), and the put-back rule's existence
    check probes a bound column instead of scanning — so after its first
    batches a server builds no index at all (the plan counters'
    [index_builds]).  The bookkeeping around the phases is the batch's
    too: a removal takes its fact out with {!Relalg.Database.remove_fact},
    without re-checking the facts that stay; whether the universe grew is
    read off the added facts' constants; the universe is listed once per
    batch (twice when it grew); and a rule application counts the
    universe only when its plan compiles or enumerates it
    ({!Planlib.Cache.find}, {!Planlib.Plan.run}).  The result
    equals recomputation on the new database — the test suite checks this
    against from-scratch saturation on random instances and update
    sequences, and checks [new_db] against a database built afresh from
    the final facts. *)

type delta = {
  new_db : Relalg.Database.t;
  new_idb : Idb.t;
  overdeleted : int;  (** Facts removed by over-deletion. *)
  rederived : int;
      (** Facts added back or newly derived (re-derivation and insertion
          phases together). *)
}

val apply :
  ?engine:Saturate.engine ->
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?who:string ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  current:Idb.t ->
  additions:(string * Relalg.Tuple.t) list ->
  removals:(string * Relalg.Tuple.t) list ->
  unit ->
  delta
(** [apply p db ~current ~additions ~removals ()] maintains [current] —
    which must be the stratified model of [p] on [db] — under one update
    batch.  Removals are applied before additions; a fact both removed and
    re-added survives.  Duplicate facts in a batch are collapsed; an
    addition already present is a no-op.  [cache], when given, shares
    compiled plans across batches (a long-lived server passes one);
    [engine]/[pool] select the engine for the semi-naive
    continuations.  [who] prefixes error messages (defaults to
    ["Dred.apply"]).
    @raise Invalid_argument if the program is not stratifiable, or a fact
    names an IDB predicate, disagrees with the known arity, or (for a
    removal) is absent from the database. *)

val delete_facts :
  Datalog.Ast.program ->
  Relalg.Database.t ->
  current:Idb.t ->
  removals:(string * Relalg.Tuple.t) list ->
  delta
(** [apply] with no additions (errors prefixed ["Dred.delete_facts"]). *)

val insert_facts :
  Datalog.Ast.program ->
  Relalg.Database.t ->
  current:Idb.t ->
  additions:(string * Relalg.Tuple.t) list ->
  delta
(** [apply] with no removals (errors prefixed ["Dred.insert_facts"]).
    Constants new to the universe are admitted. *)
