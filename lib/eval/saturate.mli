(** Inflationary iteration to a fixed point — the shared machinery.

    Computes the limit of S{_0} = init, S{_{n+1}} = S{_n} union Theta(S{_n})
    for the given rules, where only the predicates of [schema] evolve;
    everything else reads from [base].  Because the sequence is increasing
    and bounded by |A|{^ k} per k-ary predicate, the iteration terminates in
    polynomially many stages (Section 4).

    The iteration is semi-naive: stage 1 applies every rule in full, and
    each later stage only explores derivations that touch a tuple added in
    the previous stage.  With negation this differential cut is still
    sound {e for inflationary iteration}: negated literals only lose truth
    as S grows, so a body newly satisfiable at stage n+1 must bind some
    positive evolving literal to a stage-n tuple.  The stages run
    sequentially on the calling domain; {!Theta.inflate} iterated to its
    fixpoint is the naive reading, which the tests compare against.

    The [neg] parameter selects where {e negated} occurrences of evolving
    predicates read: the current valuation (inflationary semantics) or a
    fixed valuation (the reduct step of the well-founded alternating
    fixpoint). *)

type trace = {
  result : Idb.t;
  deltas : Idb.t list;
      (** [deltas] has one entry per stage, stage 1 first: the tuples that
          entered at that stage.  Their union is [result] minus the initial
          valuation. *)
}

val stages : trace -> int

val stage_of : trace -> string -> Relalg.Tuple.t -> int option
(** 1-based stage at which a tuple entered, [None] if it never did. *)

val delta_positions :
  schema:Relalg.Schema.t -> Datalog.Ast.rule -> int list
(** Body positions of positive occurrences of evolving predicates — the
    delta-specialized plan variants semi-naive evaluation compiles (one
    per position); [negdl explain] uses this to show them. *)

val run :
  ?cache:Planlib.Cache.t ->
  ?limits:(string * (Datalog.Ast.limit_kind * int)) list ->
  ?stats:Stats.t ->
  ?label:string ->
  rules:Datalog.Ast.rule list ->
  schema:Relalg.Schema.t ->
  universe:Relalg.Symbol.t list ->
  base:Engine.source ->
  neg:[ `Current | `Frozen of Engine.source ] ->
  init:Idb.t ->
  unit ->
  trace
(** Each rule is compiled once per variant — the full application and one
    delta-specialized variant per positive evolving body position — into a
    {!Planlib.Plan.t} and reused across iterations; [cache], when given,
    additionally shares plans across saturations (the well-founded
    alternating fixpoint and the stratified layers pass one).  [stats], when
    given, accumulates iteration/rule/index counters; if [label] is also
    given, the run's wall time is recorded as a stage under that name (the
    stratified evaluator labels each stratum, the inflationary evaluator
    the whole saturation).  [limits] — the program's limit declarations —
    switches every stage's union to {!Idb.tighten_union}: candidates for a
    declared limit relation land only when they strictly improve their
    group's bound, the stage delta is the changed-group delta, and plans
    for limit-head rules close with the aggregation steps. *)

val run_delta :
  ?cache:Planlib.Cache.t ->
  ?limits:(string * (Datalog.Ast.limit_kind * int)) list ->
  ?stats:Stats.t ->
  ?label:string ->
  rules:Datalog.Ast.rule list ->
  schema:Relalg.Schema.t ->
  universe:Relalg.Symbol.t list ->
  base:Engine.source ->
  neg:[ `Current | `Frozen of Engine.source ] ->
  init:Idb.t ->
  delta:Idb.t ->
  unit ->
  trace
(** Semi-naive continuation seeded from a known delta: starts the delta
    chase at ([init], [delta]) — [init] must already contain [delta] —
    with {e no} full stage-1 application of the rules.  This is the
    incremental-maintenance entry point: after an update batch the caller
    knows exactly which tuples are new, so grounding work is proportional
    to the delta, not to the whole program ({!Dred}).  Sound whenever
    every derivation of a missing fact binds at least one positive
    evolving literal to a tuple outside [init] minus [delta] — in
    particular for continuing any inflationary iteration from a subset of
    its limit that contains all its non-delta consequences.  An empty
    [delta] returns [init] unchanged without touching the cache. *)
