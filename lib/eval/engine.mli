(** The rule-evaluation engine — a consumer of {!Planlib} plans.

    Implements the paper's reading of a rule: all variables range over the
    universe of the database, with the variables that occur only in the body
    existentially quantified and the head collecting every witnessing
    binding.  Range restriction is {e not} assumed — variables not bound by
    any positive body literal are enumerated over the whole universe, which
    is what gives the toggle rule [t(Z) :- !q(U), !t(W)] its meaning.

    Since the plan layer was introduced the engine no longer plans joins
    itself: each rule is compiled once into a {!Planlib.Plan.t} and the
    hot loop executes plans.  The engine is parameterised by where each
    atom occurrence reads its relation, which lets every semantics in this
    library (simultaneous Theta, semi-naive deltas, stratified layers, the
    alternating fixpoint of the well-founded semantics) reuse one
    implementation. *)

type source = Planlib.Plan.source = {
  find : string -> int -> Relalg.Relation.t;
      (** [find pred arity]: current value of [pred]. *)
}

type occurrence = Planlib.Plan.occurrence = {
  polarity : [ `Pos | `Neg ];
  index : int;  (** Position of the literal in the rule body. *)
  pred : string;
}

type resolver = occurrence -> source
(** Decides, per atom occurrence, which source to read. *)

type indexing = [ `Cached ]
(** The one indexing mode: every join probe reads the relation's memoized
    column index (see {!Planlib.Plan.run}).  The type exists only because
    the end-to-end benchmark harness under [bench/e2e], which is frozen
    between benchmark revisions, still names the mode it runs (through
    [Negdl.run] and {!Serve.create}); it goes when that harness drops the
    argument. *)

type grain = [ `Auto ]
(** Sizes nothing: evaluation is sequential, so there are no morsels to
    size.  The type and {!set_default_grain} exist only for the same
    reason as {!indexing}; both go when the frozen [bench/e2e] harness
    drops the call. *)

val set_default_grain : grain -> unit
(** Does nothing; see {!grain}. *)

val plan_rule :
  ?cache:Planlib.Cache.t ->
  ?variant:Planlib.Plan.variant ->
  ?label:string ->
  ?limits:(string * (Datalog.Ast.limit_kind * int)) list ->
  ?stats:Stats.t ->
  universe_size:(unit -> int) ->
  resolver:resolver ->
  Datalog.Ast.rule ->
  Planlib.Plan.t
(** The rule's plan, fetched from [cache] when given (compiled otherwise),
    with cardinalities for the cost model read through [resolver] and the
    universe's size from [universe_size], which is called only to compile
    ({!Planlib.Cache.find}).  The cache is not synchronised: fetch plans
    from one domain at a time.  [limits] (the program's limit
    declarations) makes plans for limit-head rules close with the
    aggregation steps — see {!Planlib.Plan.compile}. *)

val run_plan :
  ?stats:Stats.t ->
  universe:Relalg.Symbol.t list ->
  resolver:resolver ->
  Planlib.Plan.t ->
  Relalg.Relation.t
(** Executes a plan: head tuples stream into a bulk accumulator
    ({!Relalg.Relation.builder}); the derived relation is built once.
    [stats], when given, accumulates
    rule-application, derivation, accumulator and plan counters. *)

val eval_rule :
  ?cache:Planlib.Cache.t ->
  ?variant:Planlib.Plan.variant ->
  ?stats:Stats.t ->
  universe:Relalg.Symbol.t list ->
  resolver:resolver ->
  Datalog.Ast.rule ->
  Relalg.Relation.t
(** {!plan_rule} followed by {!run_plan}: all head tuples derivable by the
    rule under the given sources. *)

val eval_rules :
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  universe:Relalg.Symbol.t list ->
  resolver:resolver ->
  schema:Relalg.Schema.t ->
  Datalog.Ast.rule list ->
  Idb.t
(** Union of {!eval_rule} over the rules, grouped by head predicate; the
    schema fixes the set and arities of the result's predicates. *)

val uniform : source -> resolver
(** Every occurrence reads the same source. *)

val database_source : Relalg.Database.t -> source
(** Missing relations read as empty. *)

val layered : Relalg.Database.t -> Idb.t -> source
(** IDB predicates read from the valuation, everything else from the
    database. *)
