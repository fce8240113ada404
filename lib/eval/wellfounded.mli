(** Well-founded semantics via the alternating fixpoint (Van Gelder).

    An extension beyond the paper's proposals, included for comparison: the
    well-founded model is the third major deterministic semantics for
    negation discussed in the literature the paper engages (negation as
    failure, stratification, fixpoints).  It is three-valued: each IDB fact
    is true, false or unknown.  On stratifiable programs it is total and
    agrees with the stratified semantics; on the toggle rule it leaves
    everything unknown, while inflationary semantics makes everything true —
    a contrast the experiment harness surfaces.

    The alternating fixpoint computes A(S) = the least fixpoint of the
    program with all negated IDB literals frozen to the valuation S, then
    iterates U := A(O), O := A(U) from U = empty; U climbs, O descends, and
    the limits are the true and the possible facts respectively.

    {!eval} alternates only where it must.  The predicates that do not
    depend on negation through a cycle ({!Datalog.Stratify.split}) form a
    splitting set whose model is total: {!Stratified.walk} saturates them
    once, stratum by stratum.  The rules of the other, tainted predicates
    then alternate as one block that reads the walked facts as fixed
    relations.  On a stratifiable program nothing alternates and the walk
    is the stratified evaluation.  Limit declarations are ignored. *)

type model = {
  true_facts : Idb.t;   (** Facts true in the well-founded model. *)
  possible : Idb.t;     (** Facts true or unknown (the final overestimate). *)
}

val unknown : model -> Idb.t
(** [possible] minus [true_facts]. *)

val is_total : model -> bool
(** No unknown facts. *)

val eval :
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  model
(** [stats], when given, records a [stratum N] stage per stratum walked and
    one [well-founded] stage for the alternation, when there is one. *)

val reduct_fixpoint :
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Idb.t ->
  Idb.t
(** One application of the operator A to the whole program: the least
    fixpoint with negated IDB atoms read from the given fixed valuation.
    Exposed for tests (A is anti-monotone, so A o A is monotone — properties
    the suite checks). *)
