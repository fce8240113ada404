(** Kripke-Kleene (Fitting) semantics: the three-valued least fixpoint.

    The third classical deterministic semantics for negation, rounding out
    the comparison set (fixpoint / inflationary / stratified /
    well-founded).  The Fitting operator acts on partial interpretations
    (T, P) — facts known true, facts possibly true — by one simultaneous
    three-valued consequence step:

    - a head becomes {e true} when some instance has all positive subgoals
      in T and no negated subgoal in P;
    - a head stays {e possible} when some instance has all positive
      subgoals in P and no negated subgoal in T.

    Iterated from the least-informative interpretation (T = empty,
    P = every derivable atom), the operator is monotone in the knowledge
    order, so it reaches a least fixpoint: the Kripke-Kleene model.

    It is always {e at most} as decided as the well-founded model (KK-true
    is contained in WF-true and KK-false in WF-false); the canonical
    separation is the positive loop [p :- p], which Kripke-Kleene leaves
    unknown but the well-founded semantics makes false.  The test suite
    checks both facts. *)

type model = {
  true_facts : Idb.t;
  possible : Idb.t;  (** True or unknown. *)
}

val unknown : model -> Idb.t

val is_total : model -> bool

val eval :
  ?cache:Planlib.Cache.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  model
(** [cache] retains the grounding's instantiation plans — see
    {!Ground.ground}. *)

val eval_ground : Ground.t -> model
(** Same, on an existing grounding. *)
