(** Standard least-fixpoint semantics for positive DATALOG programs.

    For a program without negation or inequality the operator Theta is
    monotone, so a least fixpoint exists (Tarski) and is reached by
    iterating Theta from the empty valuation (Section 2).  On such a program
    the inflationary iteration of Section 4 is that iteration, so this
    module is {!Inflationary.eval} behind a positivity check; the test suite
    holds both to the definition-level reference. *)

val least_fixpoint :
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Idb.t
(** {!Inflationary.eval}, whose [stats] stage is labelled [inflationary].
    @raise Invalid_argument if the program uses negation or inequality, or
    has inconsistent arities. *)
