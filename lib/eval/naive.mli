(** Standard least-fixpoint semantics for positive DATALOG programs.

    For a program without negation or inequality the operator Theta is
    monotone, so a least fixpoint exists (Tarski) and is reached by
    iterating Theta from the empty valuation (Section 2).  This module is
    the textbook bottom-up evaluation; the inflationary semantics of
    Section 4 coincides with it on positive programs, which the test suite
    checks extensively. *)

val least_fixpoint :
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Idb.t
(** Semi-naive iteration from the empty valuation ({!Saturate.run}).
    @raise Invalid_argument if the program uses negation or inequality, or
    has inconsistent arities. *)

val least_fixpoint_trace :
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Saturate.trace
(** Same, keeping the per-stage deltas. *)
