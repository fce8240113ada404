(** The fixpoint query suite, answered through the SAT encoding.

    These are exactly the decision problems whose complexity Section 3
    pins down:

    - {!exists} / {!find} — fixpoint existence (NP-complete for fixed
      programs, Theorem 1; NEXP-complete with the program as input,
      Theorem 4: the exponential grounding step is visible here);
    - {!has_unique} — unique fixpoint (US-complete, Theorem 2);
    - {!least} — least fixpoint existence (US-hard, in FO(NP), Theorem 3):
      implemented with the paper's characterisation — compute the
      intersection of all fixpoints with one NP-oracle (SAT) call per
      ground atom, then check that the intersection is itself a fixpoint;
    - {!enumerate} / {!count} — fixpoint census (used to reproduce the
      2{^ n} incomparable fixpoints of the Section 2 example).

    Every SAT call goes to the one sequential CDCL search of
    {!Satlib.Solver}.  The census decomposes by connected CNF components
    ({!Satlib.Count.components}), counted or enumerated one component at a
    time and combined in component order.  Counts saturate instead of
    wrapping.  Budgets degrade into structured {!Satlib.Outcome} values
    instead of exceptions. *)

type t

val prepare :
  ?planner:Planlib.Plan.planner ->
  ?plan_cache:Planlib.Cache.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  t
(** Grounds the program ({!Evallib.Ground.ground} — [plan_cache] retains
    the instantiation plans for display) and builds the SAT encoding.
    [planner] is ignored; it remains for the same reason as
    {!Planlib.Plan.planner}.
    @raise Invalid_argument as {!Evallib.Ground.ground} does, so a program
    with limit declarations is refused. *)

val ground : t -> Evallib.Ground.t

val atom_count : t -> int

val exists : t -> bool

val exists_outcome :
  ?conflict_budget:int ->
  ?time_budget:float ->
  t ->
  Satlib.Outcome.t
(** Budgeted fixpoint existence: [Unknown] when the budget runs out before
    the SAT search decides. *)

val find : t -> Evallib.Idb.t option
(** Some fixpoint, if any. *)

val find_outcome :
  ?conflict_budget:int ->
  ?time_budget:float ->
  t ->
  [ `Found of Evallib.Idb.t
  | `No_fixpoint
  | `Unknown of Satlib.Outcome.reason ]
(** Budgeted {!find}. *)

val enumerate : ?limit:int -> t -> Evallib.Idb.t list
(** All fixpoints (up to [limit]).  Independent CNF components are
    enumerated one after another, in component order, and
    cross-product-combined; single-component encodings keep the flat
    blocking-clause enumeration order. *)

val count : ?limit:int -> t -> int
(** The number of fixpoints, capped at [limit]: the length of
    [enumerate ?limit t], without building it.  With [limit], each
    component's models are counted by SAT enumeration with blocking
    clauses (one solver call per projected model, at most [limit] of
    them), and the counts are multiplied, capped at [limit] after every
    step: min(limit, the product).  Without it, the census is
    {!count_exact}'s with no node budget, saturating at [max_int]: its
    time follows the components' structure, not the number of
    fixpoints. *)

val count_exact : ?budget:int -> t -> Satlib.Outcome.count
(** Census by exact model counting (#SAT with component decomposition) —
    sound because the encoding's auxiliary variables are functionally
    determined by the atom variables.  On the Section 2 example G{_n}
    (k disjoint cycles) this counts the 2{^ k} fixpoints without
    enumerating them.  Components are counted one after another, each
    with an equal share of the budget.  When the [budget] of
    counting nodes (default two million) runs out, the completed work is
    kept and reported as [Lower_bound] — this function never raises.  A
    census that reaches [max_int] is
    [Lower_bound (max_int, Count_overflow)]. *)

val has_unique : t -> bool

val intersection : t -> Evallib.Idb.t option
(** Pointwise intersection of {e all} fixpoints ([None] when there is no
    fixpoint), from {!Satlib.Enumerate.forced_true}: one solver session,
    one SAT call to find a fixpoint and one per atom it contains. *)

val least : t -> Evallib.Idb.t option
(** The least fixpoint, if one exists. *)

val minimal : t -> Evallib.Idb.t option
(** Some {e minimal} fixpoint, obtained by iteratively shrinking a model
    with SAT calls.  A least fixpoint, when it exists, is the unique
    minimal one. *)
