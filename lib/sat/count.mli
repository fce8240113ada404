(** Exact model counting (#SAT).

    A DPLL-style counter with unit propagation, connected-component
    decomposition (disjoint variable sets multiply) and free-variable
    accounting.  Exponential in the worst case, but the component split
    makes structured instances cheap — the paper's G{_n} census is the
    poster child: the fixpoint encoding of pi_1 on k disjoint cycles falls
    apart into k independent components, so counting its 2{^ k} fixpoints
    costs O(k) component counts instead of 2{^ k} enumeration calls.

    Every total model of the fixpoint encoding is determined by its atom
    variables (the instance auxiliaries are biconditionally defined), so
    the unprojected count below {e is} the fixpoint count — the fact
    [Fixpointlib.Solve.count_exact] relies on.

    Budgets degrade gracefully: when the node budget runs out the counter
    keeps every completed sub-count and reports the total as a lower
    bound, never raising.  Counts saturate instead of wrapping: a count
    that reaches [max_int] is reported as
    [Lower_bound (max_int, Count_overflow)]. *)

module ISet : Set.S with type elt = int

val components : int list list -> (int list list * ISet.t) list
(** Partition clauses into connected components of the variable-sharing
    graph; each component comes with the set of variables it constrains.
    Union-find over variable ids: near-linear in the number of literals.

    The order is part of the contract: the census combines components in
    it, and the solver's enumeration order within a component follows its
    clause order, so [negdl fixpoints --enumerate] prints in it.  It is
    the order of [Testsupport.Reference.components]:
    - the component holding the latest clause comes first (components by
      descending index of their last clause);
    - a component lists the clause that formed it, then the clauses of
      the components that clause merged, latest component first, each in
      its own order (a component that only ever grew by one touching
      clause at a time lists its clauses latest first);
    - an empty clause is a component of its own, with no variables. *)

val mul : int -> int -> int
(** Saturating product of two non-negative counts: [max_int] stands for
    "[max_int] or more". *)

val pow2 : int -> int
(** [pow2 n] is 2{^ n}, saturating at [max_int].
    @raise Invalid_argument when [n] is negative. *)

type partial = {
  value : int;  (** Saturated: [max_int] stands for "[max_int] or more". *)
  exact : bool;  (** [false]: the budget ran out and [value] is only a
                     sound lower bound. *)
}

val to_outcome : partial -> Outcome.count
(** [Exact value] for an exact count below [max_int];
    [Lower_bound (max_int, Count_overflow)] for a saturated one, cut by the
    budget or not; [Lower_bound (value, Node_budget)] otherwise. *)

val count_clauses : budget:int -> int list list -> ISet.t -> partial
(** Count the models of [clauses] over the variable set [vars] (variables
    in [vars] untouched by any clause contribute a factor of 2), spending
    at most [budget] DPLL nodes.  Completed branch sides and components
    keep their exact contribution when the budget runs out mid-search. *)

val count : Cnf.t -> int
(** The number of satisfying assignments over all [num_vars] variables.
    Variables not constrained by any clause contribute a factor of 2.
    @raise Invalid_argument when the count reaches [max_int]; use
    {!count_limited} to get a saturated bound instead. *)

val count_limited : budget:int -> Cnf.t -> Outcome.count
(** Like {!count}, but bounded by [budget] DPLL branching nodes: [Exact n];
    [Lower_bound (n, Node_budget)] carrying the partial work completed
    before the budget ran out; or [Lower_bound (max_int, Count_overflow)]
    when the count reaches [max_int]. *)
