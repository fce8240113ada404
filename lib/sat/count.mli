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
    bound, never raising. *)

module ISet : Set.S with type elt = int

val components : int list list -> (int list list * ISet.t) list
(** Partition clauses into connected components of the variable-sharing
    graph; each component comes with the set of variables it constrains. *)

type partial = {
  value : int;
  exact : bool;  (** [false]: the budget ran out and [value] is only a
                     sound lower bound. *)
}

val count_clauses : budget:int -> int list list -> ISet.t -> partial
(** Count the models of [clauses] over the variable set [vars] (variables
    in [vars] untouched by any clause contribute a factor of 2), spending
    at most [budget] DPLL nodes.  Completed branch sides and components
    keep their exact contribution when the budget runs out mid-search. *)

val count : Cnf.t -> int
(** The number of satisfying assignments over all [num_vars] variables.
    Variables not constrained by any clause contribute a factor of 2. *)

val count_limited : budget:int -> Cnf.t -> Outcome.count
(** Like {!count}, but bounded by [budget] DPLL branching nodes: either
    [Exact n], or [Lower_bound (n, Node_budget)] carrying the partial work
    completed before the budget ran out. *)
