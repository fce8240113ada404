(** Model enumeration, counting and uniqueness via the CDCL solver.

    Enumeration proceeds by repeatedly solving and adding a blocking clause
    over a projection set of variables.  This powers the fixpoint census of
    the paper's Section 2 example (counting the 2{^n} fixpoints on n disjoint
    cycles) and the unique-fixpoint test of Theorem 2. *)

val models :
  ?projection:int list -> ?limit:int -> Cnf.t -> bool array list
(** [models ?projection ?limit cnf] lists satisfying assignments.  When
    [projection] is given, assignments are enumerated (and blocked) only up
    to their values on those variables, so each projected valuation appears
    once.  [limit] caps the number of models returned (default: no cap). *)

val count : ?projection:int list -> ?limit:int -> Cnf.t -> int
(** Number of (projected) models, capped at [limit] when given.  Runs the
    same solver calls as {!models} but keeps no model. *)

val is_unique : ?projection:int list -> Cnf.t -> bool
(** Exactly one (projected) model?  Costs at most two solver calls. *)

val forced_true : Cnf.t -> int list -> int list option
(** [forced_true cnf vars] is [None] when [cnf] is unsatisfiable, and
    otherwise [Some] of the subset of [vars] that are true in {e every}
    model of [cnf].  One solver session: a first call finds a model, then
    one call per candidate that model sets true — v is forced iff
    [cnf /\ -v] is unsatisfiable.  This is the NP-oracle loop used to
    compute the intersection of all fixpoints (Theorem 3). *)
