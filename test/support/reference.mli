(** A definition-level reference semantics for DATALOG-not programs.

    Everything here is written straight from the paper's definitions over
    OCaml [Set]s of ground facts, and shares no code with the engine's
    relation store, planner or evaluators: a rule is grounded by trying
    every assignment of its variables to the universe, and each body
    literal ([Pos], [Neg], [Eq], [Neq]) is checked directly on the ground
    facts.  It is exponential in the number of rule variables and meant
    only for the small universes of the property tests.

    Variables range over the database's whole universe A, which may be
    larger than the active domain of its facts (the paper's toggle rule
    and the {0,1} domain of Theorem 4 rely on that).  Order comparisons,
    additions and limit declarations are outside this reference and raise
    [Invalid_argument]. *)

type fact = string * string list
(** A predicate name and the names of its constants. *)

module Facts : Set.S with type elt = fact

type db = {
  universe : string list;
  edb : Facts.t;
}

val facts_of_bindings : (string * Relalg.Relation.t) list -> Facts.t
(** The facts of (predicate, relation) bindings — how a test reads an
    engine valuation to compare it with this module's results. *)

val of_database : Relalg.Database.t -> db
(** Reads a database's universe and facts.  With {!facts_of_bindings}, the
    only use of the engine's relation type in this module: the input
    boundary. *)

val theta : Datalog.Ast.program -> db -> Facts.t -> Facts.t
(** The immediate consequence operator: [theta p d s] is the set of head
    instances of all ground rule instances whose body holds in [d] and
    [s].  A body atom over a predicate that occurs in some head reads [s];
    any other atom reads the database. *)

val inflationary : Datalog.Ast.program -> db -> Facts.t
(** The inflationary fixpoint: the limit of S{_0} = {}, S{_ n+1} =
    S{_n} union Theta(S{_n}). *)

val stratified : Datalog.Ast.program -> db -> Facts.t option
(** The stratified model, or [None] when the program is not stratifiable.
    Strata come from the textbook level assignment (a head sits at least
    as high as each positive IDB body predicate and strictly higher than
    each negated one); each stratum is then the least fixpoint of its
    rules above the fixed lower strata. *)

val kripke_kleene : Datalog.Ast.program -> db -> Facts.t * Facts.t
(** The Kripke-Kleene (Fitting) model as its (true, possible) pair: the
    least fixpoint, in the knowledge order, of Fitting's three-valued
    operator, iterated from (empty, every atom of a head predicate over
    the universe).  A head is true when some ground instance has all
    positive atoms true and no negated atom possible, and possible when
    some instance has all positive atoms possible and no negated atom
    true. *)

val well_founded : Datalog.Ast.program -> db -> Facts.t * Facts.t
(** The well-founded model as its (true, possible) pair, by Van Gelder's
    alternating fixpoint over the whole program on this module's own
    grounding: A(S) is the least fixpoint of the ground instances with
    every negated IDB atom read in S, and from U = {}, O = A(U) the
    iteration U := A(O), O := A(U) runs until neither moves. *)

val fixpoints : Datalog.Ast.program -> db -> Facts.t list
(** Every fixpoint of Theta, by brute force on this module's own
    grounding (every assignment of each rule's variables, database
    literals decided).  A fixpoint holds only heads of instances, and
    Theta reads it only at the IDB atoms some body mentions, so each
    subset of those heads is tried, and each fixpoint found is confirmed
    by {!theta}.  Listed in increasing order of the guess.
    @raise Invalid_argument beyond 2{^ 20} guesses. *)

val fixpoint_search_size : Datalog.Ast.program -> db -> int
(** The number of atoms {!fixpoints} guesses: it tries 2{^ n} subsets. *)

val components : int list list -> (int list list * int list) list
(** The connected components of a clause list's variable-sharing graph,
    each with its variables in increasing order: the quadratic split that
    [Satlib.Count.components] replaced, kept as its order reference.  Each
    clause is checked against every group so far, and the groups it
    touches merge into one that lists the clause, then their clauses,
    latest group first.  Groups are listed latest first, and an empty
    clause is a group of its own. *)
