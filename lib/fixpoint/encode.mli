(** SAT encoding of the fixpoint condition Theta(S) = S.

    One propositional variable per derivable ground atom — its id in the
    grounding, aux atoms included — plus one auxiliary variable per ground
    instance:

    - instance variable b {e iff} all its positive subgoals hold and no
      negated one does;
    - atom variable p {e iff} some instance with head p fires.

    An aux atom is defined like any other, so its variable is a function
    of the program atoms'.  One with an empty definition always holds, and
    the instances that read it leave it out, so that it ties no atoms into
    one component that the unfactored grounding keeps apart.  Models of the CNF restricted to the program
    atoms' variables are therefore exactly the fixpoints of (pi, D) — the
    constructive heart of "existence of fixpoints is in NP" (Section 3),
    run in reverse as a decision procedure. *)

type t

val build : Evallib.Ground.t -> t

val cnf : t -> Satlib.Cnf.t

val atom_variables : t -> int list
(** The projection set: variables standing for the program's ground atoms
    (aux atoms and instance variables excluded). *)

val idb_of_model : t -> bool array -> Evallib.Idb.t
(** Reads a solver model back into an IDB valuation. *)

val idb_of_true_vars : t -> int list -> Evallib.Idb.t
(** Valuation containing the program atoms of the listed variables. *)
