(** Semantics-preserving program simplifications.

    The generated programs (the Fagin compiler's output, the succinct
    3-coloring stack) contain redundancies: duplicate body literals,
    trivially true or false comparisons, duplicate rules.  These passes
    clean them up; they preserve {e every} semantics in this repository —
    inflationary, stratified, well-founded, stable, and the full fixpoint
    census — a property the test suite checks on random programs.

    {!drop_underivable} is stronger and correspondingly more dangerous: it
    removes predicates that bottom-up derivation can never populate.  That
    is sound for the least-fixpoint family (inflationary, stratified,
    well-founded, stable models), but {e not} for arbitrary-fixpoint
    analysis: the paper's constructions rely on "guessable" relations
    introduced by self-supporting copy rules like [s(X) :- s(X)], which are
    bottom-up-underivable yet can hold any value in a fixpoint.  It is
    therefore excluded from {!simplify} unless [~aggressive:true] is
    passed. *)

val dedup_literals : Ast.rule -> Ast.rule
(** Removes duplicate body literals (keeping first occurrences). *)

val simplify_comparisons : Ast.rule -> Ast.rule option
(** Evaluates ground or reflexive comparisons: [t = t] disappears,
    [t != t] kills the rule ([None]); comparisons between distinct
    constants are decided. *)

val dedup_rules : Ast.program -> Ast.program
(** Removes exact duplicate rules. *)

val drop_underivable : Ast.program -> Ast.program
(** Removes rules about predicates that bottom-up evaluation can never
    populate (computed as a least fixpoint at the predicate level, with
    negated literals treated as true); positive occurrences kill their
    rules, negated occurrences evaporate.  Sound for the inflationary,
    stratified, well-founded and stable semantics; {b unsound} for the
    fixpoint census — see the module description. *)

val simplify : ?aggressive:bool -> Ast.program -> Ast.program
(** All universally-sound passes to a fixed point; with
    [~aggressive:true], also {!drop_underivable}.  Default: [false]. *)

val statistics : Ast.program -> Ast.program -> string
(** A one-line before/after summary (rule and literal counts). *)
