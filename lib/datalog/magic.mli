(** The magic-sets transformation (goal-directed evaluation for positive
    programs).

    Bottom-up evaluation computes whole relations; a query such as
    "tc(a, Y)?" needs only the part reachable from [a].  Magic sets rewrite
    the program so that bottom-up evaluation of the rewritten program
    explores exactly the query-relevant facts: predicates are {e adorned}
    with binding patterns ([b]ound / [f]ree per argument), every adorned
    rule is guarded by a {e magic} predicate holding the bindings the query
    actually asks for, and auxiliary magic rules push bindings sideways
    through rule bodies (left-to-right sideways information passing).

    Restricted to positive programs — the interaction of magic sets with
    negation is a research area of its own and out of scope for this
    reproduction. *)

type rewritten = {
  program : Ast.program;
      (** The rewritten program, including the magic seed fact. *)
  answer_pred : string;
      (** The adorned predicate holding the query's answers. *)
  seed_pred : string;  (** The magic predicate seeded by the query. *)
  adornment : string;  (** The query's binding pattern, e.g. ["bf"]. *)
}

val rewrite : Ast.program -> query:Ast.atom -> (rewritten, string) result
(** [rewrite p ~query] adorns and guards [p] for the given query atom
    (constants = bound, variables = free).  Fails when [p] uses negation or
    inequality, when the query predicate is not an IDB predicate of [p], or
    on arity mismatch. *)

val rewrite_exn : Ast.program -> query:Ast.atom -> rewritten

val bound_constants : Ast.atom -> Relalg.Symbol.t list
(** The query's constants, in positional order. *)
