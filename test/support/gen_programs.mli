(** Random DATALOG-not programs and databases for property tests.

    One shared generator so every suite exercises the same program space:
    IDB predicates p/1, q/1, r/2 over EDB e/2 (a random digraph) and u/1
    (random unary marks), with variables X, Y, Z, negation, and
    (in)equalities. *)

val gen_program : Datalog.Ast.program QCheck.Gen.t

val gen_database : Relalg.Database.t QCheck.Gen.t

val arb_case : (Datalog.Ast.program * Relalg.Database.t) QCheck.arbitrary
(** A program and a database, printed readably on failure. *)

val arb_hoist_case :
  (Datalog.Ast.program * Relalg.Database.t) QCheck.arbitrary
(** A program whose two test rules for [h] end in the same component over
    [A, B], the shape whose component a plan runs once per application:
    it reads the transitive closure [r] of [e], positive or negated, which
    grows at every inflationary stage.  The first rule's prefix is a
    driving chain [e|r(X, Z), e|r(Z, Y)] with the dead variable [Z]; the
    second's is another join over [X] and [Y].  Each head keeps [X] and
    [Y], in one of three arrangements drawn per rule.  Sometimes the
    component also reads [!w(B)], where [w] reads [!h]: the program is
    then unstratifiable.  Databases are random digraphs on 3 to 6
    vertices with random [u] marks. *)

val arb_hoist_cases :
  (Datalog.Ast.program * Relalg.Database.t list) QCheck.arbitrary
(** One program of {!arb_hoist_case} with three databases, to run through
    one plan cache. *)

val arb_limit_case :
  (Datalog.Ast.program * Datalog.Ast.program * Relalg.Database.t)
  QCheck.arbitrary
(** A random limit workload: a weighted digraph with a guarded
    cost-accumulation program, returned twice — once with [min]/[max]
    limit declarations on the cost predicates and once as the plain
    pair-materializing encoding of the same rules — plus the database.
    The guard polarity matches the limit kind, so the tightened model
    must equal the dominant-filtered pair model predicate for
    predicate. *)

val positivise : Datalog.Ast.program -> Datalog.Ast.program
(** Strips negation and inequality, padding empty-positive bodies with
    [e(X, Y)] so every rule keeps a positive literal. *)
