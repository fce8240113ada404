(** A CDCL SAT solver.

    Conflict-driven clause learning with two-watched-literal propagation,
    first-UIP conflict analysis, VSIDS-style activities, phase saving and
    Luby restarts.  This is the engine behind [Fixpointlib]: deciding
    whether a DATALOG-not program has a fixpoint on a database is
    NP-complete (Theorem 1), so a SAT solver is the natural — and the
    honest — implementation vehicle.  The search is sequential and
    deterministic: the same formula always yields the same answer and the
    same model. *)

type result =
  | Sat of bool array
      (** A satisfying assignment, indexed by variable ([.(0)] unused). *)
  | Unsat

val set_default_parallelism : int -> unit
(** Does nothing: the search is always sequential.  The function exists
    only because the end-to-end benchmark harness under [bench/e2e], which
    is frozen between benchmark revisions, still calls it with [1]; it goes
    when that harness drops the call.
    @raise Invalid_argument on any value other than [1]. *)

val solve : Cnf.t -> result
(** Complete search: always returns a definite answer. *)

val solve_outcome :
  ?conflict_budget:int -> ?time_budget:float -> Cnf.t -> Outcome.t
(** Resource-bounded search.  [conflict_budget] caps the number of
    conflicts and [time_budget] is a wall-clock allowance in seconds.
    Exhaustion yields a structured [Unknown] — this entry point never
    raises on resource limits. *)

val solve_with_units : Cnf.t -> int list -> result
(** [solve_with_units cnf units] solves [cnf] with the extra unit clauses
    [units] (a cheap form of assumptions). *)

val is_satisfiable : Cnf.t -> bool

val model_checks : result -> Cnf.t -> bool
(** [model_checks r cnf] is true when [r] is [Unsat] or when the model
    satisfies every clause of [cnf]; used by the tests as a self-check. *)

(** {1 Incremental sessions}

    A session loads the CNF once and answers many queries under varying
    {e assumptions} (literals forced for one call only, realised as the
    first decisions, as in MiniSat).  Clauses learned during one call are
    implied by the formula alone, so they persist and accelerate later
    calls — this is what makes the fixpoint searcher's
    one-SAT-call-per-atom algorithms (Theorem 3's intersection, model
    enumeration) affordable. *)

type session

val session : Cnf.t -> session

val solve_assuming : session -> int list -> result
(** Solve under the given assumption literals (DIMACS convention).  [Unsat]
    means unsatisfiable {e under these assumptions}. *)

val solve_assuming_outcome :
  ?conflict_budget:int ->
  ?time_budget:float ->
  session ->
  int list ->
  Outcome.t
(** Budgeted variant of {!solve_assuming}.  [conflict_budget] counts
    conflicts {e of this call} (the session's lifetime total is irrelevant).
    After an [Unknown] the session remains usable: learned clauses are kept
    and the next call resumes the search. *)

val add_clause : session -> int list -> unit
(** Permanently adds a clause (e.g. a blocking clause during model
    enumeration).
    @raise Invalid_argument on a literal out of range. *)
