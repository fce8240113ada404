(** Grounding: instantiating a program over a database's universe.

    A ground instance of a rule fixes all its variables to universe
    constants; EDB literals and (in)equalities are then decided immediately
    and only the IDB atoms remain.  The result is a propositional program:
    exactly the object the NEXP-hardness argument of Theorem 4 manipulates
    (data complexity vs expression complexity), and the input to the
    SAT-based fixpoint searcher of [Fixpointlib].

    Only atoms that occur as the head of some ground instance can be true
    in a fixpoint (Theta must re-derive every tuple of S); body atoms
    outside that set are simplified away — a positive occurrence kills its
    instance, a negative occurrence is vacuously true. *)

type gatom = {
  pred : string;
  tuple : Relalg.Tuple.t;
}

val compare_gatom : gatom -> gatom -> int

val gatom_to_string : gatom -> string

type grule = {
  head : gatom;
  pos : gatom list;  (** Positive IDB subgoals (deduplicated). *)
  neg : gatom list;  (** Negated IDB subgoals (deduplicated). *)
}

type t

val ground :
  ?keep:string list ->
  ?cache:Planlib.Cache.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  t
(** @raise Invalid_argument on inconsistent arities.

    Instantiation runs on the shared plan layer: each rule's decidable
    (non-IDB) literals form one conjunctive pseudo-rule projecting all rule
    variables, compiled by {!Planlib.Plan.compile} and executed over the
    database; there is no separate grounding compiler.
    [cache], when given, retains the instantiation plans (keyed on the
    pseudo-rules) — the CLI's [--explain] on [fixpoints] reads them back.

    [keep] lists EDB predicates whose (positive) occurrences should stay
    {e symbolic} in the instances instead of being evaluated away: an
    instance whose kept atom is absent from the database is still dropped,
    but present ones are recorded in the instance's positive subgoals.
    This is what incremental maintenance ([Dred]) uses to know which
    derivations depended on which base facts.  With a non-empty [keep],
    {!apply} expects the valuation to also assign the kept predicates. *)

val atoms : t -> gatom list
(** The derivable atoms (possible heads), sorted. *)

val rules : t -> grule list

val instances_for : t -> gatom -> grule list
(** The ground instances whose head is the given atom. *)

val atom_count : t -> int

val rule_count : t -> int

val apply : t -> Idb.t -> Idb.t
(** The immediate consequence operator computed on the ground program: an
    instance fires when all its positive subgoals are in the valuation and
    none of its negated ones are.  Agrees with [Theta.apply] on every
    valuation contained in {!atoms} — which covers all fixpoints and all
    inflationary stages — a property the test suite checks. *)

val to_idb : t -> gatom list -> Idb.t
(** Builds a valuation from a set of ground atoms (schema taken from the
    grounding). *)

val pp : Format.formatter -> t -> unit
