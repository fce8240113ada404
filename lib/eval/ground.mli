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
    instance, a negative occurrence is vacuously true.

    {b Factoring.}  A rule body falls into components connected through
    the variables the head does not bind; the literals over head variables
    alone belong to none.  Theorem 1's toggle rule [t(Z) :- !q(U1), !t(W)]
    has two, [!q(U1)] and [!t(W)], and multiplied out they ground to
    |A|{^ 3} instances.  So each component becomes an {e aux atom}, keyed
    by the head variables it mentions and defined by the component's own
    instances, and the rule's instances read one aux atom per component:
    [t(Z) :- !q(U1), !t(W)] grounds to |A| instances [$1 :- !q(u)],
    |A| instances [$2 :- !t(w)] and |A| instances [t(z) :- $1, $2].  A rule
    whose only such component mentions every head variable (pi_1's
    [t(X) :- e(Y, X), !t(Y)]) has nothing to factor and grounds as it
    stands.  An aux atom that no instance of the program reads is
    dropped.  An aux atom holds iff one of its instances fires, so unfolding
    it gives back the rule's instances: the fixpoints, supported, stable,
    Kripke-Kleene and well-founded models of the ground program are the
    program's, with the aux atoms projected away.  Aux atoms never reach an
    {!Idb.t} or printed output.

    {b Ids.}  The ground program is arrays over dense atom ids.  The
    program's atoms, in sorted order, take ids [1 .. atom_count]; the aux
    atoms follow.  An instance's body is an array of signed ids: its
    positive subgoals ascending, then its negated ones ascending as
    negative ids.  The instances that define aux atoms come first; aux
    atoms occur only positively, and only in the program's own instances,
    whose bodies read each aux atom in place of a component. *)

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
  ?cache:Planlib.Cache.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  t
(** @raise Invalid_argument on inconsistent arities, or on a program with
    limit declarations ({!Datalog.Check.refuse_limits}): an instance keeps
    every candidate tuple, which is not the limit reading.

    Instantiation runs on the shared plan layer: the decidable (non-IDB)
    literals of a rule, or of one of its components, form one conjunctive
    pseudo-rule projecting all their variables, compiled by
    {!Planlib.Plan.compile} and executed over the database; there is no
    separate grounding compiler.  A factored rule's own pseudo-rule joins
    its components' keys.  [cache], when given, retains the instantiation
    plans (keyed on the pseudo-rules) — the CLI's [--explain] on
    [fixpoints] reads them back. *)

val atoms : t -> gatom list
(** The derivable atoms of the program (possible heads), sorted. *)

val instances_for : t -> gatom -> grule list
(** The program's ground instances whose head is the given atom, latest
    first, with every aux atom unfolded. *)

val atom_count : t -> int
(** The program's derivable atoms: aux atoms are not counted. *)

val rule_count : t -> int
(** The instances of the ground program as encoded, aux definitions
    included: 71 for pi_SAT over the 3-variable, 8-clause CNF
    [Satlib.Workload.forced_sat ~seed:1 ~vars:3 ~clauses:8 ~k:3], whose
    own instances number 1,369. *)

val instance_count : t -> int
(** The program's own ground instances, every aux atom unfolded: what
    {!pp} lists. *)

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
(** The program's own instances, one per line, in grounding order: rule by
    rule, and a factored rule's instances as its products, the first
    component's choice outermost.  On the toggle rule that is the order of
    the nested loop over its variables. *)

(** {1 The ground program over ids} *)

val aux_count : t -> int
(** The aux atoms, ids [atom_count + 1 .. atom_count + aux_count]. *)

val body : t -> int -> int array
(** The signed ids of an instance's body, [0 <= i < rule_count].  Do not
    mutate. *)

val instances_of : t -> int -> int array
(** The instances whose head is the given id, latest first.  Do not
    mutate. *)

val atom : t -> int -> gatom
(** The program atom of an id in [1 .. atom_count]. *)

(** {2 Valuations}

    A valuation is a [bool array] indexed by id, of length
    [atom_count + aux_count + 1] (index 0 is unused). *)

val empty_valuation : t -> bool array
(** A fresh valuation, every entry false. *)

val valuation : t -> Idb.t -> bool array
(** The program atoms that the IDB holds; aux entries false. *)

val idb_of_valuation : t -> bool array -> Idb.t
(** The program atoms true in a valuation; aux entries, and any entries
    past the aux atoms, are ignored. *)

val consequences : t -> pos:bool array -> neg:bool array -> bool array
(** The heads of the program's instances whose positive subgoals are true
    in [pos] and whose negated ones are false in [neg].  The aux atoms are
    evaluated the same way first, into [pos]'s aux entries, which is all
    of [pos] that changes; the result's aux entries are false.
    [consequences g ~pos:v ~neg:v] is Theta on the program atoms of [v];
    (T, P) and (P, T) give Fitting's operator, and (T, not F) the
    well-founded immediate consequences. *)

val supported : t -> t:bool array -> f:bool array -> bool array
(** The atoms with a non-circular line of support w.r.t. (T, F): the least
    set S such that some instance derives the atom with its negated
    subgoals outside [t] and its positive ones outside [f] and inside S.
    [f]'s aux entries must be false.  With [f] empty, S is the least model
    of the Gelfond-Lifschitz reduct by [t]. *)

val same_atoms : t -> bool array -> bool array -> bool
(** Whether two valuations agree on every program atom. *)
