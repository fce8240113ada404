(** Finite databases.

    A database D = (A, R1, ..., Rl) is a finite universe [A] of constants
    together with named relations over [A].  The universe is explicit and may
    be larger than the active domain of the stored facts: the paper's
    constructions (the toggle rule, the {0,1} domain of Theorem 4) quantify
    over the whole universe. *)

type t

val create : universe:Symbol.t list -> t
(** A database with the given universe (duplicates removed) and no
    relations. *)

val create_strings : string list -> t
(** Universe given by constant names. *)

val create_ints : int -> t
(** [create_ints n] has universe [{0, ..., n-1}] (interned decimals). *)

val universe : t -> Symbol.t list
(** Sorted, duplicate-free. *)

val universe_size : t -> int

val in_universe : Symbol.t -> t -> bool

val add_universe : Symbol.t list -> t -> t
(** Enlarges the universe. *)

val set_relation : string -> Relation.t -> t -> t
(** [set_relation name r db] binds [name] to [r], replacing any previous
    binding.  It checks every tuple of [r] against the universe, one
    lookup per component: the cost of the whole relation, however little
    changed.  To take one fact out use {!remove_fact}, which checks
    nothing.
    @raise Invalid_argument if some tuple of [r] uses a constant outside the
    universe. *)

val add_fact : string -> Tuple.t -> t -> t
(** Inserts one tuple, creating the relation if absent (arity taken from the
    tuple).  Constants outside the universe are rejected. *)

val remove_fact : string -> Tuple.t -> t -> t
(** Takes one tuple out of the named relation ({!Relation.remove}), at the
    cost of that removal alone: a removal cannot bring in a constant, so
    nothing is checked.  The relation stays bound when it empties; an
    unbound name or an absent tuple leaves the database as it is. *)

val relation : string -> t -> Relation.t option

val relation_or_empty : arity:int -> string -> t -> Relation.t
(** The named relation, or the empty relation of the given arity when the
    name is unbound.  [arity] is only what the caller expects: a bound
    relation is returned as it is, whatever its arity.  An evaluator that
    reads a relation at a program's arity relies on
    [Datalog.Check.validate_database] having compared the two first. *)

val relations : t -> (string * Relation.t) list
(** Sorted by name. *)

val schema : t -> Schema.t

val mem_fact : string -> Tuple.t -> t -> bool

val remove_relation : string -> t -> t

val restrict : string list -> t -> t
(** Keeps only the named relations (universe unchanged). *)

val merge : t -> t -> t
(** Union of universes and of relations; a relation present in both databases
    must have the same arity on both sides and the tuples are unioned. *)

val equal : t -> t -> bool
(** Same universe and same relations (missing relation = empty relation of
    any arity is {e not} assumed: names must match). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val of_facts :
  universe:string list -> (string * string list) list -> t
(** [of_facts ~universe facts] interns everything and builds the database;
    universe is extended with any constant appearing in the facts. *)

val parse : string -> (t, string) result
(** Parses the textual fact format:

    {v
    % comment lines start with '%'
    #universe a b c.        (declares extra universe elements)
    edge(a, b).             (a fact)
    v}

    Constants are identifiers or integers, and a predicate keeps the
    arity of its first fact.  On malformed input returns [Error msg], where
    [msg] starts with [line N: ] and [N] is the 1-based line on which the
    offending statement starts. *)

val parse_exn : string -> t
(** @raise Failure on malformed input. *)
