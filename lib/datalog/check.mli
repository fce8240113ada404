(** Static well-formedness checks and program statistics.

    Hard errors are conditions under which evaluation is meaningless
    (inconsistent arities).  Everything else the paper's semantics tolerates
    — in particular rules that are not range-restricted, whose free
    variables range over the whole universe — and is reported as
    informational {!info} rather than an error. *)

type error =
  | Inconsistent_arity of { pred : string; arity1 : int; arity2 : int }
  | Empty_program
  | Limit_column_out_of_range of { pred : string; column : int; arity : int }
      (** A limit declaration names a column outside the predicate's
          arity.  [column] is 1-based, as written in the source. *)
  | Duplicate_limit of { pred : string }
  | Limit_on_edb of { pred : string }
      (** Limit declarations only make sense for derived (IDB)
          predicates: EDB facts are given, not tightened. *)
  | Database_arity of {
      pred : string;
      program_arity : int;
      database_arity : int;
    }
      (** The program reads the EDB predicate [pred] with [program_arity]
          arguments, but the database binds it to a relation of
          [database_arity] (see {!validate_database}). *)

type info = {
  idb : string list;
  edb : string list;
  rule_count : int;
  uses_negation : bool;
  uses_inequality : bool;
  positive : bool;  (** A DATALOG program in the paper's sense. *)
  range_restricted : bool;  (** Every rule is range-restricted. *)
  unrestricted_rules : Ast.rule list;
      (** Rules with variables not bound by a positive body atom. *)
  limit_count : int;  (** Number of limit declarations. *)
}

val error_to_string : error -> string

val validate : Ast.program -> (info, error list) result

val validate_database : Ast.program -> Relalg.Database.t -> (unit, error) result
(** Where a program meets a database: every EDB predicate the program
    reads (one no rule defines) that the database binds must have the
    arity the program uses.  [Error (Database_arity _)] names the first
    body atom, in program order, that disagrees.  An EDB predicate the
    database does not bind reads as empty, and IDB predicates never read
    the database, so neither is checked.  The evaluators do not check
    arities themselves ({!Relalg.Database.relation_or_empty}):
    [Negdl.run], [Negdl.analyze_fixpoints], [Serve.create] and every CLI
    subcommand that takes a program and a database call this first. *)

val refuse_limits : string -> Ast.program -> (unit, string) result
(** [refuse_limits who program] is [Error] when [program] declares limit
    predicates, naming [who] and the first declaration.  Limit predicates
    are defined by the stratified semantics' tighten-union fixpoint alone;
    anything else would compute the reading that keeps every candidate.
    [Negdl.run] (under the other semantics), [Negdl.analyze_fixpoints]
    and [Ground.ground] refuse them through this check, and so
    do the CLI's [fixpoints], [stable], [ground] and [why]. *)

val validate_exn : Ast.program -> info
(** @raise Invalid_argument listing the errors. *)

val describe : Ast.program -> string
(** A short human-readable summary (used by the CLI). *)
