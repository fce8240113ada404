(** Stratified semantics (Chandra-Harel; Apt-Blair-Walker).

    Each stratum is evaluated to its least fixpoint in order, with negation
    allowed only on already-finished lower strata (and EDB relations).
    Defined only for stratifiable programs — the paper's Section 4 uses the
    6-rule distance program to show that, where both are defined, stratified
    and inflationary semantics genuinely differ. *)

type error =
  | Not_stratifiable of { offending : string * string }
  | Not_limit_stratifiable of { pred : string; rule : Datalog.Ast.rule }
      (** The limit-stratification side condition fails; see
          {!Datalog.Stratify.result}. *)

val error_to_string : error -> string

val check :
  Datalog.Ast.program -> (Datalog.Stratify.stratification, error) result
(** The program's stratification, or why {!eval} refuses it. *)

val walk :
  cache:Planlib.Cache.t ->
  stats:Stats.t option ->
  keep:(string -> bool) ->
  Datalog.Ast.program ->
  Datalog.Stratify.stratification ->
  Relalg.Database.t ->
  Idb.t
(** Saturates the kept predicates stratum by stratum under the program's
    limit declarations, each over the lower strata frozen, with one
    [stratum N] stage per stratum that has a kept predicate; the others
    stay empty.  [keep] must hold on whatever a kept predicate depends
    on. *)

val eval :
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  (Idb.t, error) result
(** [stats], when given, records one wall-time stage per stratum that
    holds a predicate. *)

val eval_exn :
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Idb.t
(** @raise Invalid_argument when the program is not stratifiable. *)
