(** Stratification of DATALOG-not programs.

    A stratified program splits its IDB predicates into layers so that a
    predicate may depend positively on its own or lower layers but
    negatively only on strictly lower layers (Chandra-Harel / Apt-Blair-
    Walker, discussed in the paper's introduction and Section 4).  Not all
    programs are stratifiable — the toggle rule T(z) <- not Q(u), not T(w)
    is the paper's central counterexample — which is precisely the gap
    Inflationary DATALOG fills. *)

type stratification = {
  strata : string list list;
      (** IDB predicates, layer by layer, lowest first.  EDB predicates are
          not listed (they live below stratum 0). *)
  stratum_of : string -> int option;
      (** Stratum index of an IDB predicate; [None] for EDB / unknown. *)
}

type result =
  | Stratified of stratification
  | Not_stratifiable of { offending : string * string }
      (** A negative dependency inside a strongly connected component:
          [fst] negatively uses [snd] which (transitively) uses [fst]. *)
  | Not_limit_stratifiable of { pred : string; rule : Ast.rule }
      (** The limit-stratification side condition (Kaminski et al.) fails:
          [rule] makes a non-monotone use of the bound of limit predicate
          [pred] inside the recursive component that computes it — see
          {!Depgraph.aggregate_edges}. *)

val stratify : Ast.program -> result

type split = {
  layers : stratification;
      (** Every IDB predicate, layered as {!stratify} layers a stratifiable
          program, ignoring the edges inside a component. *)
  tainted : string -> bool;
      (** In a component with a negative edge inside it, or reaching one.
          The other IDB predicates form a splitting set that [layers]
          stratifies. *)
}

val split : Ast.program -> split
(** Any program's split, from the same pass as {!stratify}. *)

val limit_error_to_string : pred:string -> rule:Ast.rule -> string
(** The canonical rendering of a {!Not_limit_stratifiable} failure, naming
    the offending rule. *)

val is_stratified : Ast.program -> bool

val rules_of_stratum : Ast.program -> stratification -> int -> Ast.rule list
(** The rules whose head lies in the given stratum. *)
