(** The outcome lattice of the resource-bounded search layer.

    Every public search entry point that accepts a budget reports
    exhaustion as a structured [Unknown] instead of raising:
    [Sat]/[Unsat] are definite answers, [Unknown] records {e why} the search
    gave up.  Counting queries degrade the same way — a [Lower_bound]
    carries the partial work done before the budget ran out, never losing
    completed sub-counts. *)

type reason =
  | Conflict_budget  (** The CDCL conflict budget ran out. *)
  | Node_budget  (** The #SAT DPLL node budget ran out. *)
  | Time_budget  (** The wall-clock deadline passed. *)

type t =
  | Sat of bool array
      (** A satisfying assignment, indexed by variable ([.(0)] unused). *)
  | Unsat
  | Unknown of reason

type count =
  | Exact of int
  | Lower_bound of int * reason
      (** At least this many models; the search gave up for [reason] with
          this much completed work. *)

val reason_to_string : reason -> string

val pp_reason : Format.formatter -> reason -> unit

val pp : Format.formatter -> t -> unit

val pp_count : Format.formatter -> count -> unit

val count_value : count -> int
(** The exact count or the lower bound. *)

val is_exact : count -> bool
