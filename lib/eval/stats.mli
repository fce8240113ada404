(** Evaluation statistics.

    A mutable record threaded (optionally) through the engine and every
    semantics: one value accumulates counters across a whole evaluation —
    fixpoint iterations, rule applications, tuples derived, plan-cache and
    join-index behaviour, and wall-clock time per named stage.  Every
    rule application counts straight into the caller's record. *)

type t = {
  mutable iterations : int;
      (** Fixpoint stages executed (across all strata / alternations). *)
  mutable rule_applications : int;
      (** Plan executions (a semi-naive stage counts one per
          (rule, delta-position) pair). *)
  mutable tuples_derived : int;
      (** Head tuples emitted by rule applications, before dedup against
          the accumulated valuation. *)
  mutable tuples_allocated : int;
      (** Head tuples that were genuinely fresh in their rule's bulk
          accumulator — [tuples_derived] minus within-rule duplicates. *)
  mutable bulk_builds : int;
      (** Bulk finalisations of a streaming accumulator into a relation
          (one per rule application). *)
  plan : Planlib.Plan.counters;
      (** The plan layer's counter block: plan compiles and cache hits,
          index hits/builds, full scans, bucket probes and universe
          enumerations — see {!Planlib.Plan.counters}. *)
  mutable stages : (string * float) list;
      (** Wall time per named stage, most recent first. *)
  mutable wall : float;  (** Total wall-clock seconds recorded. *)
  mutable extra : (string * int) list;
      (** Free-form named counters appended to the report — the CLI puts
          the SAT search-layer counters ({!Satlib.Sat_stats.snapshot})
          here.  Empty by default, so the core counter block is stable. *)
}

val create : unit -> t
(** All counters zero. *)

val bump_extra : t -> string -> int -> unit
(** [bump_extra s name n] adds [n] to the free-form counter [name] in
    {!field-extra}, creating it at [n] on first use (insertion order is
    preserved in the report).  The incremental-maintenance layer counts
    its delta-scoped work here — the proof that no full re-ground happens
    per update batch — without disturbing the stable core block. *)

val record_stage : t -> string -> float -> unit
(** [record_stage s name dt] logs [dt] seconds against [name] and adds it
    to {!field-wall}. *)

val timed : t option -> string -> (unit -> 'a) -> 'a
(** [timed (Some s) name f] runs [f], recording its wall time as a stage;
    [timed None name f] is just [f ()]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable rendering (the CLI's [--stats] output).
    After the record's counters it prints the packed store's
    process-cumulative counters ({!Relalg.Store.contention}: lock
    acquisitions, and intern calls that found their tuple and that did
    not), when any is non-zero. *)
