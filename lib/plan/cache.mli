(** The plan cache: one compiled plan per (rule, variant).

    Keys are {e structural} — {!Datalog.Ast.compare_rule} on the rule plus
    the variant — so one cache can safely serve many rule lists over the
    same program (stratified layers, the well-founded alternating fixpoint's
    repeated saturations, Theta orbits) without identifier bookkeeping.

    Caching policy by planner:
    - [`Static]: hit unless some relation cardinality the plan's cost model
      saw has drifted by more than {!Plan.drift_factor} (+ slack) —
      estimates refresh as the fixpoint grows relations, without paying a
      replan per application;
    - [`Adaptive]: the [`Static] policy plus the feedback loop.  Each
      lookup first consults {!Plan.replan_hint}: if the cached plan's
      observed per-step cardinalities diverge from its estimates past the
      drift factor, the plan is recompiled with the observed effective
      cardinality substituted at the diverging occurrence (counted as a
      {e plan replan}, not a compile) — at most [max_generation] (2)
      consecutive times, after which adaptation restarts from a plain
      recompile.  When observation instead {e agrees} with the estimates,
      that agreement supersedes the static input-size check: the plan is
      kept however far the resolver's cardinalities have moved, because
      per-step feedback already covers what size drift only predicts.
      Only a plan with no feedback yet (fetched but never run) falls back
      to the [`Static] drift check, skipping occurrences an override
      covers (their recorded size is the observed value, which the
      resolver's raw cardinality legitimately disagrees with).  Because
      plans are fetched at stage barriers (see
      {!Evallib.Saturate}), replan decisions happen between fixpoint
      stages, never mid-run.

    A cache is {e not} synchronised: fetch the plans you need before fanning
    rule applications across domains (see {!Evallib.Saturate}). *)

type t

val create : unit -> t

val find :
  ?counters:Plan.counters ->
  ?planner:Plan.planner ->
  ?variant:Plan.variant ->
  ?label:string ->
  ?limits:(string * (Datalog.Ast.limit_kind * int)) list ->
  t ->
  sizes:(Plan.occurrence -> int -> int) ->
  universe_size:int ->
  Datalog.Ast.rule ->
  Plan.t
(** The cached plan, recompiled (and re-cached) as the policy above
    dictates.  [counters], when given, accumulates compiles and hits.
    [limits] is forwarded to {!Plan.compile}; the head predicate's limit
    (when any) is part of the cache key, so plans with and without
    tightening steps for the same rule coexist. *)

val cardinal : t -> int
(** Distinct (rule, variant) entries currently resident — what a
    long-lived server reports as its compiled-plan footprint. *)

val export_overrides :
  t -> (Datalog.Ast.rule * Plan.variant * (int * int) list) list
(** Every cached plan carrying a non-empty feedback-override set, as
    [(rule, variant, overrides)] triples — what the snapshot writer
    persists so a restored process inherits the adaptive planner's learned
    effective cardinalities.  Unordered; the snapshot encoder sorts. *)

val seed_overrides :
  t -> (Datalog.Ast.rule * Plan.variant * (int * int) list) list -> unit
(** Stashes imported override sets.  Each is consumed by the first fresh
    [`Adaptive] compile of its (rule, variant) key, which then starts at
    generation 1 with the overrides applied — so one stale import costs at
    most one replan before normal adaptation takes over.  Empty override
    lists are ignored; keys already pending are replaced. *)

val plans : t -> Plan.t list
(** Every cached plan, in no particular order. *)

val program_plans : t -> Datalog.Ast.program -> Plan.t list
(** The cached plans arranged for display: for each rule of the program in
    order, its plans ([Full] first, then [Delta] variants by position),
    followed by plans for rules outside the program (e.g. the grounding's
    instantiation plans), sorted by label. *)
