(** The plan cache: one compiled plan per (rule, variant).

    Keys are {e structural} — {!Datalog.Ast.compare_rule} on the rule plus
    the variant — so one cache can safely serve many rule lists over the
    same program (stratified layers, the well-founded alternating fixpoint's
    repeated saturations, Theta orbits) without identifier bookkeeping.

    Caching policy: a cached plan is reused unless some relation
    cardinality its cost model saw (the plan's [sizes_at_plan]) has drifted
    by more than 4x plus a slack of 16 tuples, in either direction —
    estimates refresh as the fixpoint grows relations, without paying a
    replan per application.  Because each stage fetches its plans before
    running them (see {!Evallib.Saturate}), recompiles happen between
    fixpoint stages, never mid-run.

    A cache is {e not} synchronised: use it from one domain at a time. *)

type t

val create : unit -> t

val find :
  ?counters:Plan.counters ->
  ?variant:Plan.variant ->
  ?label:string ->
  ?limits:(string * (Datalog.Ast.limit_kind * int)) list ->
  t ->
  sizes:(Plan.occurrence -> int -> int) ->
  universe_size:(unit -> int) ->
  Datalog.Ast.rule ->
  Plan.t
(** The cached plan, recompiled (and re-cached) as the policy above
    dictates.  [universe_size] is called only to compile, so a hit does
    not count the universe.  [counters], when given, accumulates compiles
    and hits.
    [limits] is forwarded to {!Plan.compile}; the head predicate's limit
    (when any) is part of the cache key, so plans with and without
    tightening steps for the same rule coexist. *)

val cardinal : t -> int
(** Distinct (rule, variant) entries currently resident — what a
    long-lived server reports as its compiled-plan footprint. *)

val plans : t -> Plan.t list
(** Every cached plan, in no particular order. *)

val program_plans : t -> Datalog.Ast.program -> Plan.t list
(** The cached plans arranged for display: for each rule of the program in
    order, its plans ([Full] first, then [Delta] variants by position),
    followed by plans for rules outside the program (e.g. the grounding's
    instantiation plans), sorted by label. *)
