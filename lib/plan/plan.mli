(** Compile-once physical plans for rule evaluation.

    Every Theta-based semantics in this library ultimately does the same
    thing: apply each rule of the program to the current valuation, over and
    over, until a fixpoint.  This module compiles a rule {e once} into a
    static physical plan — a linear operator pipeline over slot-allocated
    variable registers — that the hot loop then merely executes:

    - {e slots}: the rule's variables, numbered in first-occurrence order;
      the execution environment is a plain [Symbol.t array] (no [Option]
      boxing, no undo lists — a slot written at step [k] is only read by
      later steps, which run only after a successful match);
    - {e steps}: [Index_probe] (join through a column index),
      [Scan] (filtered full scan), [Const_filter] / [Neg_check]
      (membership of a fully bound atom), [Exists] / [Neg_exists]
      (first-witness existence checks for atoms whose only unbound
      variables are dead — see below), [Compare], [Assign] (equality
      propagation) and [Enumerate] (universe enumeration for variables no
      positive literal binds — the paper's semantics is not
      range-restricted); the final projection emits the head tuple;
    - {e cost-based ordering}: positive atoms are joined smallest
      estimated-match-count first, where the estimate is
      [card / universe^bound_positions] with cardinalities read through
      [sizes] at compile time.

    {b Existence short-circuits.} A body atom whose unbound variables are
    all {e dead} — absent from the head and from every other remaining
    literal — only asks a yes/no question.  A positive such atom becomes
    [Exists] (stop at the first witness matching the bound prefix); a
    negated one becomes [Neg_exists] (succeed unless the relation covers
    all [u^free] instantiations of the free columns, counted with early
    exit), replacing the enumerate-then-check cascade that cost [u]
    iterations per free variable.

    {b Observed rows.} Plans are immutable apart from a per-plan
    {!feedback} record of observed cardinalities: per-step rows produced
    and the driving step's input size.  Per-run counts accumulate in the
    {!prepared} execution context — one per domain — and are folded into
    the plan's record once per run, at the fixpoint-stage barrier on the
    sharded path, so the record is never written from two domains.  The
    record feeds [explain]'s actual row counts and sizes later sharded
    runs' morsels; planning never reads it.  Where each atom occurrence
    reads its relation is decided at {e run} time by a resolver, which is
    what lets one plan serve both the full and the delta-specialized
    applications of semi-naive evaluation. *)

type source = { find : string -> int -> Relalg.Relation.t }

type occurrence = {
  polarity : [ `Pos | `Neg ];
  index : int;  (** Position of the literal in the rule body. *)
  pred : string;
}

type resolver = occurrence -> source
(** Decides, per atom occurrence, which source to read. *)

type planner = [ `Static ]
(** The one planner: compile each rule once per (rule, variant) into a
    cost-ordered plan and recompile only when relation sizes drift (see
    {!Cache}).  The type exists only because the end-to-end benchmark
    harness under [bench/e2e], which is frozen between benchmark
    revisions, still names the planner it runs (through [Negdl.run],
    [Negdl.analyze_fixpoints], [Fixpoints.prepare] and [Serve.create]); it
    goes when that harness drops the argument. *)

type variant =
  | Full  (** Every occurrence reads the current valuation. *)
  | Delta of int
      (** Semi-naive: the positive occurrence at this body position is
          seeded from the previous stage's delta. *)

val variant_to_string : variant -> string

type term =
  | Const of Relalg.Symbol.t
  | Slot of int

type pat =
  | Check_const of Relalg.Symbol.t
  | Check_slot of int
  | Bind of int

type access = {
  occ : int;  (** Occurrence index (body position). *)
  pred : string;
  arity : int;
}

type op =
  | Index_probe of { access : access; col : int; key : term; pat : pat array }
  | Scan of { access : access; pat : pat array }
  | Const_filter of { access : access; args : term array }
  | Neg_check of { access : access; args : term array }
  | Exists of { access : access; pat : pat array }
      (** First-witness membership of a partially bound positive atom
          whose unbound columns are dead: succeeds iff any tuple matches
          the bound prefix, stopping at the first. *)
  | Neg_exists of { access : access; pat : pat array; free : int }
      (** Negated atom with [free] distinct dead columns: succeeds iff
          some instantiation of them is {e absent}, i.e. the bound prefix
          matches fewer than [universe^free] tuples (early exit once the
          bound is reached). *)
  | Compare of { negated : bool; left : term; right : term }
  | Assign of { slot : int; value : term }
  | Enumerate of { slot : int }
  | Le_check of { left : term; right : term }
      (** Value-order comparison ({!Relalg.Symbol.compare_value}): passes
          iff [left <= right].  A [>=] literal compiles to this op with
          the operands swapped. *)
  | Plus_bind of { a : term; b : term; slot : int }
      (** [slot := a + b] when both operands read as integers; a
          non-numeric operand fails the row. *)
  | Plus_check of { a : term; b : term; result : term }
      (** Fully bound addition: passes iff [result = a + b] numerically. *)
  | Aggregate_probe of {
      access : access;
      kind : Datalog.Ast.limit_kind;
      col : int;
      group : term array;
      bound : term;
    }
      (** Closing step of a limit-head rule: reads the head relation's
          current bound for the candidate row's group — one probe through
          the memoized column index, since the limit invariant keeps at
          most one tuple per group — and kills the row unless the
          candidate strictly improves it.  [access.occ] is the
          distinguished occurrence [-1], which every resolver maps to the
          current valuation (never a delta). *)
  | Tighten_emit of {
      pred : string;
      kind : Datalog.Ast.limit_kind;
      col : int;
      group : term array;
      bound : term;
    }
      (** Per-application dominance filter after {!Aggregate_probe}: keeps
          only rows improving on the best candidate this execution context
          has already emitted for the group.  Cross-context and cross-rule
          candidates are resolved by the tighten-union at the fixpoint
          layer, which is what keeps sharded emission order irrelevant. *)

type step = {
  op : op;
  est : float;  (** Estimated rows surviving this step. *)
}

type feedback = {
  mutable fb_runs : int;  (** Completed runs folded into this record. *)
  fb_rows : int array;
      (** Per step, rows that survived it, summed across runs — the
          observed counterpart of [step.est] is [fb_rows.(i) / fb_runs]. *)
  mutable fb_driving : int;
      (** Driving-step input rows, summed across runs — what
          {!run_sharded} partitions, cached here so only a plan's first
          sharded run pays the counting pass. *)
}
(** Observed cardinalities, harvested from per-context counters once per
    run (the stage barrier on the sharded path).  Reset by recompilation —
    a fresh plan starts observing from scratch. *)

type t = {
  rule : Datalog.Ast.rule;
  label : string;  (** The rule in concrete syntax (or a caller label). *)
  variant : variant;
  nslots : int;
  slot_names : string array;
  steps : step array;
  head_pred : string;
  head_args : term array;
  est_out : float;  (** Estimated emitted rows. *)
  sizes_at_plan : (occurrence * int * int) list;
      (** (occurrence, arity, cardinality) snapshot the cost model saw —
          {!Cache} compares against it to decide when to replan. *)
  fb : feedback;
}

type counters = {
  mutable plan_compiles : int;
  mutable plan_cache_hits : int;
  mutable plan_replans : int;
      (** Always 0.  The field exists only because the frozen
          [bench/e2e] harness reads it (see {!planner}). *)
  mutable index_hits : int;
  mutable index_builds : int;
  mutable full_scans : int;
  mutable bucket_probes : int;
  mutable enumerations : int;
}
(** The plan/probe counter block {!Evallib.Stats} embeds. *)

val counters : unit -> counters
val merge_counters : counters -> src:counters -> unit

val compile :
  ?variant:variant ->
  ?label:string ->
  ?limits:(string * (Datalog.Ast.limit_kind * int)) list ->
  sizes:(occurrence -> int -> int) ->
  universe_size:int ->
  Datalog.Ast.rule ->
  t
(** [sizes occ arity] is the current cardinality of the relation the
    occurrence reads (under the resolver the plan will later run with);
    the [variant] only documents which occurrence the resolver seeds from
    the delta — the delta's small cardinality reaches the join order
    through [sizes].  When [limits] declares the head predicate a
    limit predicate, the plan closes with {!Aggregate_probe} and
    {!Tighten_emit} steps for its (kind, column) — callers evaluating a
    limit program under the tighten-union fixpoint must pass the
    program's limits; callers that want raw candidate derivation (DRed
    overdeletion) must not. *)

val run :
  ?counters:counters ->
  resolver:resolver ->
  universe:Relalg.Symbol.t list ->
  t ->
  on_row:(Relalg.Symbol.t array -> unit) ->
  unit
(** Executes the plan: [on_row] is called once per complete binding with
    the slot environment (valid only for the duration of the call — copy
    what you keep, or use {!head_tuple}).  An [Index_probe] reads the
    relation's memoized column index ({!Relalg.Relation.matching}), built
    once per relation value and maintained incrementally as deltas are
    unioned in.  Matching is return-value based (no exceptions on the hot
    path) and allocation-free apart from index construction and the
    caller's [on_row].  Completes by folding the run's observed
    cardinalities into the plan's feedback record. *)

(** {2 Sharded (morsel-driven) execution}

    Every plan has a {e driving} step — its first [Scan], [Index_probe] or
    [Enumerate] — whose input rows (relation scan positions, index-bucket
    positions, or universe positions) are the only unbounded iteration
    before the first binding.  Sharded execution partitions those rows
    into fixed-size morsels and fans them over a {!Negdl_util.Domain_pool}
    with work stealing, executing the same compiled plan in every shard
    over a per-shard context.  Row positions are stable per relation value,
    so the set of emitted rows is independent of the schedule; merge
    per-shard accumulators in participant order for full determinism. *)

type prepared
(** A per-domain execution context: resolved sources, slot registers,
    scratch probe tuples, the driving-step index, and the context's share
    of the run's observed row counts.  Cheap relative to execution; one
    per (plan, run, domain). *)

val prepare :
  ?counters:counters ->
  resolver:resolver ->
  universe:Relalg.Symbol.t list ->
  t ->
  prepared
(** Resolves the plan's sources and allocates the per-run state {!run}
    otherwise builds internally.  Does not count as an execution (the
    feedback record is untouched until a run completes). *)

val driving_rows : prepared -> int
(** How many input rows the driving step would iterate: the driven
    relation's cardinality for scans, the probed bucket's length for index
    probes, the universe size for enumerations, and 1 for plans with no
    driving step (fully constant-decided).  Evaluates the constant prefix
    before the driving step — so a probe key bound by an earlier [Assign]
    resolves, and a failed prefix filter reports 0 — without bumping any
    row or probe counters.  {!run_sharded} calls this only on a plan's
    first run; afterwards the feedback record's observed driving-input
    average replaces the count. *)

val auto_grain : rows:int -> workers:int -> int
(** The default morsel size: [rows / (8 * workers)], floored at 16 — about
    eight morsels per participant so stealing can rebalance uneven shards,
    but never so fine that scheduling dominates tiny inputs.  With a
    single worker the whole input is one morsel: there is nobody to steal
    a share, so splitting would only pay per-morsel overhead. *)

type shard_report = {
  sh_morsels : int;  (** Morsels executed ([ceil (rows / grain)]). *)
  sh_steals : int;  (** Steal-half operations between participants. *)
  sh_executed : int array;
      (** Morsels per participant; max - min is the shard skew. *)
}

val run_sharded :
  ?counters:(int -> counters option) ->
  pool:Negdl_util.Domain_pool.t ->
  ?grain:int ->
  resolver:resolver ->
  universe:Relalg.Symbol.t list ->
  t ->
  on_row:(int -> Relalg.Symbol.t array -> unit) ->
  shard_report
(** Executes the plan with its driving step sharded into morsels of
    {!auto_grain} rows over [pool]; [grain] overrides the morsel size and
    exists so tests can force many small morsels on small inputs.
    [on_row p env] and [counters p] are keyed by participant — [on_row]
    must be thread-safe across {e distinct} participants but is never
    called concurrently for one participant, so per-participant
    accumulators need no locking.
    Participant indices are dense in [0, pool size + 1).  With one morsel
    (or a pool of size 0 and a single participant) everything runs inline
    on the calling domain and emits exactly what {!run} would (the only
    counter drift: the row-counting pass may warm a cached index, turning
    {!run}'s one index build into a hit).  The emitted row {e set} is
    schedule-independent; per-participant attribution is not (merge in
    participant order for determinism).

    The driving input is counted ({!driving_rows}) only on the plan's
    first run; subsequent runs size morsels from the feedback record's
    observed average, with the last morsel open-ended so underestimates
    cannot drop rows (overestimated trailing morsels just find an empty
    slice).  Each run ends at a barrier that folds the participants'
    observed counts into the plan's feedback record in participant
    order. *)

val head_tuple : t -> Relalg.Symbol.t array -> Relalg.Tuple.t
(** The head tuple under the given environment (freshly allocated). *)

val pp : Format.formatter -> t -> unit
(** Renders the plan with estimated and (when the plan has run) observed
    per-step cardinalities — the [negdl explain] output. *)

val to_string : t -> string
