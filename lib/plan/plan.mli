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
    iterations per free variable.  Either check reads the index bucket of
    its first bound argument, as an [Index_probe] does, and scans only
    when no argument is bound: DRed's put-back rule
    [reached(Y) :- reached(Y), r(X, Y)] asks for one witness per
    overdeleted fact, and a scan per fact would cost the whole of [r].

    {b The invariant suffix.}  After ordering, [compile] looks for a
    {!hoist}: the earliest boundary from which the steps (up to any limit
    steps) read no slot bound before it, when some earlier step loops and
    some later one reads a relation.  Proposition 2's
    [s3(X, Y, Xs, Ys) :- e(X, Z), s1(Z, Y), !s2(Xs, Ys)] is the case in
    point: [enumerate Xs, enumerate Ys, check !s2(Xs, Ys)] do not vary
    with the join before them.  Execution runs such a suffix once per
    application into a buffer of the slots the head and the limit steps
    read, and every prefix row replays the buffer in the order it was
    built, which is the nested loop's order.  When the prefix binds a
    slot nothing after the boundary reads ([Z]), prefix rows are
    deduplicated on the live slots, so each [(X, Y)] meets the buffer
    once; no other row is dropped.  The buffer belongs to the run, never
    to the cached plan: the relations the suffix reads, [s2] under the
    inflationary semantics for one, change between applications.
    The steps keep the cost model's order; a suffix of enumerations alone
    has nothing to save and keeps streaming.

    {b Observed rows.} Plans are immutable apart from a per-plan
    {!feedback} record of observed cardinalities: per-step rows produced.
    Per-run counts accumulate in the run's execution context and are
    folded into the plan's record once per run.  The record feeds
    [explain]'s actual row counts; planning never reads it.  The record
    is written without synchronisation, so run a plan from one domain at
    a time.  Where each atom occurrence reads its relation is decided at
    {e run} time by a resolver, which is what lets one plan serve both the
    full and the delta-specialized applications of semi-naive
    evaluation. *)

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
  | Exists of { access : access; probe : (int * term) option; pat : pat array }
      (** First-witness membership of a partially bound positive atom
          whose unbound columns are dead: succeeds iff any tuple matches
          the bound prefix, stopping at the first.  [probe] is the first
          argument bound before the step, [(column, key)], as for
          [Index_probe]: the witnesses are sought in that column's index
          bucket ({!Relalg.Relation.matching}).  [None] (no bound
          argument) scans the relation. *)
  | Neg_exists of {
      access : access;
      probe : (int * term) option;
      pat : pat array;
      free : int;
    }
      (** Negated atom with [free] distinct dead columns: succeeds iff
          some instantiation of them is {e absent}, i.e. the bound prefix
          matches fewer than [universe^free] tuples (early exit once the
          bound is reached).  [probe] narrows the count to one index
          bucket, as for [Exists]. *)
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
          only rows improving on the best candidate this application has
          already emitted for the group.  Cross-rule candidates are
          resolved by the tighten-union at the fixpoint layer. *)

type step = {
  op : op;
  est : float;  (** Estimated rows surviving this step. *)
}

type feedback = {
  mutable fb_runs : int;  (** Completed runs folded into this record. *)
  fb_rows : int array;
      (** Per step, rows that survived it, summed across runs — the
          observed counterpart of [step.est] is [fb_rows.(i) / fb_runs].
          A hoisted step adds one application's rows per run. *)
}
(** Observed cardinalities, harvested from the run's counters once per
    run.  Reset by recompilation — a fresh plan starts observing from
    scratch. *)

type hoist = {
  h_at : int;  (** The boundary: index of the first hoisted step. *)
  h_end : int;
      (** One past the last hoisted step: the first limit step
          ({!Aggregate_probe}), or the step count. *)
  h_keep : int array;
      (** The slots a buffered row holds: those the hoisted steps bind and
          the head or a limit step reads, in slot order. *)
  h_key : int array option;
      (** [Some live] when some slot bound before the boundary is read by
          nothing after it (a dead join variable): prefix rows are then
          deduplicated on the [live] slots, in slot order.  [None] when
          every prefix slot is live, so prefix rows are already distinct. *)
}
(** The invariant suffix of a plan.  Steps [h_at] to [h_end - 1] read no
    slot bound before [h_at], at least one step before [h_at] loops
    ([Scan], [Index_probe] or [Enumerate]), and at least one hoisted step
    reads a relation.  [h_at] is the earliest such boundary. *)

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
  hoist : hoist option;
      (** The invariant suffix, when the plan has one.  The [est] of a
          hoisted step counts rows per application, from one row at the
          boundary; every other estimate, [est_out] included, counts rows
          of the whole nested loop. *)
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
    what you keep, or use {!head_tuple}).  With a {!hoist} whose [h_key]
    is [Some live], a binding that agrees with an earlier one on the
    [live] slots is skipped, and the slots nothing after the boundary
    reads hold the earlier binding's values: read only the head's slots
    (every slot is one when the head lists every variable, as grounding's
    pseudo-rules do).  The hoisted steps run once per call, so their
    observed rows and their counters (enumerations, scans, index probes)
    count once per application, not once per prefix row.  An
    [Index_probe] reads the
    relation's memoized column index ({!Relalg.Relation.matching}), built
    once per relation value and maintained incrementally as deltas are
    unioned in.  Matching is return-value based (no exceptions on the hot
    path) and allocation-free apart from index construction and the
    caller's [on_row].  Completes by folding the run's observed
    cardinalities into the plan's feedback record. *)

val head_tuple : t -> Relalg.Symbol.t array -> Relalg.Tuple.t
(** The head tuple under the given environment (freshly allocated). *)

val pp : Format.formatter -> t -> unit
(** Renders the plan with estimated and (when the plan has run) observed
    per-step cardinalities — the [negdl explain] output.  A {!hoist} adds
    a line before its first step naming the hoisted steps, the buffered
    slots and the dedup key; its steps print their estimates and observed
    rows per application. *)

val to_string : t -> string
