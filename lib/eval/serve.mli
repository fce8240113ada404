(** A long-lived incremental materialization server.

    [create] materialises the stratified model of a program once with the
    compiled-plan layer; afterwards the state accepts update batches —
    applied with delta-driven DRed ({!Dred.apply}), never by
    re-saturation — and answers queries against the current snapshot.

    {b Snapshots.}  The database and the materialised model are immutable
    values: an update installs new [db]/[idb] values and bumps the
    version, it never mutates what a reader holds, so a query answers
    against the snapshot it pinned.  Updates and queries run in order, on
    the calling domain.

    {b Query cache.}  Results are cached per canonical query atom, tagged
    with the version they were computed at; any applied update bumps the
    version, so stale entries miss and are lazily overwritten.

    The line protocol ({!handle_line}) is what [negdl serve] speaks over
    stdin or a Unix socket: [insert <facts>], [delete <facts>],
    [query <atom>[; <atom>]...], [stats], [snapshot <file>],
    [restore <file>], [quit] ([shutdown] additionally stops a socket
    server).  Errors are replies, not crashes — the server keeps serving
    after a failed command. *)

type t

type update_report = {
  inserted : int;  (** EDB facts added (absent before the batch). *)
  deleted : int;  (** EDB facts removed and not re-added. *)
  overdeleted : int;  (** {!Dred.delta.overdeleted} for the batch. *)
  rederived : int;  (** {!Dred.delta.rederived} for the batch. *)
}

type counters = {
  batches : int;
  inserted : int;
  deleted : int;
  overdeleted : int;
  rederived : int;
  queries : int;
  cache_hits : int;
  cache_misses : int;
}
(** Cumulative since {!create}. *)

val create :
  ?engine:[ `Seminaive ] ->
  ?planner:Planlib.Plan.planner ->
  ?indexing:Engine.indexing ->
  ?storage:Relalg.Relation.storage ->
  ?grain:Engine.grain ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  (t, string) result
(** Materialises once (stratum by stratum) and returns the serving state;
    [Error] if the program is not stratifiable, or if the database
    disagrees with it on an EDB predicate's arity
    ({!Datalog.Check.validate_database}; update lines check their facts
    against the arities in use).  One plan cache is created
    here and shared by the initial materialisation and every later batch,
    so each (rule, variant) pair compiles once for the server's lifetime.
    [engine], [planner], [indexing], [storage] and [grain] are ignored;
    they remain for the same reason as {!Relalg.Relation.storage}: the
    frozen [bench/e2e] harness still passes them. *)

val create_restored :
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Snapshotlib.Snapshot.image ->
  (t, string) result
(** Warm restart: the serving state rebuilt from a decoded snapshot
    instead of saturating — milliseconds instead of a full fixpoint.
    Fails closed when the snapshot was taken for a different program or
    semantics, holds a three-valued model, or the program is not
    stratifiable.  The plan cache starts empty. *)

val database : t -> Relalg.Database.t
(** The current EDB snapshot (immutable). *)

val snapshot : t -> Idb.t
(** The current materialised model (immutable). *)

val version : t -> int

val counters : t -> counters

val stats : t -> Stats.t
(** The evaluation counters accumulated across the initial
    materialisation and all batches (the ["dred ..."] extra counters are
    the delta-scoped work proof). *)

val update :
  t ->
  additions:(string * Relalg.Tuple.t) list ->
  removals:(string * Relalg.Tuple.t) list ->
  (update_report, string) result
(** Applies one batch incrementally and installs the new snapshot.
    Validation failures (IDB predicate, arity mismatch, absent removal,
    unknown constant) return [Error] and leave the state unchanged. *)

val insert :
  t -> (string * Relalg.Tuple.t) list -> (update_report, string) result

val delete :
  t -> (string * Relalg.Tuple.t) list -> (update_report, string) result

val query : t -> Datalog.Ast.atom -> (Relalg.Relation.t, string) result
(** Answers against the current snapshot ({!Query.select} on the
    materialised relation — IDB predicates from the model, EDB from the
    database), through the version-tagged result cache. *)

val query_all :
  t -> Datalog.Ast.atom list -> (Relalg.Relation.t, string) result list
(** One batch: cache hits are served directly, the distinct misses are
    evaluated in order against one pinned snapshot, then cached.  Results
    are in argument order.  Each distinct atom not
    cached before the batch counts as one cache miss and every other atom
    as a hit, so the batch adds its length to [cache_hits + cache_misses]. *)

val snapshot_to : t -> string -> (int, string) result
(** [snapshot_to t file] checkpoints the current model to [file],
    atomically; returns the bytes written.  The writer works against the
    pinned immutable snapshot. *)

val restore_from : t -> string -> (unit, string) result
(** [restore_from t file] replaces the database and materialised model
    with the snapshot's, resets the version to 0 and clears the query
    cache.  Fails closed — corrupt file, wrong program, wrong semantics or
    a three-valued model leave the state unchanged. *)

type response = Reply of string list | Quit | Shutdown

val handle_line : t -> string -> response
(** One protocol line.  Empty lines and [%] comments yield
    [Reply []]; unknown commands and failed updates yield
    [Reply ["error: ..."]] (the session continues). *)

val handle_batch : t -> string list -> response list
(** A block of protocol lines, with write coalescing: a maximal run of
    consecutive [insert] (resp. [delete]) lines whose facts all parse is
    applied as {e one} DRed update — one overdeletion/rederivation pass
    for the whole run.  The run's first line answers with the combined
    report in {!handle_line}'s format and the later lines answer
    ["ok coalesced"].  When the combined update is refused (a fact at the
    wrong arity, say), the run's lines are applied one at a time instead
    and each answers exactly as under {!handle_line}, so a valid write's
    fate never depends on which lines arrived with it.  Every other line
    behaves exactly as under {!handle_line}, and a run of one is
    byte-identical to it.  Processing stops at the first [quit]
    or [shutdown], whose response is the last element. *)

val stats_lines : t -> string list
(** The [stats] command's report: fact counts, cumulative update/query
    counters, plan-cache behaviour and the delta-scoped work counters. *)
