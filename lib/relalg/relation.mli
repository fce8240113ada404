(** Finite relations.

    A relation is a set of tuples that all share one arity, fixed at
    creation.  Operations that combine two relations require compatible
    arities and raise [Invalid_argument] otherwise.

    Tuples are interned once into the global packed {!Store} and a
    relation is a Patricia set ({!Idset}) of their integer ids with an
    O(1) cached cardinal: membership is a precomputed-hash probe, and
    union / intersection / difference / equality merge shared structure
    instead of comparing tuples elementwise.

    Every relation additionally carries memoized per-column hash indexes
    (see {!matching}): a column's index is built at most once per value of
    the relation, and a relation derived from an indexed one inherits its
    built indexes, kept up to date with the change:
    - {!add}, {!add_all} and {!union} add the fresh tuples — unioning a
      delta into an indexed relation costs O(|delta|) per built column
      instead of a full rebuild;
    - {!remove} and {!diff} take the removed tuples out, filtering each
      touched bucket once, whenever fewer tuples leave than stay (when
      more leave, the indexes start over lazily: a rebuild then costs no
      more than the removal);
    - {!inter}, {!filter}, {!map} and the bulk constructors start lazy.
    So a served model keeps its indexes through every update batch, and
    a batch pays for the tuples it changes, not for the relations it
    touches.  Indexes are held in persistent maps, so sharing them across
    derived relations is safe, including across domains (a racy lazy
    build at worst duplicates work, never corrupts).

    Iteration order ({!iter}, {!fold}) is intern order: deterministic, but
    not tuple order.  {!to_list} (and hence {!pp}) sorts. *)

type t

type storage = [ `Hashed ]
(** The one relation store.  The type and {!set_default_storage} exist only
    because the end-to-end benchmark harness under [bench/e2e], which is
    frozen between benchmark revisions, still names the store it runs on;
    both go when that harness drops the call. *)

val set_default_storage : storage -> unit
(** Does nothing; see {!storage}. *)

(** {1 Construction and set structure} *)

val empty : int -> t
(** [empty k] is the empty relation of arity [k]. *)

val arity : t -> int

val is_empty : t -> bool

val cardinal : t -> int
(** O(1). *)

val ids : t -> Idset.t
(** The interned tuple-id set backing the relation.  Lets the snapshot
    writer stream packed {!Store} rows without boxing tuples. *)

val mem : Tuple.t -> t -> bool

val add : Tuple.t -> t -> t
(** @raise Invalid_argument if the tuple's arity differs from the
    relation's. *)

val remove : Tuple.t -> t -> t
(** [remove t r] is [r] without [t] ([r] itself when [t] is absent).  The
    built column indexes lose [t] too, unless [r] held two tuples or fewer
    (see the module preamble). *)

val singleton : Tuple.t -> t

val of_list : int -> Tuple.t list -> t
(** [of_list k tuples] builds an arity-[k] relation in one bulk pass (no
    per-add index maintenance).  All tuples must have arity [k]. *)

val of_seq : int -> Tuple.t Seq.t -> t
(** Bulk construction from a sequence; the sequence is forced once. *)

val of_array : int -> Tuple.t array -> t
(** [of_array k tuples] builds an arity-[k] relation in one bulk pass,
    without the intermediate list of {!of_list}: tuples are interned into
    an id array that is sorted and deduplicated in place.  All tuples must
    have arity [k]; the array is not retained. *)

val of_flat_rows : int -> Symbol.t array -> t
(** [of_flat_rows k flat] builds the arity-[k] relation whose rows are the
    consecutive length-[k] segments of [flat] — the snapshot-restore fast
    path: rows are interned in place ({!Store.intern_seg}, no per-row
    boxing), and when the resulting ids span most of the store the
    sort-and-dedup pass is a dense mark-and-sweep rather than a comparison
    sort.  [flat] is not retained.
    @raise Invalid_argument if [k <= 0] or [Array.length flat] is not a
    multiple of [k]. *)

val add_all : Tuple.t list -> t -> t
(** [add_all tuples r] is [r] with all tuples added, as one bulk union:
    membership is probed per tuple, the set is extended once, and [r]'s
    already-built column indexes are extended with only the fresh tuples.
    @raise Invalid_argument on an arity mismatch. *)

val to_list : t -> Tuple.t list
(** Tuples in increasing order. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** Intern order (see the module preamble). *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val for_all : (Tuple.t -> bool) -> t -> bool

val exists : (Tuple.t -> bool) -> t -> bool

val filter : (Tuple.t -> bool) -> t -> t

val map : int -> (Tuple.t -> Tuple.t) -> t -> t
(** [map k f r] applies [f] to every tuple; the result has arity [k].
    @raise Invalid_argument if [f] returns a tuple whose arity is not
    [k]. *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t
(** [diff r1 r2] is [r1] without the tuples of [r2].  The cost follows the
    change, not the result: when [r2] is at most half of [r1], the removed
    tuples are found among [r2]'s and their count subtracted; otherwise
    the result is counted, which on two versions of one relation (sharing
    all but a few paths) is the small delta between them.  [r1]'s built
    indexes lose the removed tuples when fewer leave than stay, and are
    rebuilt lazily otherwise.  [r1] itself when nothing is removed. *)

val subset : t -> t -> bool
(** [subset r1 r2] is true when every tuple of [r1] is in [r2]. *)

val equal : t -> t -> bool
(** Same arity and same tuple set. *)

val compare : t -> t -> int
(** A total order consistent with {!equal}.  It depends on intern order,
    so it is stable within a process but not across processes. *)

val choose_opt : t -> Tuple.t option

(** {1 Bulk builder}

    A mutable accumulator for streaming construction: the evaluation engine
    emits head tuples into a builder and finalises once per rule
    application, paying one membership probe and one insert per tuple —
    no intermediate relation records. *)

type builder

val builder : int -> builder
(** [builder k]: an empty accumulator for an arity-[k] relation. *)

val builder_add : builder -> Tuple.t -> bool
(** Adds a tuple; [true] iff it was not already accumulated. *)

val builder_cardinal : builder -> int
(** The number of distinct tuples accumulated. *)

val build : builder -> t
(** Finalise.  The builder must not be reused afterwards; the relation's
    column indexes start lazy (built on first join against it). *)

(** {1 Relational algebra} *)

val product : t -> t -> t
(** Cartesian product; arities add.  Built in one bulk pass. *)

val project : int list -> t -> t
(** [project positions r] projects every tuple onto [positions] (which may
    repeat or reorder components). *)

val select : (Tuple.t -> bool) -> t -> t
(** Synonym of {!filter}, relational-algebra flavour. *)

val select_eq : int -> Symbol.t -> t -> t
(** [select_eq i c r] keeps tuples whose [i]-th component is [c]: the
    column-[i] bucket of [c] ({!matching}), turned into a relation through
    the tuples' store ids ({!Store.find}) without interning anything.  The
    cost is the answer's size once the index is built.
    @raise Invalid_argument if [i] is outside the arity. *)

val matching : int -> Symbol.t -> t -> Tuple.t list
(** [matching pos c r] is the list of tuples of [r] whose component [pos]
    equals [c], served from the memoized column index (built on first use,
    then reused, and carried to the relations derived from [r] by
    {!add}/{!add_all}/{!union}/{!remove}/{!diff} — see the module
    preamble).  The list is in no particular order and has no duplicates.
    @raise Invalid_argument if [pos] is outside the arity. *)

val has_index : t -> int -> bool
(** Whether the column-[pos] index is already materialised for this value —
    a {!matching} call on such a column is a cache hit.  Out-of-range
    columns answer [false]. *)

val join_positions : (int * int) list -> t -> t -> t
(** [join_positions eqs r1 r2] is the subset of the product of [r1] and [r2]
    where, for each [(i, j)] in [eqs], component [i] of the [r1]-tuple equals
    component [j] of the [r2]-tuple. *)

val full : Symbol.t list -> int -> t
(** [full universe k] is the complete relation [universe]{^ k}, built in one
    bulk pass.  Use only for small [|universe|]{^ k}. *)

val complement : Symbol.t list -> t -> t
(** [complement universe r] is [full universe (arity r)] minus [r]. *)

(** {1 Limit semantics}

    Support for limit predicates (min/max aggregation per group): a limit
    relation keeps, per valuation of its non-limit columns (the {e group}),
    only the tuple whose limit-column value is dominant under
    {!Symbol.compare_value}. *)

val tighten :
  kind:[ `Min | `Max ] -> col:int -> t -> t -> t * t
(** [tighten ~kind ~col current candidates] merges [candidates] into the
    limit relation [current]: for each group appearing in [candidates], the
    dominant candidate replaces [current]'s bound when it improves on it
    (strictly smaller for [`Min], strictly larger for [`Max]) and is dropped
    otherwise.  Returns [(result, changed)] where [changed] holds exactly
    the newly-dominant tuples — the {e changed-group delta} that keeps
    semi-naive evaluation semi-naive.  Group lookups go through the
    memoized column index of the first group column.
    @raise Invalid_argument on an arity mismatch or an out-of-range
    column. *)

val dominant : kind:[ `Min | `Max ] -> col:int -> t -> t
(** [dominant ~kind ~col r] keeps only the dominant tuple of each group —
    the brute-force reference semantics for a limit relation. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{(a, b); (c, d)}], in sorted tuple order. *)

val to_string : t -> string
