(** Interned constants.

    Every constant appearing in a database universe or in a program is
    interned into a global table, so that a symbol is represented by a small
    integer and tuples of symbols compare and hash fast.  Interning is
    deterministic within a process: the same string always yields the same
    symbol.

    The table is domain-safe: both directions are published through
    immutable snapshots, so {!intern} probes lock-free and serialises on a
    mutex only to add a genuinely new name ({!fresh} always locks),
    several domains may intern concurrently, and {!name}/{!count} never
    lock. *)

type t = private int
(** An interned constant.  The integer representation is exposed read-only so
    that symbols can index arrays and sets of symbols can be bitsets. *)

val intern : string -> t
(** [intern s] returns the symbol for the string [s], creating it on first
    use. *)

val of_int : int -> t
(** [of_int n] interns the decimal rendering of [n]; convenient for numeric
    universes such as the vertex sets of generated graphs. *)

val name : t -> string
(** [name s] is the string that was interned to produce [s]. *)

val to_int : t -> int
(** [to_int s] is the raw identifier of [s]. *)

val unsafe_of_id : int -> t
(** [unsafe_of_id id] converts a raw identifier back to a symbol.  The caller
    must guarantee that [id] was produced by {!to_int}. *)

val count : unit -> int
(** Number of symbols interned so far. *)

val export_names : unit -> string array
(** One immutable snapshot of the intern table: index [i] holds the name of
    the symbol whose {!to_int} is [i], for every symbol interned before the
    call.  The snapshot writer uses this to resolve names by plain array
    indexing instead of one atomic read per component. *)

val compare : t -> t -> int
(** Total order on symbols (by identifier, i.e. by interning time). *)

val as_int : t -> int option
(** The symbol's name read as a decimal integer, when it is one. *)

val compare_value : t -> t -> int
(** The {e value} order used by limit predicates and by the [<=] / [>=]
    comparison literals: numeric when both names parse as integers,
    lexicographic on names otherwise.  Deterministic across processes
    (unlike {!compare}, it does not depend on interning order). *)

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints the symbol's name. *)

val fresh : string -> t
(** [fresh prefix] interns a name based on [prefix] that is guaranteed not to
    have been interned before; used by program transformations that need new
    constants. *)
