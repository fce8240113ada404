(** Persistent sets of non-negative integers.

    Big-endian Patricia trees (Okasaki-Gill): membership, insertion and
    removal cost O(min(W, log n)) {e integer} comparisons — no boxed-key
    compare function — and the set-algebraic operations ([union], [inter],
    [diff], [subset], [equal]) merge shared structure in
    O(min(|s|, |t|)) instead of walking every element.  The representation
    is canonical, so structural equality coincides with set equality.

    These sets hold the interned tuple ids of {!Store}, making them the
    substrate of {!Relation}.

    All operations that insert elements raise [Invalid_argument] on negative
    integers. *)

type t

val empty : t

val is_empty : t -> bool

val singleton : int -> t

val mem : int -> t -> bool

val add : int -> t -> t
(** Physically returns the input set when the element is already present. *)

val remove : int -> t -> t

(** The merges below return at once on physically equal operands (or
    subtrees): two versions of one set that share all but a few paths
    merge in time proportional to the paths that differ.  [diff s t]
    returns [s] itself when nothing is removed, and otherwise shares every
    untouched subtree of [s]. *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int
(** A total order consistent with {!equal} (structural, by canonicity). *)

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** In increasing order. *)

val iter_with : ('a -> int -> int -> unit) -> 'a -> int -> t -> unit
(** [iter_with f a i s] calls [f a i k] on every member [k], in increasing
    order.  With [f] a top-level function, a walk allocates nothing, where
    {!iter} needs a closure over [a] and [i] per call. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** In increasing order. *)

val for_all : (int -> bool) -> t -> bool

val exists : (int -> bool) -> t -> bool

val filter : (int -> bool) -> t -> t

val elements : t -> int list
(** In increasing order. *)

val choose_opt : t -> int option
(** The minimum element, if any. *)

val of_list : int list -> t

val of_sorted_array : int array -> t
(** [of_sorted_array a] builds the set of a strictly increasing array in
    one pass: one allocation per node of the (canonical) result, where
    folding {!add} copies a root path per element — the bulk-construction
    path of the hashed backend and the snapshot restore.  The array is not
    retained.  Unspecified if [a] is not strictly increasing.
    @raise Invalid_argument on negative elements. *)
