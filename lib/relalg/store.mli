(** The global packed tuple store: one append-only table.

    Interns tuples into flat, append-only [int array]s of symbol ids with
    per-tuple precomputed hashes, so that a tuple is represented everywhere
    else by an integer {!id}: membership and set algebra on relations
    become integer-set operations ({!Idset}), equality never re-walks symbol
    arrays, and {!tuple} returns the memoized boxed tuple without
    allocating.  Ids are dense, [0 .. count () - 1], in first-intern order,
    so interning is deterministic within a process.

    The store is domain-safe like {!Symbol}: writers serialise on one mutex
    and publish immutable snapshots; readers ({!find}, {!lookup}, {!mem},
    {!tuple}, {!hash}, {!arity}) never lock, and {!intern} takes the lock
    only to append a tuple its lock-free probe did not find. *)

type id = int
(** A tuple identifier, valid for the whole process lifetime. *)

val intern : Tuple.t -> id
(** [intern t] returns the id of [t], packing it into the store on first
    use. *)

val intern_seg : Symbol.t array -> pos:int -> len:int -> id
(** [intern_seg a ~pos ~len] interns the tuple
    [a.(pos) .. a.(pos + len - 1)]: the hash and the probe read the
    segment in place, and a boxed tuple is built only on first intern.
    Equivalent to [intern (Tuple.make (Array.sub a pos len))] — bulk
    loaders use it to probe row-major matrices without boxing a tuple per
    row. *)

val find : Tuple.t -> id option
(** [find t] is [t]'s id if it was ever interned, without interning it, so
    probing for unseen tuples does not grow the store. *)

val lookup : Tuple.t -> id
(** {!find} without the option: [t]'s id, or [-1] if it was never
    interned.  Allocation-free, for membership tests on hot paths. *)

val mem : Tuple.t -> bool

val tuple : id -> Tuple.t
(** The memoized boxed tuple; O(1), no allocation, no lock. *)

val hash : id -> int
(** [Tuple.hash] of the tuple, precomputed at intern time. *)

val arity : id -> int

val get : id -> int -> Symbol.t
(** [get id j] is component [j], read from the packed array.
    @raise Invalid_argument if [j] is out of range. *)

val count : unit -> int
(** Number of distinct tuples interned so far; the next fresh tuple gets
    this id. *)

type contention = {
  stripe_locks : int;  (** Lock acquisitions: appends and their re-probes. *)
  cache_hits : int;  (** {!intern}/{!intern_seg} calls that found their tuple. *)
  cache_misses : int;  (** {!intern}/{!intern_seg} calls that did not. *)
}

val contention : unit -> contention
(** Process-cumulative counters, for statistics only: they are plain ints,
    so a count may be lost when several domains intern at once. *)

type view = {
  v_count : int;  (** Ids [0 .. v_count - 1] are readable. *)
  v_data : int array;  (** Packed symbol ids. *)
  v_off : int array;  (** [v_off.(i)]: offset of tuple [i] in [v_data]. *)
  v_len : int array;  (** [v_len.(i)]: arity of tuple [i]. *)
}
(** A published snapshot of the packed arrays: components of the tuple with
    id [i] are [v_data.(v_off.(i) + j)] for [j < v_len.(i)].  Slots at or
    beyond [v_count] must not be read.  The arrays are the store's own
    (append-only up to the published count) — treat them as read-only. *)

val view : unit -> view
(** The current packed snapshot, lock-free.  The snapshot writer streams
    relation contents straight out of the flat arrays through this — no
    per-tuple boxing or hashing on the export path. *)
