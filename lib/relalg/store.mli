(** The global packed tuple store, hash-partitioned into stripes.

    Interns tuples into flat, append-only [int array]s of symbol ids with
    per-tuple precomputed hashes, so that a tuple is represented everywhere
    else by an integer {!id}: membership and set algebra on relations
    become integer-set operations ({!Idset}), equality never re-walks symbol
    arrays, and {!tuple} returns the memoized boxed tuple without
    allocating.

    The store is split into {!partitions} independently locked stripes
    (chosen by tuple hash; [NEGDL_PARTITIONS] pins the count, defaulting
    to the host's recommended domain count,
    rounded to a power of two and clamped to 1..64).  An id carries its
    stripe in the high bits ([{!id_part} lsl 44 lor {!id_local}]), so ids
    are dense {e per stripe} rather than globally, and the concatenation of
    per-stripe ascending local-id runs in stripe order is globally sorted —
    the invariant the partition-wise relation builders exploit.  With one
    partition, ids coincide with the seed's dense global layout.

    Each stripe is domain-safe like {!Symbol}: writers serialise on the
    stripe's mutex and publish immutable snapshots; readers ({!find},
    {!mem}, {!tuple}, {!hash}, {!arity}) never lock.  Each domain
    additionally keeps a small private intern cache so repeated interns of
    hot tuples skip the stripe probe entirely.  Interning is deterministic
    within a process for a fixed partition count — local ids are dense and
    assigned in first-intern order per stripe. *)

type id = int
(** A tuple identifier, valid for the whole process lifetime.  Dense within
    its stripe; the stripe index lives in the high bits. *)

val partitions : unit -> int
(** Number of stripes (a power of two, fixed at process start). *)

val id_part : id -> int
(** The stripe an id belongs to. *)

val id_local : id -> int
(** The id's dense index within its stripe ([0 .. stripe count - 1]). *)

val id_make : part:int -> local:int -> id
(** Recompose an id from its stripe and local index. *)

val intern : Tuple.t -> id
(** [intern t] returns the id of [t], packing it into the store on first
    use.  Probes the calling domain's cache, then the stripe lock-free,
    and takes the stripe lock only to append a genuinely new tuple. *)

val intern_seg : Symbol.t array -> pos:int -> len:int -> id
(** [intern_seg a ~pos ~len] interns the tuple
    [a.(pos) .. a.(pos + len - 1)]: the hash and the probe read the
    segment in place, and a boxed tuple is built only on first intern.
    Equivalent to [intern (Tuple.make (Array.sub a pos len))] — bulk
    loaders use it to probe row-major matrices without boxing a tuple per
    row. *)

val find : Tuple.t -> id option
(** [find t] is [t]'s id if it was ever interned, without interning it —
    membership tests on relations use this, so probing for unseen tuples
    does not grow the store. *)

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
(** Number of distinct tuples interned so far, summed over stripes. *)

val part_counts : unit -> int array
(** Per-stripe tuple counts, indexed by stripe.  Local ids
    [0 .. part_counts ().(p) - 1] are valid in stripe [p]. *)

type contention = {
  stripe_locks : int;  (** Stripe lock acquisitions since process start. *)
  cache_hits : int;  (** Per-domain intern-cache hits, all domains. *)
  cache_misses : int;  (** Per-domain intern-cache misses, all domains. *)
  partition_skew : int;
      (** Max minus min stripe cardinality (0 when one stripe). *)
}

val contention : unit -> contention
(** Process-cumulative contention counters.  Reads are racy (stats only)
    but never torn. *)

type view = {
  v_counts : int array;
      (** Local ids [0 .. v_counts.(p) - 1] are readable in stripe [p]. *)
  v_data : int array array;  (** Per-stripe packed symbol ids. *)
  v_off : int array array;
      (** [v_off.(p).(i)]: offset of stripe [p]'s tuple [i] in
          [v_data.(p)]. *)
  v_len : int array array;  (** [v_len.(p).(i)]: arity of tuple [i]. *)
}
(** A published snapshot of the packed arrays: components of the tuple with
    id [x] are [v_data.(p).(v_off.(p).(l) + j)] for [p = id_part x],
    [l = id_local x], [j < v_len.(p).(l)].  Slots at or beyond
    [v_counts.(p)] must not be read.  The arrays are the store's own
    (append-only up to the published counts) — treat them as read-only. *)

val view : unit -> view
(** The current packed snapshot, lock-free.  The snapshot writer streams
    relation contents straight out of the flat arrays through this — no
    per-tuple boxing or hashing on the export path. *)
