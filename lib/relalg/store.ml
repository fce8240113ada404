(* The global packed tuple store, hash-partitioned into stripes.

   Every tuple that enters a hashed relation is interned once into a flat
   [int array]: the symbol ids of all interned tuples, concatenated.  A
   tuple is then represented by an id, and the per-id side arrays give
   O(1) access to its offset, arity, precomputed hash and a memoized boxed
   {!Tuple.t} — so relations over ids never re-hash or re-compare symbol
   arrays, and reconstructing a tuple allocates nothing.

   The store is split into [part_count] independently locked stripes; a
   tuple's stripe is chosen by its hash, and its id carries the stripe in
   the high bits ([id = (p lsl part_shift) lor local]).  Lookups by id
   ([tuple], [hash], [arity], [get]) decode the stripe from the id and
   read that stripe's published snapshot — still lock-free array reads.
   Writers contend only with writers hitting the same stripe; evaluation
   is sequential, but a library caller may intern from several domains.
   Putting the partition in the high bits keeps each stripe's local ids
   dense from 0 and makes the concatenation of per-stripe sorted id runs
   (stripe-ascending) a globally sorted array — the property the
   partition-wise relation builders rely on to finish with one
   [Idset.of_sorted_array].  With one partition the ids coincide with the
   seed layout (local id = global id).

   Each stripe follows the same snapshot discipline as {!Symbol}: writers
   serialise on the stripe's [lock], append into the arrays (slots at or
   beyond a published count are never read), and publish a fresh immutable
   [state] record through an [Atomic.t].  The hash-bucket table is a plain
   array of local-id lists sized to keep the load factor at most 1, so a
   probe costs one masked index and on average one packed comparison,
   independent of how large the stripe has grown.  Appending conses onto a
   bucket of the current array in place; a reader holding an older snapshot
   may observe such a cons, but every bucket entry is guarded by
   [i < st.count] against the reader's own published count, so a snapshot
   never yields an id whose packed slots it cannot see.  Rehashing
   allocates a fresh array, and superseded arrays are never mutated again.

   On top of the stripes each domain keeps a small direct-mapped intern
   cache (hash -> id, validated against the packed words), so hot repeated
   tuples — the bulk of Θ-application traffic, where the same head tuple is
   re-derived every stage — resolve without touching a stripe at all. *)

type id = int

(* --- partitioning ------------------------------------------------------- *)

(* Ids are [(partition lsl part_shift) lor local].  44 bits of local id per
   stripe keeps ids well inside OCaml's 63-bit native int for any partition
   count we allow, and leaves local ids identical to seed ids when
   [part_count = 1]. *)
let part_shift = 44

let local_mask = (1 lsl part_shift) - 1

let max_partitions = 64

(* [NEGDL_PARTITIONS] pins the stripe count for the whole process (read
   once at module initialisation); rounded up to a power of two so stripe
   selection is a mask, clamped to [1 .. max_partitions].  The default is
   one stripe per recommended domain: partition bits in the id add
   [log2 partitions] levels to every Patricia-set operation downstream
   (measured ~7-8% sequential wall per doubling on semi-naive TC), so
   stripes a host cannot run concurrently are pure cost.  A single-core
   host therefore runs one stripe with seed-identical dense ids. *)
let part_count =
  let default = Domain.recommended_domain_count () in
  let requested =
    match Sys.getenv_opt "NEGDL_PARTITIONS" with
    | None -> min default max_partitions
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n max_partitions
      | _ -> min default max_partitions)
  in
  let rec pow2 p = if p >= requested then p else pow2 (2 * p) in
  pow2 1

let part_mask = part_count - 1

let partitions () = part_count

let id_part id = id lsr part_shift

let id_local id = id land local_mask

let id_make ~part ~local = (part lsl part_shift) lor local

(* Stripe choice mixes the tuple hash with a golden-ratio multiplier and
   takes high-ish bits, so the stripe index is independent of the low bits
   that index the stripe's own bucket table. *)
let part_of_hash h =
  if part_count = 1 then 0 else ((h * 0x9E3779B1) lsr 20) land part_mask

(* --- stripes ------------------------------------------------------------ *)

type state = {
  count : int;  (* local ids 0 .. count-1 are valid *)
  used : int;  (* words of [data] in use *)
  data : int array;  (* packed symbol ids *)
  off : int array;  (* off.(i): offset of tuple i in [data] *)
  len : int array;  (* len.(i): arity of tuple i *)
  hsh : int array;  (* hsh.(i): Tuple.hash, precomputed *)
  tup : Tuple.t array;  (* tup.(i): memoized boxed tuple *)
  buckets : id list array;  (* hash land (capacity - 1) -> local ids *)
}

type stripe = {
  st : state Atomic.t;
  lock : Mutex.t;
  mutable locked : int;
      (* lock acquisitions; written only under [lock], read racily by
         [contention] (stats only — a stale int is harmless). *)
}

let initial () =
  {
    count = 0;
    used = 0;
    data = Array.make 1024 0;
    off = Array.make 256 0;
    len = Array.make 256 0;
    hsh = Array.make 256 0;
    tup = Array.make 256 Tuple.empty;
    buckets = Array.make 256 [];
  }

let stripes =
  Array.init part_count (fun _ ->
      { st = Atomic.make (initial ()); lock = Mutex.create (); locked = 0 })

let packed_equal st i (t : Tuple.t) =
  let n = Tuple.arity t in
  st.len.(i) = n
  &&
  let o = st.off.(i) in
  let a = (t :> Symbol.t array) in
  let rec eq j =
    j = n
    || st.data.(o + j) = (Array.unsafe_get a j :> int) && eq (j + 1)
  in
  eq 0

let find_in st h t =
  let rec look = function
    | [] -> None
    | i :: rest ->
      (* [i < st.count] guards against conses appended to a shared bucket
         array after this snapshot was published. *)
      if i < st.count && st.hsh.(i) = h && packed_equal st i t then Some i
      else look rest
  in
  look st.buckets.(h land (Array.length st.buckets - 1))

let find t =
  let h = Tuple.hash t in
  let p = part_of_hash h in
  match find_in (Atomic.get stripes.(p).st) h t with
  | Some local -> Some (id_make ~part:p ~local)
  | None -> None

let grow_ints a =
  let bigger = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* The miss path: take the stripe lock, re-probe, append.  Shared by
   [intern] and [intern_seg]; [h] must be [Tuple.hash t] and [p] its
   stripe.  Returns the full (partition-carrying) id. *)
let intern_locked p h t =
  let s = stripes.(p) in
  Mutex.protect s.lock @@ fun () ->
  s.locked <- s.locked + 1;
  let st = Atomic.get s.st in
  (* Re-check against the latest snapshot: another domain may have
     interned [t] between our optimistic probe and taking the lock. *)
  match find_in st h t with
  | Some local -> id_make ~part:p ~local
  | None ->
    let n = Tuple.arity t in
    let local = st.count in
    let off, len, hsh, tup =
      if local < Array.length st.off then (st.off, st.len, st.hsh, st.tup)
      else
        ( grow_ints st.off,
          grow_ints st.len,
          grow_ints st.hsh,
          (let bigger = Array.make (2 * Array.length st.tup) Tuple.empty in
           Array.blit st.tup 0 bigger 0 (Array.length st.tup);
           bigger) )
    in
    let data =
      if st.used + n <= Array.length st.data then st.data
      else begin
        let cap = max (2 * Array.length st.data) (st.used + n) in
        let bigger = Array.make cap 0 in
        Array.blit st.data 0 bigger 0 st.used;
        bigger
      end
    in
    let a = (t :> Symbol.t array) in
    for j = 0 to n - 1 do
      data.(st.used + j) <- (Array.unsafe_get a j :> int)
    done;
    off.(local) <- st.used;
    len.(local) <- n;
    hsh.(local) <- h;
    tup.(local) <- t;
    let buckets =
      if local < Array.length st.buckets then st.buckets
      else begin
        (* Load factor reached 1: rehash into a fresh, twice-as-large
           array.  Older snapshots keep the superseded array, which is
           never mutated again. *)
        let cap = 2 * Array.length st.buckets in
        let b = Array.make cap [] in
        let m = cap - 1 in
        for i = 0 to local - 1 do
          let k = hsh.(i) land m in
          b.(k) <- i :: b.(k)
        done;
        b
      end
    in
    let k = h land (Array.length buckets - 1) in
    buckets.(k) <- local :: buckets.(k);
    Atomic.set s.st
      {
        count = local + 1;
        used = st.used + n;
        data;
        off;
        len;
        hsh;
        tup;
        buckets;
      };
    id_make ~part:p ~local

(* --- per-domain intern cache -------------------------------------------- *)

(* A direct-mapped hash -> id cache private to each domain.  A hit is
   validated by re-reading the cached id's packed words, so hash collisions
   merely fall through to the stripe probe.  Hit/miss counters are summed
   across all domains' caches by [contention]; the reads are racy, which is
   fine for statistics (native ints do not tear). *)

let cache_bits = 9

let cache_size = 1 lsl cache_bits

let cache_mask = cache_size - 1

type dcache = {
  keys : int array;  (* keys.(s): tuple hash cached in slot s *)
  ids : int array;  (* ids.(s): interned id, or -1 for empty *)
  mutable hits : int;
  mutable misses : int;
}

let cache_registry : dcache list ref = ref []

let cache_registry_lock = Mutex.create ()

let cache_key : dcache Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c =
        {
          keys = Array.make cache_size 0;
          ids = Array.make cache_size (-1);
          hits = 0;
          misses = 0;
        }
      in
      Mutex.protect cache_registry_lock (fun () ->
          cache_registry := c :: !cache_registry);
      c)

(* Validate a cached id against [t]: published counts only grow, so any id
   ever returned by an intern is readable in the current snapshot. *)
let id_matches h (t : Tuple.t) id =
  let st = Atomic.get stripes.(id_part id).st in
  let local = id_local id in
  st.hsh.(local) = h && packed_equal st local t

let intern t =
  let h = Tuple.hash t in
  let c = Domain.DLS.get cache_key in
  let slot = (h lxor (h lsr 17)) land cache_mask in
  let cached = c.ids.(slot) in
  if cached >= 0 && c.keys.(slot) = h && id_matches h t cached then begin
    c.hits <- c.hits + 1;
    cached
  end
  else begin
    c.misses <- c.misses + 1;
    let p = part_of_hash h in
    let id =
      match find_in (Atomic.get stripes.(p).st) h t with
      | Some local -> id_make ~part:p ~local
        (* optimistic lock-free hit: the common case once warm *)
      | None -> intern_locked p h t
    in
    c.keys.(slot) <- h;
    c.ids.(slot) <- id;
    id
  end

(* Segment variants: hash and compare a row in place inside a larger symbol
   array, so bulk loaders (the snapshot restore) probe without boxing a
   tuple per row.  [hash_seg] must agree with [Tuple.hash]. *)

let hash_seg (a : Symbol.t array) pos len =
  let acc = ref 17 in
  for j = pos to pos + len - 1 do
    acc := (!acc * 31) + (Array.unsafe_get a j :> int)
  done;
  !acc

let packed_equal_seg st i (a : Symbol.t array) pos len =
  st.len.(i) = len
  &&
  let o = st.off.(i) in
  let rec eq j =
    j = len
    || st.data.(o + j) = (Array.unsafe_get a (pos + j) :> int) && eq (j + 1)
  in
  eq 0

let find_seg_in st h a pos len =
  let rec look = function
    | [] -> None
    | i :: rest ->
      if i < st.count && st.hsh.(i) = h && packed_equal_seg st i a pos len
      then Some i
      else look rest
  in
  look st.buckets.(h land (Array.length st.buckets - 1))

let intern_seg a ~pos ~len =
  let h = hash_seg a pos len in
  let p = part_of_hash h in
  match find_seg_in (Atomic.get stripes.(p).st) h a pos len with
  | Some local -> id_make ~part:p ~local
  | None -> intern_locked p h (Tuple.unsafe_make (Array.sub a pos len))

let mem t = find t <> None

let tuple id = (Atomic.get stripes.(id_part id).st).tup.(id_local id)

let hash id = (Atomic.get stripes.(id_part id).st).hsh.(id_local id)

let arity id = (Atomic.get stripes.(id_part id).st).len.(id_local id)

let get id j =
  let st = Atomic.get stripes.(id_part id).st in
  let local = id_local id in
  if j < 0 || j >= st.len.(local) then invalid_arg "Store.get"
  else Symbol.unsafe_of_id st.data.(st.off.(local) + j)

let count () =
  Array.fold_left (fun acc s -> acc + (Atomic.get s.st).count) 0 stripes

let part_counts () = Array.map (fun s -> (Atomic.get s.st).count) stripes

(* --- contention counters ------------------------------------------------ *)

type contention = {
  stripe_locks : int;
  cache_hits : int;
  cache_misses : int;
  partition_skew : int;
}

let contention () =
  let stripe_locks = Array.fold_left (fun acc s -> acc + s.locked) 0 stripes in
  let cache_hits, cache_misses =
    Mutex.protect cache_registry_lock (fun () ->
        List.fold_left
          (fun (h, m) c -> (h + c.hits, m + c.misses))
          (0, 0) !cache_registry)
  in
  let partition_skew =
    if part_count = 1 then 0
    else
      let counts = part_counts () in
      let mx = Array.fold_left max counts.(0) counts in
      let mn = Array.fold_left min counts.(0) counts in
      mx - mn
  in
  { stripe_locks; cache_hits; cache_misses; partition_skew }

(* --- packed views ------------------------------------------------------- *)

type view = {
  v_counts : int array;
  v_data : int array array;
  v_off : int array array;
  v_len : int array array;
}

let view () =
  let sts = Array.map (fun s -> Atomic.get s.st) stripes in
  {
    v_counts = Array.map (fun st -> st.count) sts;
    v_data = Array.map (fun st -> st.data) sts;
    v_off = Array.map (fun st -> st.off) sts;
    v_len = Array.map (fun st -> st.len) sts;
  }
