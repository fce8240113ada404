(* The global packed tuple store: one append-only table.

   Every tuple that enters a relation is interned once into a flat
   [int array]: the symbol ids of all interned tuples, concatenated.  A
   tuple is then represented by an id, dense in first-intern order, and the
   per-id side arrays give O(1) access to its offset, arity, precomputed
   hash and a memoized boxed {!Tuple.t} — so relations over ids never
   re-hash or re-compare symbol arrays, and reconstructing a tuple
   allocates nothing.

   The store follows the same snapshot discipline as {!Symbol}: writers
   serialise on [lock], append into the arrays (slots at or beyond a
   published count are never read), and publish a fresh immutable [state]
   record through an [Atomic.t].  Evaluation is sequential, but a library
   caller may intern from several domains.

   Tuples are found through [table], an open-addressed [int array] of ids
   (-1 marks an empty slot) kept at most half full and probed linearly, so
   a probe costs one mixed hash and on average about one packed comparison,
   without a cons cell per tuple.  Probes read the published state and take
   no lock.  An append writes its id into an empty slot of the current table
   in place; a reader holding an older state may observe it, but every id a
   probe finds is guarded by [i < st.count] against the reader's own
   published count, so a state never yields an id whose packed slots it
   cannot see.  Growth rehashes into a fresh array, and a superseded table
   is never mutated again. *)

type id = int

type state = {
  count : int;  (* ids 0 .. count-1 are valid *)
  used : int;  (* words of [data] in use *)
  data : int array;  (* packed symbol ids *)
  off : int array;  (* off.(i): offset of tuple i in [data] *)
  len : int array;  (* len.(i): arity of tuple i *)
  hsh : int array;  (* hsh.(i): Tuple.hash, precomputed *)
  tup : Tuple.t array;  (* tup.(i): memoized boxed tuple *)
  table : int array;  (* ids by mixed hash, -1 = empty; a power of two *)
}

let state =
  Atomic.make
    {
      count = 0;
      used = 0;
      data = Array.make 1024 0;
      off = Array.make 256 0;
      len = Array.make 256 0;
      hsh = Array.make 256 0;
      tup = Array.make 256 Tuple.empty;
      table = Array.make 512 (-1);
    }

let lock = Mutex.create ()

(* Statistics only: plain ints, so a count may be lost when several domains
   intern at once. *)
let hits = ref 0

let misses = ref 0

(* [Tuple.hash] of a pair is 16337 + 31a + b, so neighbouring tuples have
   neighbouring hashes, and linear probing on the raw hash would run them
   into long clusters.  A multiply-xorshift spreads them over the table. *)
let slot h mask =
  let x = h * 0x2545F4914F6CDD1D in
  (x lxor (x lsr 32)) land mask

(* The probe loops are top-level functions with explicit arguments: a local
   closure would allocate on every intern. *)
let rec words_equal data o (a : Symbol.t array) pos j len =
  j = len
  || data.(o + j) = (Array.unsafe_get a (pos + j) :> int)
     && words_equal data o a pos (j + 1) len

(* The id of the segment [a.(pos) .. a.(pos + len - 1)], whose hash is [h],
   in [st]; -1 when [st] does not hold it.  An id at or beyond [st.count]
   was appended after [st] was published: it is skipped, not followed. *)
let rec probe st h (a : Symbol.t array) pos len mask s =
  let i = Array.unsafe_get st.table s in
  if i < 0 then -1
  else if
    i < st.count && st.hsh.(i) = h && st.len.(i) = len
    && words_equal st.data st.off.(i) a pos 0 len
  then i
  else probe st h a pos len mask ((s + 1) land mask)

let find_in st h a pos len =
  let mask = Array.length st.table - 1 in
  probe st h a pos len mask (slot h mask)

(* Writes [i] into the first empty slot from [s] on. *)
let rec place table mask i s =
  if Array.unsafe_get table s < 0 then Array.unsafe_set table s i
  else place table mask i ((s + 1) land mask)

let grow_ints a =
  let bigger = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* The miss path: take the lock, re-probe the latest state (another domain
   may have interned [t] since our lock-free probe), append.  [h] must be
   [Tuple.hash t]. *)
let intern_locked h (t : Tuple.t) =
  Mutex.protect lock @@ fun () ->
  let st = Atomic.get state in
  let a = (t :> Symbol.t array) in
  let n = Array.length a in
  let found = find_in st h a 0 n in
  if found >= 0 then found
  else begin
    let i = st.count in
    let off, len, hsh, tup =
      if i < Array.length st.off then (st.off, st.len, st.hsh, st.tup)
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
    for j = 0 to n - 1 do
      data.(st.used + j) <- (Array.unsafe_get a j :> int)
    done;
    off.(i) <- st.used;
    len.(i) <- n;
    hsh.(i) <- h;
    tup.(i) <- t;
    let table =
      if 2 * (i + 1) <= Array.length st.table then st.table
      else begin
        (* Past half full: rehash into a fresh, twice-as-large array.
           Older states keep the superseded one, never mutated again. *)
        let table = Array.make (2 * Array.length st.table) (-1) in
        let mask = Array.length table - 1 in
        for k = 0 to i - 1 do
          place table mask k (slot hsh.(k) mask)
        done;
        table
      end
    in
    let mask = Array.length table - 1 in
    place table mask i (slot h mask);
    Atomic.set state
      { count = i + 1; used = st.used + n; data; off; len; hsh; tup; table };
    i
  end

let intern t =
  let h = Tuple.hash t in
  let a = (t :> Symbol.t array) in
  let i = find_in (Atomic.get state) h a 0 (Array.length a) in
  if i >= 0 then begin
    incr hits;
    i
  end
  else begin
    incr misses;
    intern_locked h t
  end

(* Segment variant: hash and compare a row in place inside a larger symbol
   array, so bulk loaders (the snapshot restore) probe without boxing a
   tuple per row.  [hash_seg] must agree with [Tuple.hash]. *)

let hash_seg (a : Symbol.t array) pos len =
  let acc = ref 17 in
  for j = pos to pos + len - 1 do
    acc := (!acc * 31) + (Array.unsafe_get a j :> int)
  done;
  !acc

let intern_seg a ~pos ~len =
  let h = hash_seg a pos len in
  let i = find_in (Atomic.get state) h a pos len in
  if i >= 0 then begin
    incr hits;
    i
  end
  else begin
    incr misses;
    intern_locked h (Tuple.unsafe_make (Array.sub a pos len))
  end

let lookup t =
  let h = Tuple.hash t in
  let a = (t :> Symbol.t array) in
  find_in (Atomic.get state) h a 0 (Array.length a)

let find t =
  let i = lookup t in
  if i < 0 then None else Some i

let mem t = lookup t >= 0

let tuple id = (Atomic.get state).tup.(id)

let hash id = (Atomic.get state).hsh.(id)

let arity id = (Atomic.get state).len.(id)

let get id j =
  let st = Atomic.get state in
  if j < 0 || j >= st.len.(id) then invalid_arg "Store.get"
  else Symbol.unsafe_of_id st.data.(st.off.(id) + j)

let count () = (Atomic.get state).count

(* --- contention counters ------------------------------------------------ *)

type contention = { stripe_locks : int; cache_hits : int; cache_misses : int }

(* The lock is taken exactly on a miss, so [stripe_locks] is the miss
   count. *)
let contention () =
  { stripe_locks = !misses; cache_hits = !hits; cache_misses = !misses }

(* --- packed view -------------------------------------------------------- *)

type view = {
  v_count : int;
  v_data : int array;
  v_off : int array;
  v_len : int array;
}

let view () =
  let st = Atomic.get state in
  { v_count = st.count; v_data = st.data; v_off = st.off; v_len = st.len }
