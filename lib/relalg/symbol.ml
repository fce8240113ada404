type t = int

(* The intern table is shared by every domain (evaluation is sequential,
   but a library caller may intern from several), so mutation is
   serialised by [lock] and the read side works on immutable snapshots
   published through [state]: the [names] array is append-only — a slot
   is written before the count that covers it is published, and growth
   swaps in a fresh array — so a reader that obtained an id through any
   synchronising edge sees its name.

   The string -> id direction lives in [buckets], an id-list hash table kept
   inside the published snapshot so [intern] can probe it without the lock
   (mirroring [Store.intern]'s find-first path): appending conses onto a
   bucket of the current array in place, and every entry is guarded by
   [i < st.count] against the reader's own published count, so a reader
   holding an older snapshot never dereferences a name slot it cannot see.
   The lock is taken only when the probe misses — re-interning an existing
   name, the overwhelmingly common case once a workload is warm, is
   lock-free. *)
type state = {
  names : string array;
  count : int;
  buckets : int list array;  (* Hashtbl.hash name land (capacity-1) -> ids *)
}

let state =
  Atomic.make
    { names = Array.make 1024 ""; count = 0; buckets = Array.make 1024 [] }

let lock = Mutex.create ()

let find_in st h s =
  let rec look = function
    | [] -> None
    | i :: rest ->
      if i < st.count && String.equal st.names.(i) s then Some i
      else look rest
  in
  look st.buckets.(h land (Array.length st.buckets - 1))

(* The miss path: re-probe the latest snapshot under the lock, then append
   and publish.  [h] must be [Hashtbl.hash s]. *)
let intern_locked h s =
  let st = Atomic.get state in
  match find_in st h s with
  | Some id -> id
  | None ->
    let id = st.count in
    let names =
      if id < Array.length st.names then st.names
      else begin
        let bigger = Array.make (2 * Array.length st.names) "" in
        Array.blit st.names 0 bigger 0 (Array.length st.names);
        bigger
      end
    in
    names.(id) <- s;
    let buckets =
      if id < Array.length st.buckets then st.buckets
      else begin
        (* Load factor reached 1: rehash into a fresh, twice-as-large
           array.  Older snapshots keep the superseded array, which is
           never mutated again. *)
        let cap = 2 * Array.length st.buckets in
        let b = Array.make cap [] in
        let m = cap - 1 in
        for i = 0 to id - 1 do
          let k = Hashtbl.hash names.(i) land m in
          b.(k) <- i :: b.(k)
        done;
        b
      end
    in
    let k = h land (Array.length buckets - 1) in
    buckets.(k) <- id :: buckets.(k);
    Atomic.set state { names; count = id + 1; buckets };
    id

let intern s =
  let h = Hashtbl.hash s in
  match find_in (Atomic.get state) h s with
  | Some id -> id  (* lock-free hit on the published snapshot *)
  | None -> Mutex.protect lock (fun () -> intern_locked h s)

let of_int n = intern (string_of_int n)

let name id = (Atomic.get state).names.(id)

let export_names () =
  let st = Atomic.get state in
  Array.sub st.names 0 st.count

let to_int id = id

let unsafe_of_id id = id

let count () = (Atomic.get state).count

let compare = Int.compare

let as_int id = int_of_string_opt (name id)

let compare_value a b =
  if a = b then 0
  else
    match (as_int a, as_int b) with
    | Some x, Some y -> Int.compare x y
    | _ -> String.compare (name a) (name b)

let equal = Int.equal

let hash = Hashtbl.hash

let pp ppf id = Format.pp_print_string ppf (name id)

let fresh_counter = ref 0
(* Only touched with [lock] held. *)

let fresh prefix =
  Mutex.protect lock @@ fun () ->
  let rec try_next () =
    incr fresh_counter;
    let candidate = Printf.sprintf "%s#%d" prefix !fresh_counter in
    let h = Hashtbl.hash candidate in
    if find_in (Atomic.get state) h candidate <> None then try_next ()
    else intern_locked h candidate
  in
  try_next ()
