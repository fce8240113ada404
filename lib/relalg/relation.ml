(* A relation is a Patricia set ({!Idset}) of tuple ids interned in the
   global packed {!Store}, plus a cached cardinal and memoized column
   indexes.

   What the packed representation buys:
   - [mem] is one precomputed-hash probe plus an integer-set lookup — no
     O(arity) tuple comparisons down a tree path;
   - [union]/[inter]/[diff]/[equal]/[subset] merge shared Patricia
     structure, which is what the semi-naive loop does once per iteration
     on ever-larger accumulated valuations;
   - [cardinal] is O(1) (the join-order heuristic consults it constantly);
   - tuples are boxed once at intern time, so iteration returns memoized
     tuples without re-allocation. *)

type storage = [ `Hashed ]

let set_default_storage (_ : storage) = ()

module SMap = Map.Make (Symbol)

type index = Tuple.t list SMap.t

type t = {
  arity : int;
  ids : Idset.t;
  card : int;
  indexes : index option array;
      (* A cell is filled at most once per value, lazily or incrementally;
         never shared between relations with different id sets. *)
}

let make_t arity ids card = { arity; ids; card; indexes = Array.make arity None }

let empty k =
  if k < 0 then invalid_arg "Relation.empty: negative arity";
  make_t k Idset.empty 0

let arity r = r.arity

let ids r = r.ids

let is_empty r = r.card = 0

let cardinal r = r.card

let check_arity fname k t =
  if Tuple.arity t <> k then
    invalid_arg
      (Printf.sprintf "Relation.%s: tuple arity %d, relation arity %d" fname
         (Tuple.arity t) k)

let mem t r =
  match Store.find t with
  | None -> false
  | Some id -> Idset.mem id r.ids

(* --- column indexes ----------------------------------------------------- *)

let index_add pos idx t =
  SMap.update (Tuple.get t pos)
    (fun o -> Some (t :: Option.value ~default:[] o))
    idx

let has_index r pos = pos >= 0 && pos < r.arity && r.indexes.(pos) <> None

let index r pos =
  match r.indexes.(pos) with
  | Some idx -> idx
  | None ->
    let idx =
      Idset.fold
        (fun id idx -> index_add pos idx (Store.tuple id))
        r.ids SMap.empty
    in
    (* Benign race when two domains read one relation: both may build the
       index; either result is correct. *)
    r.indexes.(pos) <- Some idx;
    idx

let matching pos c r =
  if pos < 0 || pos >= r.arity then invalid_arg "Relation.matching: bad column";
  Option.value ~default:[] (SMap.find_opt c (index r pos))

let extend_indexes parent fresh =
  Array.mapi
    (fun pos o ->
      Option.map (fun idx -> List.fold_left (index_add pos) idx fresh) o)
    parent.indexes

(* [parent]'s built indexes without the tuples of [gone] (ids, all members
   of [parent]).  Each touched bucket is filtered once, testing its entries
   against [gone]: the cost is the removed tuples plus the entries of the
   buckets they sit in, never removed tuples times bucket size. *)
let shrink_indexes parent gone =
  let stays t =
    match Store.find t with Some id -> not (Idset.mem id gone) | None -> true
  in
  Array.mapi
    (fun pos o ->
      Option.map
        (fun idx ->
          let keys =
            List.sort_uniq Symbol.compare
              (Idset.fold (fun id acc -> Store.get id pos :: acc) gone [])
          in
          List.fold_left
            (fun idx key ->
              SMap.update key
                (function
                  | None -> None
                  | Some bucket -> (
                    match List.filter stays bucket with
                    | [] -> None
                    | kept -> Some kept))
                idx)
            idx keys)
        o)
    parent.indexes

(* [r] without the [n] tuples [gone] (ids, all members of [r]), leaving the
   ids [ids].  The built indexes follow the removal when fewer tuples leave
   than stay; otherwise a lazy rebuild costs no more than the removal, and
   the indexes start over. *)
let shrink r ids ~n gone =
  let card = r.card - n in
  if n < card then
    { arity = r.arity; ids; card; indexes = shrink_indexes r gone }
  else make_t r.arity ids card

(* --- construction ------------------------------------------------------- *)

let add t r =
  check_arity "add" r.arity t;
  let id = Store.intern t in
  if Idset.mem id r.ids then r
  else
    { arity = r.arity;
      ids = Idset.add id r.ids;
      card = r.card + 1;
      indexes = extend_indexes r [ t ];
    }

let remove t r =
  match Store.find t with
  | Some id when Idset.mem id r.ids ->
    shrink r (Idset.remove id r.ids) ~n:1 (Idset.singleton id)
  | _ -> r

let singleton t = add t (empty (Tuple.arity t))

(* Bulk construction: intern everything, then build the Patricia set in one
   sorted pass — O(n log n) at worst in the sort instead of n root-path
   copies of [Idset.add].  Ids are grouped by store stripe (the id's high
   bits), each stripe's run sorted and deduplicated independently, and the
   stripe-ascending concatenation is globally sorted by construction.  When
   a stripe's ids span most of that stripe — as on a snapshot restore,
   where the loaded model *is* the bulk of what has ever been interned —
   the per-stripe pass is a dense mark-and-sweep over the stripe's local
   ids: O(stripe count) array writes instead of O(n log n) indirect
   compares, and duplicates collapse for free. *)

(* Append stripe [p]'s ids [src.(lo) .. src.(lo + n - 1)] (unsorted,
   possibly duplicated, all in stripe [p]) to [dst] at [!u], ascending and
   deduplicated.  [stripe_count] is the stripe's current tuple count.
   [dst] may alias [src] when the segment starts at or after [!u]. *)
let emit_sorted_part ~stripe_count p src lo n dst u =
  if n > 0 then
    (* The sweep touches every local id the stripe has ever interned, so
       it only pays when the run covers a decent fraction of the stripe —
       a flat constant here would make every small delta build of a warm
       store O(stripe count), which compounds across semi-naive stages. *)
    if stripe_count <= 8 * n then begin
      let seen = Bytes.make stripe_count '\000' in
      for i = lo to lo + n - 1 do
        Bytes.unsafe_set seen (Store.id_local src.(i)) '\001'
      done;
      for local = 0 to stripe_count - 1 do
        if Bytes.unsafe_get seen local <> '\000' then begin
          dst.(!u) <- Store.id_make ~part:p ~local;
          incr u
        end
      done
    end
    else begin
      let run = Array.sub src lo n in
      Array.sort Int.compare run;
      dst.(!u) <- run.(0);
      incr u;
      for i = 1 to n - 1 do
        if run.(i) <> run.(i - 1) then begin
          dst.(!u) <- run.(i);
          incr u
        end
      done
    end

(* The arity-[k] relation over the interned ids [a] (unsorted, possibly
   duplicated); [a] is reused as scratch. *)
let of_ids k a =
  let n = Array.length a in
  if n = 0 then empty k
  else begin
    let pc = Store.partitions () in
    let scounts = Store.part_counts () in
    let u = ref 0 in
    if pc = 1 then
      (* Single stripe: ids are dense globals; sort/sweep in place. *)
      emit_sorted_part ~stripe_count:scounts.(0) 0 a 0 n a u
    else begin
      (* Scatter into stripe-major order with a counting pass, then
         finish each stripe's run back into [a]. *)
      let counts = Array.make pc 0 in
      for i = 0 to n - 1 do
        let p = Store.id_part a.(i) in
        counts.(p) <- counts.(p) + 1
      done;
      let starts = Array.make (pc + 1) 0 in
      for p = 0 to pc - 1 do
        starts.(p + 1) <- starts.(p) + counts.(p)
      done;
      let fill = Array.copy starts in
      let by_part = Array.make n 0 in
      for i = 0 to n - 1 do
        let id = a.(i) in
        let p = Store.id_part id in
        by_part.(fill.(p)) <- id;
        fill.(p) <- fill.(p) + 1
      done;
      for p = 0 to pc - 1 do
        emit_sorted_part ~stripe_count:scounts.(p) p by_part starts.(p)
          counts.(p) a u
      done
    end;
    let a = if !u = n then a else Array.sub a 0 !u in
    make_t k (Idset.of_sorted_array a) !u
  end

(* Every bulk constructor goes through here, so every one checks arities. *)
let of_rows fname k ts =
  if k < 0 then
    invalid_arg (Printf.sprintf "Relation.%s: negative arity" fname);
  Array.iter (check_arity fname k) ts;
  of_ids k (Array.map Store.intern ts)

let of_array k ts = of_rows "of_array" k ts

let of_list k ts = of_rows "of_list" k (Array.of_list ts)

let of_seq k seq = of_rows "of_seq" k (Array.of_seq seq)

let of_flat_rows k flat =
  if k <= 0 then invalid_arg "Relation.of_flat_rows: arity must be positive";
  if Array.length flat mod k <> 0 then
    invalid_arg
      (Printf.sprintf "Relation.of_flat_rows: %d words, arity %d"
         (Array.length flat) k);
  of_ids k
    (Array.init (Array.length flat / k) (fun i ->
         Store.intern_seg flat ~pos:(i * k) ~len:k))

let add_all ts r =
  List.iter (check_arity "add_all" r.arity) ts;
  let ids, card, fresh =
    List.fold_left
      (fun (ids, card, fresh) t ->
        let id = Store.intern t in
        if Idset.mem id ids then (ids, card, fresh)
        else (Idset.add id ids, card + 1, t :: fresh))
      (r.ids, r.card, []) ts
  in
  if fresh = [] then r
  else { arity = r.arity; ids; card; indexes = extend_indexes r fresh }

let to_list r =
  List.sort Tuple.compare
    (Idset.fold (fun id acc -> Store.tuple id :: acc) r.ids [])

let iter f r = Idset.iter (fun id -> f (Store.tuple id)) r.ids

let fold f r init = Idset.fold (fun id acc -> f (Store.tuple id) acc) r.ids init

let for_all p r = Idset.for_all (fun id -> p (Store.tuple id)) r.ids

let exists p r = Idset.exists (fun id -> p (Store.tuple id)) r.ids

let filter p r =
  let ids, card =
    Idset.fold
      (fun id (ids, card) ->
        if p (Store.tuple id) then (Idset.add id ids, card + 1) else (ids, card))
      r.ids
      (Idset.empty, 0)
  in
  make_t r.arity ids card

let map k f r =
  of_rows "map" k (Array.of_list (fold (fun t acc -> f t :: acc) r []))

let same_arity fname r1 r2 =
  if r1.arity <> r2.arity then
    invalid_arg
      (Printf.sprintf "Relation.%s: arities %d and %d differ" fname r1.arity
         r2.arity)

let union r1 r2 =
  same_arity "union" r1 r2;
  if is_empty r1 then r2
  else if is_empty r2 then r1
  else
    let big, small = if r1.card >= r2.card then (r1, r2) else (r2, r1) in
    (* Collect the genuinely fresh side explicitly (rather than a blind
       structural union) so the cached cardinal stays exact and [big]'s
       already-built indexes extend incrementally — the semi-naive loop
       unions a small delta into a large indexed valuation every
       iteration. *)
    let fresh_ids, fresh, card =
      Idset.fold
        (fun id (ids, ts, card) ->
          if Idset.mem id big.ids then (ids, ts, card)
          else (Idset.add id ids, Store.tuple id :: ts, card + 1))
        small.ids
        (Idset.empty, [], big.card)
    in
    if card = big.card then big
    else
      { arity = big.arity;
        ids = Idset.union big.ids fresh_ids;
        card;
        indexes = extend_indexes big fresh;
      }

let inter r1 r2 =
  same_arity "inter" r1 r2;
  if is_empty r1 then r1
  else
    let ids = Idset.inter r1.ids r2.ids in
    make_t r1.arity ids (Idset.cardinal ids)

(* The count comes from whichever side of the split is known small.  When
   [r2] is at most half of [r1], the removed tuples are [r2]'s members in
   [r1] (an intersection that follows [r2]'s paths) and their count is
   subtracted, so taking a small deletion out of a large valuation never
   walks what stays.  Otherwise the result is counted: it is no larger
   than [r1] and, on two versions of one valuation (DRed's old and new
   models), it is the small delta between them — which the [Idset] merges
   reach along the changed paths only. *)
let diff r1 r2 =
  same_arity "diff" r1 r2;
  if is_empty r1 || is_empty r2 then r1
  else if 2 * r2.card <= r1.card then
    let gone = Idset.inter r2.ids r1.ids in
    if Idset.is_empty gone then r1
    else
      shrink r1 (Idset.diff r1.ids gone) ~n:(Idset.cardinal gone) gone
  else
    let ids = Idset.diff r1.ids r2.ids in
    if ids == r1.ids then r1
    else
      let n = r1.card - Idset.cardinal ids in
      if n < r1.card - n && Array.exists Option.is_some r1.indexes then
        shrink r1 ids ~n (Idset.diff r1.ids ids)
      else make_t r1.arity ids (r1.card - n)

let subset r1 r2 =
  same_arity "subset" r1 r2;
  Idset.subset r1.ids r2.ids

let equal r1 r2 =
  r1.arity = r2.arity && r1.card = r2.card && Idset.equal r1.ids r2.ids

let compare r1 r2 =
  let c = Int.compare r1.arity r2.arity in
  if c <> 0 then c else Idset.compare r1.ids r2.ids

let choose_opt r = Option.map Store.tuple (Idset.choose_opt r.ids)

(* --- bulk builder ------------------------------------------------------- *)

(* A growable int vector; one per store stripe per builder. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let ensure v extra =
    let need = v.n + extra in
    if need > Array.length v.a then begin
      let cap = ref (max 16 (2 * Array.length v.a)) in
      while !cap < need do
        cap := 2 * !cap
      done;
      let bigger = Array.make !cap 0 in
      Array.blit v.a 0 bigger 0 v.n;
      v.a <- bigger
    end

  let push v x =
    ensure v 1;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

end

(* The builder accumulates interned ids bucketed by store stripe, deduped
   against an open-addressed id set.  [build] finishes each stripe's run
   (sort or dense sweep, as in [of_ids]) and assembles the relation with
   one [Idset.of_sorted_array] over the globally sorted stripe-major
   concatenation. *)
type builder = {
  b_arity : int;
  mutable b_tab : int array;  (* open-addressed id set; -1 = empty slot *)
  mutable b_card : int;
  b_parts : Ivec.t array;  (* per-stripe ids, insertion order *)
}

let builder k =
  if k < 0 then invalid_arg "Relation.builder: negative arity";
  {
    b_arity = k;
    b_tab = Array.make 64 (-1);
    b_card = 0;
    b_parts = Array.init (Store.partitions ()) (fun _ -> Ivec.create ());
  }

(* Fibonacci mix: ids carry the stripe in their high bits, so low bits
   alone would collide across stripes' dense locals. *)
let bslot_hash id = id * 0x2545F4914F6CDD1D

let btab_insert tab id =
  let mask = Array.length tab - 1 in
  let rec probe s =
    let v = Array.unsafe_get tab s in
    if v < 0 then begin
      Array.unsafe_set tab s id;
      true
    end
    else if v = id then false
    else probe ((s + 1) land mask)
  in
  probe (bslot_hash id land mask)

let builder_add b t =
  let id = Store.intern t in
  (* Keep the load factor at most 1/2: [b_card] is the occupancy. *)
  if 2 * (b.b_card + 1) > Array.length b.b_tab then begin
    let old = b.b_tab in
    b.b_tab <- Array.make (2 * Array.length old) (-1);
    Array.iter (fun v -> if v >= 0 then ignore (btab_insert b.b_tab v)) old
  end;
  if btab_insert b.b_tab id then begin
    b.b_card <- b.b_card + 1;
    Ivec.push b.b_parts.(Store.id_part id) id;
    true
  end
  else false

let builder_cardinal b = b.b_card

let build b =
  let total =
    Array.fold_left (fun acc (v : Ivec.t) -> acc + v.Ivec.n) 0 b.b_parts
  in
  if total = 0 then empty b.b_arity
  else begin
    let scounts = Store.part_counts () in
    let dst = Array.make total 0 in
    let u = ref 0 in
    Array.iteri
      (fun p (v : Ivec.t) ->
        emit_sorted_part ~stripe_count:scounts.(p) p v.Ivec.a 0 v.Ivec.n dst u)
      b.b_parts;
    let dst = if !u = total then dst else Array.sub dst 0 !u in
    make_t b.b_arity (Idset.of_sorted_array dst) !u
  end

(* --- derived relational algebra ----------------------------------------- *)

let product r1 r2 =
  let pairs =
    fold
      (fun t1 acc -> fold (fun t2 acc -> Tuple.append t1 t2 :: acc) r2 acc)
      r1 []
  in
  of_list (r1.arity + r2.arity) pairs

let project positions r =
  map (List.length positions) (Tuple.project positions) r

let select = filter

let select_eq i c r =
  (* The bucket's tuples are interned already: look their ids up instead of
     interning them again. *)
  of_ids r.arity
    (Array.of_list
       (List.map (fun t -> Option.get (Store.find t)) (matching i c r)))

let join_positions eqs r1 r2 =
  let rows =
    fold
      (fun t1 acc ->
        fold
          (fun t2 acc ->
            let matches =
              List.for_all
                (fun (i, j) -> Symbol.equal (Tuple.get t1 i) (Tuple.get t2 j))
                eqs
            in
            if matches then Tuple.append t1 t2 :: acc else acc)
          r2 acc)
      r1 []
  in
  of_list (r1.arity + r2.arity) rows

let full universe k =
  if k < 0 then invalid_arg "Relation.full: negative arity";
  let elements = Array.of_list universe in
  let n = Array.length elements in
  if k = 0 then singleton Tuple.empty
  else if n = 0 then empty k
  else begin
    (* One bulk pass: enumerate universe^k into a list, then build the set
       and leave indexes lazy — no per-add record or index churn. *)
    let acc = ref [] in
    let slots = Array.make k elements.(0) in
    let rec fill pos =
      if pos = k then acc := Tuple.make slots :: !acc
      else
        for i = 0 to n - 1 do
          slots.(pos) <- elements.(i);
          fill (pos + 1)
        done
    in
    fill 0;
    of_list k !acc
  end

let complement universe r = diff (full universe r.arity) r

let pp ppf r =
  Format.fprintf ppf "{@[<hov>%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Tuple.pp)
    (to_list r)

let to_string r = Format.asprintf "%a" pp r

(* --- limit tightening --------------------------------------------------- *)

let tighten ~kind ~col current candidates =
  let k = arity current in
  if arity candidates <> k then invalid_arg "Relation.tighten: arity mismatch";
  if col < 0 || col >= k then
    invalid_arg
      (Printf.sprintf "Relation.tighten: column %d outside arity %d" col k);
  let better a b =
    let c = Symbol.compare_value a b in
    match kind with `Min -> c < 0 | `Max -> c > 0
  in
  let gpos = Array.init (k - 1) (fun i -> if i < col then i else i + 1) in
  let group tu = Tuple.make (Array.map (fun i -> Tuple.get tu i) gpos) in
  (* Dominant candidate per group, over the candidate set alone. *)
  let best : (Tuple.t, Tuple.t) Hashtbl.t = Hashtbl.create 64 in
  iter
    (fun tu ->
      let g = group tu in
      match Hashtbl.find_opt best g with
      | Some old when not (better (Tuple.get tu col) (Tuple.get old col)) ->
        ()
      | _ -> Hashtbl.replace best g tu)
    candidates;
  (* The current bound of a group is read through the memoized column index
     on the first group column; an arity-1 limit relation holds at most the
     one global bound. *)
  let current_bound g =
    if k = 1 then choose_opt current
    else
      matching gpos.(0) (Tuple.get g 0) current
      |> List.find_opt (fun tu -> Tuple.equal (group tu) g)
  in
  let fresh = ref [] and dropped = ref [] in
  Hashtbl.iter
    (fun g cand ->
      match current_bound g with
      | None -> fresh := cand :: !fresh
      | Some old ->
        if better (Tuple.get cand col) (Tuple.get old col) then begin
          fresh := cand :: !fresh;
          dropped := old :: !dropped
        end)
    best;
  match !fresh with
  | [] -> (current, empty k)
  | fresh_list ->
    let shrunk = List.fold_left (fun r tu -> remove tu r) current !dropped in
    (add_all fresh_list shrunk, of_list k fresh_list)

let dominant ~kind ~col r = fst (tighten ~kind ~col (empty (arity r)) r)
