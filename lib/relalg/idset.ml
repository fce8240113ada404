(* Big-endian Patricia trees over non-negative integers (Okasaki & Gill,
   "Fast Mergeable Integer Maps").  The representation is canonical: two
   equal sets are structurally equal, so [equal] and [compare] need no
   normalisation, and the merge operations ([union], [inter], [diff]) run in
   O(min(|s|, |t|)) on the shared structure instead of elementwise. *)

type t =
  | Empty
  | Leaf of int
  | Branch of int * int * t * t
      (* Branch (prefix, mask, l, r): [mask] is a single bit, the highest
         bit at which members differ; [prefix] holds the common bits above
         it (bits <= mask cleared); [l] has the mask bit 0, [r] has it 1. *)

let empty = Empty

let is_empty t = t = Empty

let singleton k =
  if k < 0 then invalid_arg "Idset.singleton: negative element";
  Leaf k

let zero_bit k m = k land m = 0

(* Bits of [k] strictly above the mask bit [m]. *)
let mask k m = k land lnot ((m lsl 1) - 1)

let match_prefix k p m = mask k m = p

let rec mem k = function
  | Empty -> false
  | Leaf j -> j = k
  | Branch (p, m, l, r) ->
    match_prefix k p m && mem k (if zero_bit k m then l else r)

(* Highest set bit of [x] (x > 0). *)
let rec highest_bit x =
  let x' = x land (x - 1) in
  if x' = 0 then x else highest_bit x'

let join p0 t0 p1 t1 =
  let m = highest_bit (p0 lxor p1) in
  if zero_bit p0 m then Branch (mask p0 m, m, t0, t1)
  else Branch (mask p0 m, m, t1, t0)

let add k t =
  if k < 0 then invalid_arg "Idset.add: negative element";
  let rec ins = function
    | Empty -> Leaf k
    | Leaf j as t -> if j = k then t else join k (Leaf k) j t
    | Branch (p, m, l, r) as t ->
      if match_prefix k p m then
        if zero_bit k m then
          let l' = ins l in
          if l' == l then t else Branch (p, m, l', r)
        else
          let r' = ins r in
          if r' == r then t else Branch (p, m, l, r')
      else join k (Leaf k) p t
  in
  ins t

(* Smart constructor collapsing empty sides. *)
let branch p m l r =
  match (l, r) with
  | Empty, t | t, Empty -> t
  | _ -> Branch (p, m, l, r)

let remove k t =
  let rec rmv = function
    | Empty -> Empty
    | Leaf j as t -> if j = k then Empty else t
    | Branch (p, m, l, r) as t ->
      if match_prefix k p m then
        if zero_bit k m then
          let l' = rmv l in
          if l' == l then t else branch p m l' r
        else
          let r' = rmv r in
          if r' == r then t else branch p m l r'
      else t
  in
  rmv t

(* The merges below return at once on physically equal operands: two
   versions of one set that share all but a few paths — a valuation and its
   successor — merge in time proportional to the paths that differ.  [diff]
   also gives back its left operand (not a copy) wherever nothing is
   removed from it, so its result keeps sharing structure with the
   operand; doing the same in [inter] cost a fifth of its time on
   unrelated sets. *)

let rec union s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, t | t, Empty -> t
    | Leaf k, t -> add k t
    | s, Leaf k -> add k s
    | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
      if m = n && p = q then
        let l = union s0 t0 and r = union s1 t1 in
        if l == s0 && r == s1 then s else Branch (p, m, l, r)
      else if m > n && match_prefix q p m then
        if zero_bit q m then Branch (p, m, union s0 t, s1)
        else Branch (p, m, s0, union s1 t)
      else if m < n && match_prefix p q n then
        if zero_bit p n then Branch (q, n, union s t0, t1)
        else Branch (q, n, t0, union s t1)
      else join p s q t

let rec inter s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, _ | _, Empty -> Empty
    | Leaf k, t -> if mem k t then s else Empty
    | s, Leaf k -> if mem k s then t else Empty
    | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
      if m = n then
        if p = q then branch p m (inter s0 t0) (inter s1 t1) else Empty
      else if m > n then
        if match_prefix q p m then inter (if zero_bit q m then s0 else s1) t
        else Empty
      else if match_prefix p q n then
        inter s (if zero_bit p n then t0 else t1)
      else Empty

let rec diff s t =
  if s == t then Empty
  else
    match (s, t) with
    | Empty, _ -> Empty
    | s, Empty -> s
    | Leaf k, t -> if mem k t then Empty else s
    | s, Leaf k -> remove k s
    | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
      if m = n then
        if p = q then
          let l = diff s0 t0 and r = diff s1 t1 in
          if l == s0 && r == s1 then s else branch p m l r
        else s
      else if m > n then
        if match_prefix q p m then
          if zero_bit q m then
            let l = diff s0 t in
            if l == s0 then s else branch p m l s1
          else
            let r = diff s1 t in
            if r == s1 then s else branch p m s0 r
        else s
      else if match_prefix p q n then diff s (if zero_bit p n then t0 else t1)
      else s

let rec subset s t =
  s == t
  ||
  match (s, t) with
  | Empty, _ -> true
  | _, Empty -> false
  | Leaf k, t -> mem k t
  | Branch _, Leaf _ -> false
  | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
    if m = n then p = q && subset s0 t0 && subset s1 t1
    else if m > n then false
    else match_prefix p q n && subset s (if zero_bit p n then t0 else t1)

let rec equal s t =
  s == t
  ||
  match (s, t) with
  | Empty, Empty -> true
  | Leaf j, Leaf k -> j = k
  | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
    p = q && m = n && equal s0 t0 && equal s1 t1
  | _ -> false

(* Canonicity makes any structural order a total order consistent with
   [equal]. *)
let rec compare s t =
  if s == t then 0
  else
    match (s, t) with
    | Empty, Empty -> 0
    | Empty, _ -> -1
    | _, Empty -> 1
    | Leaf j, Leaf k -> Int.compare j k
    | Leaf _, Branch _ -> -1
    | Branch _, Leaf _ -> 1
    | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
      let c = Int.compare p q in
      if c <> 0 then c
      else
        let c = Int.compare m n in
        if c <> 0 then c
        else
          let c = compare s0 t0 in
          if c <> 0 then c else compare s1 t1

let rec cardinal = function
  | Empty -> 0
  | Leaf _ -> 1
  | Branch (_, _, l, r) -> cardinal l + cardinal r

(* All elements are non-negative, so the left (mask-bit-0) subtree holds the
   numerically smaller members: in-order traversal is increasing. *)
let rec iter f = function
  | Empty -> ()
  | Leaf k -> f k
  | Branch (_, _, l, r) ->
    iter f l;
    iter f r

let rec iter_with f a i = function
  | Empty -> ()
  | Leaf k -> f a i k
  | Branch (_, _, l, r) ->
    iter_with f a i l;
    iter_with f a i r

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf k -> f k acc
  | Branch (_, _, l, r) -> fold f r (fold f l acc)

let rec for_all p = function
  | Empty -> true
  | Leaf k -> p k
  | Branch (_, _, l, r) -> for_all p l && for_all p r

let rec exists p = function
  | Empty -> false
  | Leaf k -> p k
  | Branch (_, _, l, r) -> exists p l || exists p r

let filter p t = fold (fun k acc -> if p k then add k acc else acc) t empty

let elements t =
  let rec elts acc = function
    | Empty -> acc
    | Leaf k -> k :: acc
    | Branch (_, _, l, r) -> elts (elts acc r) l
  in
  elts [] t

let rec choose_opt = function
  | Empty -> None
  | Leaf k -> Some k
  | Branch (_, _, l, _) -> choose_opt l

let of_list ks = List.fold_left (fun t k -> add k t) empty ks

(* The representation is canonical — a pure function of the element set —
   so a strictly increasing array can be assembled directly: the branching
   bit of a range is the highest bit at which its minimum and maximum
   differ, and sortedness makes [zero_bit _ m] monotone over the range, so
   the split point is a binary search.  One branch allocation per internal
   node, instead of one copied root path per [add]. *)
let of_sorted_array a =
  let rec build lo hi =
    if hi - lo = 1 then Leaf a.(lo)
    else begin
      let m = highest_bit (a.(lo) lxor a.(hi - 1)) in
      let l = ref lo and r = ref hi in
      while !r - !l > 1 do
        let mid = (!l + !r) / 2 in
        if zero_bit a.(mid) m then l := mid else r := mid
      done;
      Branch (mask a.(lo) m, m, build lo !r, build !r hi)
    end
  in
  if Array.length a = 0 then Empty
  else begin
    if a.(0) < 0 then invalid_arg "Idset.of_sorted_array: negative element";
    build 0 (Array.length a)
  end
