module Relation = Relalg.Relation
module Tuple = Relalg.Tuple
module Symbol = Relalg.Symbol
module Ast = Datalog.Ast

type source = { find : string -> int -> Relation.t }

type occurrence = {
  polarity : [ `Pos | `Neg ];
  index : int;
  pred : string;
}

type resolver = occurrence -> source

type planner = [ `Static ]

type variant = Full | Delta of int

let variant_to_string = function
  | Full -> "full"
  | Delta j -> Printf.sprintf "delta@%d" j

(* --- plan representation ------------------------------------------------ *)

type term =
  | Const of Symbol.t
  | Slot of int

type pat =
  | Check_const of Symbol.t
  | Check_slot of int
  | Bind of int

type access = {
  occurrence : occurrence;
  arity : int;
}

type op =
  | Index_probe of { access : access; col : int; key : term; pat : pat array }
  | Scan of { access : access; pat : pat array }
  | Const_filter of { access : access; args : term array }
  | Neg_check of { access : access; args : term array }
  | Exists of { access : access; probe : (int * term) option; pat : pat array }
  | Neg_exists of {
      access : access;
      probe : (int * term) option;
      pat : pat array;
      free : int;
    }
  | Compare of { negated : bool; left : term; right : term }
  | Assign of { slot : int; value : term }
  | Enumerate of { slot : int }
  | Le_check of { left : term; right : term }
      (* Value order ({!Symbol.compare_value}): passes iff left <= right.
         [>=] compiles to this op with the operands swapped. *)
  | Plus_bind of { a : term; b : term; slot : int }
      (* slot := a + b when both operands read as integers; a non-numeric
         operand fails the row (additions range over the numeric sort). *)
  | Plus_check of { a : term; b : term; result : term }
  | Aggregate_probe of {
      access : access;
      kind : Ast.limit_kind;
      col : int;
      group : term array;
      bound : term;
    }
      (* Reads the head relation's current bound for the candidate row's
         group (O(1) through the memoized column index) and kills the row
         unless the candidate strictly improves it.  [access]'s occurrence
         is the distinguished body position [-1]: every resolver maps it
         to the current valuation, never a delta. *)
  | Tighten_emit of {
      pred : string;
      kind : Ast.limit_kind;
      col : int;
      group : term array;
      bound : term;
    }
      (* Per-application dominance filter: keeps only rows that improve on
         the best candidate this application has already emitted for the
         group, so one application emits at most one surviving candidate
         per group per improvement chain.  Cross-rule candidates are
         resolved by the tighten-union at the fixpoint layer. *)

type step = {
  op : op;
  est : float;
}

(* Per-plan observed cardinalities, harvested from the run's context at
   the end of every run — never written from inside the row loop. *)
type feedback = {
  mutable fb_runs : int;
  fb_rows : int array;
}

(* What a hoisted suffix emits for a prefix key, independent of the rule
   it came from: the head predicate, the key's width, and the head
   arguments and suffix steps with their slots renamed by position (the
   key's slots first, then the suffix's in the order its steps name them)
   and the body positions erased.  Two plans with one signature emit the
   same head rows for equal keys whenever they read the same relations. *)
type signature = {
  g_head : string;
  g_key : int;
  g_args : term array;
  g_steps : op array;
}

(* The invariant suffix of a plan: steps [h_at, h_end) read no slot bound
   before [h_at], so they yield the same rows for every prefix row.  They
   run once per execution context into a buffer of [h_keep] slots, which
   every prefix row then replays.  [h_key] holds the live slots bound
   before the boundary; when [h_dedup], some other slot bound there is read
   by nothing after it, so prefix rows equal on [h_key] would replay
   identical rows and only the first goes.  [h_signature] is [None] when
   limit steps follow the suffix; [h_reads] lists the predicates the
   suffix reads positively. *)
type hoist = {
  h_at : int;
  h_end : int;
  h_keep : int array;
  h_key : int array;
  h_dedup : bool;
  h_signature : signature option;
  h_reads : string list;
}

type t = {
  rule : Ast.rule;
  label : string;
  variant : variant;
  nslots : int;
  slot_names : string array;
  steps : step array;
  head_pred : string;
  head_args : term array;
  est_out : float;
  sizes_at_plan : (occurrence * int * int) list;
  hoist : hoist option;
  fb : feedback;
}

type counters = {
  mutable plan_compiles : int;
  mutable plan_cache_hits : int;
  mutable plan_replans : int;
  mutable index_hits : int;
  mutable index_builds : int;
  mutable full_scans : int;
  mutable bucket_probes : int;
  mutable enumerations : int;
  mutable keys_skipped : int;
}

let counters () =
  {
    plan_compiles = 0;
    plan_cache_hits = 0;
    plan_replans = 0;
    index_hits = 0;
    index_builds = 0;
    full_scans = 0;
    bucket_probes = 0;
    enumerations = 0;
    keys_skipped = 0;
  }

(* --- compilation -------------------------------------------------------- *)

(* Body literal, slot-resolved, paired with its occurrence index. *)
type blit =
  | BAtom of {
      polarity : [ `Pos | `Neg ];
      occ : int;
      pred : string;
      args : term array;
    }
  | BCmp of { negated : bool; left : term; right : term }
  | BLe of { left : term; right : term }
  | BPlus of { a : term; b : term; res : term }

let dummy = Symbol.unsafe_of_id 0

(* --- the invariant suffix ----------------------------------------------- *)

let term_slots acc = function Slot s -> s :: acc | Const _ -> acc

let checked_slots acc pat =
  Array.fold_left
    (fun acc -> function Check_slot s -> s :: acc | Check_const _ | Bind _ -> acc)
    acc pat

(* The slots a step reads from the environment.  An existence check's
   [Check_slot] may name a wildcard its own pattern binds; no other step
   binds a wildcard, so counting it as read changes no answer below. *)
let reads = function
  | Index_probe { key; pat; _ } -> checked_slots (term_slots [] key) pat
  | Scan { pat; _ } -> checked_slots [] pat
  | Const_filter { args; _ } | Neg_check { args; _ } ->
    Array.fold_left term_slots [] args
  | Exists { probe; pat; _ } | Neg_exists { probe; pat; _ } ->
    checked_slots
      (match probe with Some (_, key) -> term_slots [] key | None -> [])
      pat
  | Compare { left; right; _ } | Le_check { left; right } ->
    term_slots (term_slots [] left) right
  | Assign { value; _ } -> term_slots [] value
  | Enumerate _ -> []
  | Plus_bind { a; b; _ } -> term_slots (term_slots [] a) b
  | Plus_check { a; b; result } ->
    term_slots (term_slots (term_slots [] a) b) result
  | Aggregate_probe { group; bound; _ } | Tighten_emit { group; bound; _ } ->
    Array.fold_left term_slots (term_slots [] bound) group

(* The slots a step binds for later steps.  Existence wildcards are not
   among them: nothing after the check reads them. *)
let binds = function
  | Index_probe { pat; _ } | Scan { pat; _ } ->
    Array.fold_left
      (fun acc -> function Bind s -> s :: acc | Check_const _ | Check_slot _ -> acc)
      [] pat
  | Assign { slot; _ } | Enumerate { slot } | Plus_bind { slot; _ } -> [ slot ]
  | Const_filter _ | Neg_check _ | Exists _ | Neg_exists _ | Compare _
  | Le_check _ | Plus_check _ | Aggregate_probe _ | Tighten_emit _ ->
    []

let is_loop = function
  | Scan _ | Index_probe _ | Enumerate _ -> true
  | Const_filter _ | Neg_check _ | Exists _ | Neg_exists _ | Compare _
  | Assign _ | Le_check _ | Plus_bind _ | Plus_check _ | Aggregate_probe _
  | Tighten_emit _ ->
    false

let reads_relation = function
  | Index_probe _ | Scan _ | Const_filter _ | Neg_check _ | Exists _
  | Neg_exists _ ->
    true
  | Compare _ | Assign _ | Enumerate _ | Le_check _ | Plus_bind _
  | Plus_check _ | Aggregate_probe _ | Tighten_emit _ ->
    false

(* --- hoist signatures ----------------------------------------------------- *)

let rename_term f = function Slot s -> Slot (f s) | Const _ as t -> t

let rename_pat f = function
  | Bind s -> Bind (f s)
  | Check_slot s -> Check_slot (f s)
  | Check_const _ as p -> p

(* The resolver sends an occurrence that is negated, or reads a relation
   that does not evolve, to the same place whatever its body position. *)
let anonymous a = { a with occurrence = { a.occurrence with index = 0 } }

(* [f] names slots on first sight, so the fields are renamed in an
   explicit order: the slots a step reads before those it binds. *)
let rename_op f op =
  let term = rename_term f in
  let pats = Array.map (rename_pat f) in
  let probe = Option.map (fun (col, key) -> (col, term key)) in
  match op with
  | Index_probe { access; col; key; pat } ->
    let key = term key in
    Index_probe { access = anonymous access; col; key; pat = pats pat }
  | Scan { access; pat } -> Scan { access = anonymous access; pat = pats pat }
  | Const_filter { access; args } ->
    Const_filter { access = anonymous access; args = Array.map term args }
  | Neg_check { access; args } ->
    Neg_check { access = anonymous access; args = Array.map term args }
  | Exists { access; probe = pr; pat } ->
    let pr = probe pr in
    Exists { access = anonymous access; probe = pr; pat = pats pat }
  | Neg_exists { access; probe = pr; pat; free } ->
    let pr = probe pr in
    Neg_exists { access = anonymous access; probe = pr; pat = pats pat; free }
  | Compare { negated; left; right } ->
    let left = term left in
    Compare { negated; left; right = term right }
  | Assign { slot; value } ->
    let value = term value in
    Assign { slot = f slot; value }
  | Enumerate { slot } -> Enumerate { slot = f slot }
  | Le_check { left; right } ->
    let left = term left in
    Le_check { left; right = term right }
  | Plus_bind { a; b; slot } ->
    let a = term a in
    let b = term b in
    Plus_bind { a; b; slot = f slot }
  | Plus_check { a; b; result } ->
    let a = term a in
    let b = term b in
    Plus_check { a; b; result = term result }
  | (Aggregate_probe _ | Tighten_emit _) as op ->
    (* Never hoisted: a suffix ends before the limit steps. *)
    op

let signature ~nslots ~head_pred ~head_args ~key ops ~h_at ~h_end =
  let names = Array.make (max nslots 1) (-1) and next = ref 0 in
  let name s =
    if names.(s) < 0 then begin
      names.(s) <- !next;
      incr next
    end;
    names.(s)
  in
  Array.iter (fun s -> ignore (name s)) key;
  (* [Array.init] and [Array.map] apply their function in index order. *)
  let g_steps =
    Array.init (h_end - h_at) (fun j -> rename_op name ops.(h_at + j))
  in
  {
    g_head = head_pred;
    g_key = Array.length key;
    g_args = Array.map (rename_term name) head_args;
    g_steps;
  }

let positive_read = function
  | Index_probe { access; _ }
  | Scan { access; _ }
  | Const_filter { access; _ }
  | Exists { access; _ } ->
    Some access.occurrence.pred
  | Neg_check _ | Neg_exists _ | Compare _ | Assign _ | Enumerate _
  | Le_check _ | Plus_bind _ | Plus_check _ | Aggregate_probe _
  | Tighten_emit _ ->
    None

(* The earliest boundary [k] such that the steps from [k] up to the limit
   steps read no slot bound before [k], some step before [k] loops, and
   some step from [k] reads a relation.  A suffix of pure enumerations has
   nothing to save and keeps streaming.  The steps stay in the order the
   cost model chose: an independent component it interleaves with the
   driving one is not moved, only a trailing one is hoisted. *)
let find_hoist ~nslots ~head_pred ~head_args (ops : op array) =
  let n = Array.length ops in
  let h_end =
    let rec go i =
      if i = n then n
      else
        match ops.(i) with
        | Aggregate_probe _ | Tighten_emit _ -> i
        | _ -> go (i + 1)
    in
    go 0
  in
  let bound_before = Array.make (max nslots 1) false in
  let invariant k =
    let ok = ref true and access = ref false in
    for j = k to h_end - 1 do
      if List.exists (fun s -> bound_before.(s)) (reads ops.(j)) then
        ok := false;
      if reads_relation ops.(j) then access := true
    done;
    !ok && !access
  in
  let rec search k looped =
    if k >= h_end then None
    else if looped && invariant k then Some k
    else begin
      List.iter (fun s -> bound_before.(s) <- true) (binds ops.(k));
      search (k + 1) (looped || is_loop ops.(k))
    end
  in
  match search 0 false with
  | None -> None
  | Some h_at ->
    (* [bound_before] now marks exactly the slots the prefix binds. *)
    let mark marks = List.iter (fun s -> marks.(s) <- true) in
    let live = Array.make (max nslots 1) false in
    Array.iter (fun t -> mark live (term_slots [] t)) head_args;
    for j = h_end to n - 1 do
      mark live (reads ops.(j))
    done;
    let suffix_bound = Array.make (max nslots 1) false in
    for j = h_at to h_end - 1 do
      mark suffix_bound (binds ops.(j))
    done;
    let slots p = Array.of_list (List.filter p (List.init nslots Fun.id)) in
    let key = slots (fun s -> bound_before.(s) && live.(s)) in
    Some
      {
        h_at;
        h_end;
        h_keep = slots (fun s -> suffix_bound.(s) && live.(s));
        h_key = key;
        h_dedup = slots (fun s -> bound_before.(s) && not live.(s)) <> [||];
        h_signature =
          (if h_end < n then None
           else
             Some
               (signature ~nslots ~head_pred ~head_args ~key ops ~h_at ~h_end));
        h_reads =
          List.filter_map positive_read
            (Array.to_list (Array.sub ops h_at (h_end - h_at)));
      }

let compile ?(variant = Full) ?label ?(limits = []) ~sizes ~universe_size
    (r : Ast.rule) =
  let label =
    match label with Some l -> l | None -> Datalog.Pretty.rule_to_string r
  in
  let vars = Ast.rule_variables r in
  let nslots = List.length vars in
  let slot_names = Array.of_list vars in
  let slot_of =
    let index = Hashtbl.create 8 in
    List.iteri (fun i x -> Hashtbl.add index x i) vars;
    fun x -> Hashtbl.find index x
  in
  let term_of = function
    | Ast.Var x -> Slot (slot_of x)
    | Ast.Const c -> Const c
  in
  let blits =
    List.mapi
      (fun i (l : Ast.literal) ->
        match l with
        | Ast.Pos a ->
          BAtom
            {
              polarity = `Pos;
              occ = i;
              pred = a.pred;
              args = Array.of_list (List.map term_of a.args);
            }
        | Ast.Neg a ->
          BAtom
            {
              polarity = `Neg;
              occ = i;
              pred = a.pred;
              args = Array.of_list (List.map term_of a.args);
            }
        | Ast.Eq (t1, t2) ->
          BCmp { negated = false; left = term_of t1; right = term_of t2 }
        | Ast.Neq (t1, t2) ->
          BCmp { negated = true; left = term_of t1; right = term_of t2 }
        | Ast.Leq (t1, t2) -> BLe { left = term_of t1; right = term_of t2 }
        | Ast.Geq (t1, t2) -> BLe { left = term_of t2; right = term_of t1 }
        | Ast.Plus (t1, t2, t3) ->
          BPlus { a = term_of t1; b = term_of t2; res = term_of t3 })
      r.body
  in
  (* The delta variant is the same rule with one positive occurrence
     redirected at the delta by the resolver; the occurrence's (small)
     cardinality reaches the cost model through [sizes], so compilation
     itself is variant-blind beyond the sizes it reads. *)
  let bound = Array.make (max nslots 1) false in
  let is_bound = function Const _ -> true | Slot s -> bound.(s) in
  let all_bound args = Array.for_all is_bound args in
  let u = float_of_int (max universe_size 1) in
  let sizes_seen = Hashtbl.create 8 in
  let size polarity occ pred arity =
    let o = { polarity; index = occ; pred } in
    let n = sizes o arity in
    if polarity = `Pos && not (Hashtbl.mem sizes_seen occ) then
      Hashtbl.add sizes_seen occ (o, arity, n);
    n
  in
  let membership_prob card arity =
    if arity = 0 then if card > 0 then 1.0 else 0.0
    else Float.min 1.0 (float_of_int card /. (u ** float_of_int arity))
  in
  let head_slot = Array.make (max nslots 1) false in
  List.iter
    (function Ast.Var x -> head_slot.(slot_of x) <- true | Ast.Const _ -> ())
    r.head.args;
  let rows = ref 1.0 in
  (* Each step scales the estimated row stream by a factor; the factors
     alone give a hoisted suffix its estimates per application. *)
  let steps = ref [] in
  let push op ~factor = steps := ({ op; est = !rows }, factor) :: !steps in
  let scale factor op =
    rows := !rows *. factor;
    push op ~factor
  in
  let mark_bound s = bound.(s) <- true in
  (* Pattern for an atom access: constants and already-bound slots are
     checked, fresh slots bind (first occurrence binds, repeats check). *)
  let pattern args =
    Array.map
      (fun t ->
        match t with
        | Const c -> Check_const c
        | Slot s ->
          if bound.(s) then Check_slot s
          else begin
            mark_bound s;
            Bind s
          end)
      args
  in
  let check_positions args =
    Array.fold_left
      (fun n t -> if is_bound t then n + 1 else n)
      0 args
  in
  let access polarity index pred arity =
    { occurrence = { polarity; index; pred }; arity }
  in
  let emit_filter polarity occ pred args =
    let arity = Array.length args in
    let card = size polarity occ pred arity in
    let p = membership_prob card arity in
    let access = access polarity occ pred arity in
    match polarity with
    | `Pos -> scale p (Const_filter { access; args })
    | `Neg -> scale (1.0 -. p) (Neg_check { access; args })
  in
  let emit_compare negated left right =
    scale
      (if negated then (u -. 1.0) /. u else 1.0 /. u)
      (Compare { negated; left; right })
  in
  let emit_enumerate s =
    mark_bound s;
    scale u (Enumerate { slot = s })
  in
  (* Order checks halve the stream on average; an addition either binds
     its result (no filtering) or checks one value in [u]. *)
  let emit_le left right =
    scale 0.5 (Le_check { left; right })
  in
  let emit_plus a b res =
    match res with
    | Slot s when not bound.(s) ->
      mark_bound s;
      push (Plus_bind { a; b; slot = s }) ~factor:1.0
    | _ -> scale (1.0 /. u) (Plus_check { a; b; result = res })
  in
  (* Existence pattern: constants and bound slots check, dead slots bind on
     first occurrence (repeats check) but are {e not} marked bound — the
     binding is a throwaway wildcard nothing downstream reads.  [free] is
     the count of distinct dead slots. *)
  let exists_pattern args =
    let seen = Hashtbl.create 4 in
    let free = ref 0 in
    let pat =
      Array.map
        (fun t ->
          match t with
          | Const c -> Check_const c
          | Slot s ->
            if bound.(s) || Hashtbl.mem seen s then Check_slot s
            else begin
              Hashtbl.add seen s ();
              incr free;
              Bind s
            end)
        args
    in
    (pat, !free)
  in
  (* The first argument bound before an atom's step: the column whose index
     bucket a join or an existence check reads, and its key. *)
  let first_bound args =
    let rec go i =
      if i = Array.length args then None
      else if is_bound args.(i) then Some (i, args.(i))
      else go (i + 1)
    in
    go 0
  in
  let emit_exists polarity occ pred args =
    let arity = Array.length args in
    let card = size polarity occ pred arity in
    let checks = check_positions args in
    let access = access polarity occ pred arity in
    let probe = first_bound args in
    let pat, free = exists_pattern args in
    match polarity with
    | `Pos ->
      (* Succeeds iff some witness matches the bound prefix: at most one
         row survives per input row. *)
      let p =
        Float.min 1.0 (float_of_int card /. (u ** float_of_int checks))
      in
      scale p (Exists { access; probe; pat })
    | `Neg ->
      (* Succeeds unless every instantiation of the free columns is
         present — fail only when the relation covers all [u^free] of
         them. *)
      let p_inst = membership_prob card (checks + free) in
      let all_present = p_inst ** (u ** float_of_int free) in
      scale (1.0 -. all_present) (Neg_exists { access; probe; pat; free })
  in
  let emit_join occ pred args =
    let arity = Array.length args in
    let card = size `Pos occ pred arity in
    let checks = check_positions args in
    let access = access `Pos occ pred arity in
    let factor = float_of_int card /. (u ** float_of_int checks) in
    (* Not [!rows *. factor]: the product keeps its association, so the
       estimates print as they always have. *)
    rows := !rows *. float_of_int card /. (u ** float_of_int checks);
    (* Probe through the first bound column when one exists; otherwise
       scan. *)
    match first_bound args with
    | Some (col, key) ->
      (* [pattern] binds the fresh slots; the probed column stays a
         (redundant) check in the pattern. *)
      push (Index_probe { access; col; key; pat = pattern args }) ~factor
    | None -> push (Scan { access; pat = pattern args }) ~factor
  in
  (* Cost-based ordering: repeatedly
     1. emit every decided literal (comparisons, then half-bound equality
        propagation, then membership filters), turning atoms whose only
        unbound variables are {e dead} (head-absent and unread by any
        other pending literal) into first-witness existence checks;
     2. join through the positive atom with the fewest estimated matches
        (the first such atom on a tie);
     3. with only under-bound negations / comparisons left, enumerate the
        universe for their first unbound variable. *)
  let pending = ref blits in
  let remove l = pending := List.filter (fun l' -> l' != l) !pending in
  let occurs_elsewhere self s =
    List.exists
      (fun l' ->
        l' != self
        &&
        match l' with
        | BAtom { args; _ } ->
          Array.exists
            (function Slot s' -> s' = s | Const _ -> false)
            args
        | BCmp { left; right; _ } | BLe { left; right } ->
          (match left with Slot s' -> s' = s | Const _ -> false)
          || (match right with Slot s' -> s' = s | Const _ -> false)
        | BPlus { a; b; res } ->
          List.exists
            (function Slot s' -> s' = s | Const _ -> false)
            [ a; b; res ])
      !pending
  in
  (* An atom is an existence check when every argument is a constant, a
     bound slot, or a dead slot — and at least one is dead (all-bound
     atoms are membership filters, found by the decided pass first). *)
  let existence_candidate l =
    match l with
    | BAtom { args; _ } ->
      (not (all_bound args))
      && Array.for_all
           (fun t ->
             match t with
             | Const _ -> true
             | Slot s ->
               bound.(s)
               || ((not head_slot.(s)) && not (occurs_elsewhere l s)))
           args
    | BCmp _ | BLe _ | BPlus _ -> false
  in
  let rec settle () =
    let decided =
      List.find_opt
        (function
          | BCmp { left; right; _ } | BLe { left; right } ->
            is_bound left && is_bound right
          | BPlus { a; b; _ } ->
            (* Decided as soon as the operands are bound: the result either
               checks (bound) or binds (fresh) — both are constant work. *)
            is_bound a && is_bound b
          | BAtom { args; _ } -> all_bound args)
        !pending
    in
    match decided with
    | Some (BCmp { negated; left; right } as l) ->
      remove l;
      emit_compare negated left right;
      settle ()
    | Some (BLe { left; right } as l) ->
      remove l;
      emit_le left right;
      settle ()
    | Some (BPlus { a; b; res } as l) ->
      remove l;
      emit_plus a b res;
      settle ()
    | Some (BAtom { polarity; occ; pred; args } as l) ->
      remove l;
      emit_filter polarity occ pred args;
      settle ()
    | None -> (
      let half_eq =
        List.find_map
          (fun l ->
            match l with
            | BCmp { negated = false; left; right } -> (
              match (is_bound left, is_bound right, left, right) with
              | true, false, _, Slot s -> Some (l, s, left)
              | false, true, Slot s, _ -> Some (l, s, right)
              | _ -> None)
            | _ -> None)
          !pending
      in
      match half_eq with
      | Some (l, s, v) ->
        remove l;
        mark_bound s;
        push (Assign { slot = s; value = v }) ~factor:1.0;
        settle ()
      | None -> (
        match List.find_opt existence_candidate !pending with
        | Some (BAtom { polarity; occ; pred; args } as l) ->
          remove l;
          emit_exists polarity occ pred args;
          settle ()
        | Some (BCmp _ | BLe _ | BPlus _) -> assert false
        | None -> ()))
  in
  let best_join () =
    List.fold_left
      (fun best l ->
        match l with
        | BAtom { polarity = `Pos; occ; pred; args } -> (
          let arity = Array.length args in
          let card = size `Pos occ pred arity in
          let est =
            float_of_int card /. (u ** float_of_int (check_positions args))
          in
          match best with
          | Some (_, best_est) when est >= best_est -> best
          | _ -> Some (l, est))
        | _ -> best)
      None !pending
  in
  let first_unbound () =
    let found = ref None in
    let see = function
      | Slot s when (not bound.(s)) && !found = None -> found := Some s
      | _ -> ()
    in
    List.iter
      (function
        | BAtom { args; _ } -> Array.iter see args
        | BCmp { left; right; _ } | BLe { left; right } ->
          see left;
          see right
        | BPlus { a; b; res } ->
          (* Operands first: enumerating them lets the addition compute its
             result instead of guessing it. *)
          see a;
          see b;
          see res)
      !pending;
    !found
  in
  let rec solve () =
    settle ();
    if !pending <> [] then begin
      (match best_join () with
      | Some ((BAtom { occ; pred; args; _ } as l), _) ->
        remove l;
        emit_join occ pred args
      | Some _ -> assert false
      | None -> (
        match first_unbound () with
        | Some s -> emit_enumerate s
        | None -> assert false));
      solve ()
    end
  in
  solve ();
  let head_args =
    Array.of_list (List.map term_of r.head.args)
  in
  (* Head-only variables range over the whole universe (the paper's
     semantics is not range-restricted). *)
  Array.iter
    (function
      | Slot s when not bound.(s) -> emit_enumerate s
      | _ -> ())
    head_args;
  (* A rule whose head is a declared limit predicate closes with the two
     aggregation steps: probe the current bound for the candidate's group,
     then the per-application dominance filter.  Only rows that improve the
     group's bound reach the projection — the fixpoint layer's
     tighten-union stays the source of truth, these steps just keep the
     candidate stream sparse (and visible to [explain]). *)
  (match List.assoc_opt r.head.pred limits with
  | Some ((kind : Ast.limit_kind), col)
    when col >= 0 && col < Array.length head_args ->
    let arity = Array.length head_args in
    let group =
      Array.init (arity - 1) (fun j ->
          head_args.(if j < col then j else j + 1))
    in
    let bound_t = head_args.(col) in
    scale 0.5
      (Aggregate_probe
         {
           access = access `Pos (-1) r.head.pred arity;
           kind;
           col;
           group;
           bound = bound_t;
         });
    scale 0.5
      (Tighten_emit { pred = r.head.pred; kind; col; group; bound = bound_t })
  | _ -> ());
  let steps, factors = List.split (List.rev !steps) in
  let steps = Array.of_list steps and factors = Array.of_list factors in
  let hoist =
    find_hoist ~nslots ~head_pred:r.head.pred ~head_args
      (Array.map (fun st -> st.op) steps)
  in
  (* A hoisted step runs once per application: its estimate starts from
     one row at the boundary instead of the prefix's rows. *)
  (match hoist with
  | Some h ->
    let est = ref 1.0 in
    for i = h.h_at to h.h_end - 1 do
      est := !est *. factors.(i);
      steps.(i) <- { (steps.(i)) with est = !est }
    done
  | None -> ());
  {
    rule = r;
    label;
    variant;
    nslots;
    slot_names;
    steps;
    head_pred = r.head.pred;
    head_args;
    est_out = !rows;
    sizes_at_plan =
      Hashtbl.fold (fun _ entry acc -> entry :: acc) sizes_seen []
      |> List.sort (fun ((a : occurrence), _, _) ((b : occurrence), _, _) ->
             Int.compare a.index b.index);
    hoist;
    fb =
      { fb_runs = 0; fb_rows = Array.make (max (Array.length steps) 1) 0 };
  }

(* --- execution ---------------------------------------------------------- *)

(* Pattern matching against a candidate tuple by return value: constants
   and bound slots check, fresh slots bind in place.  A partial bind left
   behind by a failed match is harmless — a slot written at step [k] is
   only read by steps after [k], which run only on a full match.  The
   loop is a top-level function: a local closure would allocate once per
   candidate tuple. *)
let rec match_from env pat t i =
  i = Array.length pat
  || (match pat.(i) with
     | Bind s ->
       Array.unsafe_set env s (Tuple.get t i);
       true
     | Check_const c -> Symbol.equal (Tuple.get t i) c
     | Check_slot s -> Symbol.equal (Tuple.get t i) (Array.unsafe_get env s))
     && match_from env pat t (i + 1)

let match_pat env pat t = match_from env pat t 0

let value env = function
  | Const c -> c
  | Slot s -> Array.unsafe_get env s

(* Saturating power for the [Neg_exists] witness bound: [u^free] can
   overflow for large universes, and any saturated bound is unreachable by
   a finite relation anyway. *)
let rec ipow_sat_from acc base e =
  if e = 0 then acc
  else if base > 1 && acc > max_int / base then max_int
  else ipow_sat_from (acc * base) base (e - 1)

let ipow_sat base e = ipow_sat_from 1 (max base 0) e

(* Prefix keys met at a hoist's boundary. *)
type seen = (Symbol.t array, unit) Hashtbl.t

(* A prepared execution context: the per-run state — resolved sources,
   slot environment, scratch probe tuples.  The compiled plan is
   immutable: per-step row counts accumulate in the context's [p_rows]
   and are folded into the plan's feedback record when the run ends
   ({!harvest}). *)
type prepared = {
  p_plan : t;
  p_counters : counters option;
  p_universe : Symbol.t list;
  p_usize : int;  (** 0 unless a step reads it (see {!prepare}). *)
  p_env : Symbol.t array;
  p_rels : Relation.t array;
  p_scratch : Symbol.t array array;
  p_rows : int array;
  p_best : (Tuple.t, Symbol.t) Hashtbl.t;
      (* [Tighten_emit]'s best candidate per group.  Contexts are per run,
         so the table never outlives the stage whose current valuation
         the probes read. *)
  p_on_row : Symbol.t array -> unit;
  mutable p_stop : int;
      (* Where [exec] leaves the steps: the step count, or for a plan
         with a hoist its boundary, which {!replay} moves while it fills
         and replays the buffer. *)
  p_hoist : (hoist * buffer) option;
      (* The plan's invariant suffix with its rows and the prefix keys met
         at its boundary; [None] for a plan without a hoist.  The buffer
         lives exactly as long as the context, for the same reason as
         [p_best]: the relations the suffix reads change between runs. *)
}

(* One context's run of a plan's invariant suffix: [b_len] rows of
   [h_keep] slots each, flat in [b_rows] in the order the suffix produced
   them.  [b_filling] is set while the suffix runs into the buffer.
   [b_seen] holds the prefix keys already replayed: the context's own when
   the hoist dedups, the saturation's when the caller shares one, [None]
   when every prefix row replays. *)
and buffer = {
  mutable b_filled : bool;
  mutable b_filling : bool;
  mutable b_rows : Symbol.t array;
  mutable b_len : int;
  b_seen : seen option;
  b_key : Symbol.t array;
}

(* The [p_best] of every context whose plan has no [Tighten_emit] step,
   which never touches it: such a run allocates no table. *)
let no_best : (Tuple.t, Symbol.t) Hashtbl.t = Hashtbl.create 1

let prepare ?counters ?seen ~resolver ~universe ~on_row plan =
  let steps = plan.steps in
  let nsteps = Array.length steps in
  let env = Array.make (max plan.nslots 1) dummy in
  let rels = Array.make (max nsteps 1) (Relation.empty 0) in
  let scratch = Array.make (max nsteps 1) [||] in
  (* Only [Enumerate] and a [Neg_exists] with free columns read the
     universe's size; other plans do not walk the list to count it. *)
  let reads_usize = ref false and tightens = ref false in
  let resolve i { occurrence; arity } =
    rels.(i) <- (resolver occurrence).find occurrence.pred arity
  in
  for i = 0 to nsteps - 1 do
    match steps.(i).op with
    | Index_probe { access; _ } | Scan { access; _ } | Exists { access; _ }
      ->
      resolve i access
    | Const_filter { access; _ } | Neg_check { access; _ } ->
      resolve i access;
      scratch.(i) <- Array.make access.arity dummy
    | Neg_exists { access; free; _ } ->
      if free > 0 then reads_usize := true;
      resolve i access
    | Aggregate_probe { access; _ } ->
      (* The distinguished occurrence [-1] never matches a delta
         redirection, so every resolver maps it to the current
         valuation of the head relation. *)
      resolve i access
    | Enumerate _ -> reads_usize := true
    | Tighten_emit _ -> tightens := true
    | Compare _ | Assign _ | Le_check _ | Plus_bind _ | Plus_check _ -> ()
  done;
  {
    p_plan = plan;
    p_counters = counters;
    p_universe = universe;
    p_usize = (if !reads_usize then List.length universe else 0);
    p_env = env;
    p_rels = rels;
    p_scratch = scratch;
    p_rows = Array.make (max nsteps 1) 0;
    p_best = (if !tightens then Hashtbl.create 16 else no_best);
    p_on_row = on_row;
    p_stop = (match plan.hoist with Some h -> h.h_at | None -> nsteps);
    p_hoist =
      Option.map
        (fun h ->
          let seen =
            match seen with
            | Some _ when h.h_signature <> None -> seen
            | _ -> if h.h_dedup then Some (Hashtbl.create 64) else None
          in
          ( h,
            {
              b_filled = false;
              b_filling = false;
              b_rows = [||];
              b_len = 0;
              b_seen = seen;
              b_key = Array.make (Array.length h.h_key) dummy;
            } ))
        plan.hoist;
  }

let hoisted plan i =
  match plan.hoist with Some h -> i >= h.h_at && i < h.h_end | None -> false

(* Folds a run's context into the plan's feedback record, closing the
   run.  A hoisted step's rows are already one application's: the suffix
   ran once into the context's buffer. *)
let harvest plan prep =
  let fb = plan.fb in
  for i = 0 to Array.length prep.p_rows - 1 do
    fb.fb_rows.(i) <- fb.fb_rows.(i) + prep.p_rows.(i)
  done;
  fb.fb_runs <- fb.fb_runs + 1

let bump_scan prep =
  match prep.p_counters with
  | Some c -> c.full_scans <- c.full_scans + 1
  | None -> ()

let bump_probes prep n =
  match prep.p_counters with
  | Some c -> c.bucket_probes <- c.bucket_probes + n
  | None -> ()

let bump_index prep hit =
  match prep.p_counters with
  | Some c ->
    if hit then c.index_hits <- c.index_hits + 1
    else c.index_builds <- c.index_builds + 1
  | None -> ()

let bump_enum prep =
  match prep.p_counters with
  | Some c -> c.enumerations <- c.enumerations + 1
  | None -> ()

let bump_skipped prep =
  match prep.p_counters with
  | Some c -> c.keys_skipped <- c.keys_skipped + 1
  | None -> ()

let probe prep i args =
  let scr = prep.p_scratch.(i) in
  let env = prep.p_env in
  for j = 0 to Array.length args - 1 do
    scr.(j) <- value env args.(j)
  done;
  (* Probed, never retained. *)
  Relation.mem (Tuple.unsafe_make scr) prep.p_rels.(i)

(* Walks an index bucket until [limit] of its tuples have matched [pat],
   [count] having matched and [n] entries been visited so far; the entries
   visited count as probes.  A top-level loop with explicit arguments, as
   [match_from]: a local closure would allocate once per row. *)
let rec witnesses prep pat limit count n = function
  | [] ->
    bump_probes prep n;
    false
  | t :: rest ->
    let count = if match_pat prep.p_env pat t then count + 1 else count in
    if count >= limit then begin
      bump_probes prep (n + 1);
      true
    end
    else witnesses prep pat limit count (n + 1) rest

(* Whether at least [limit] tuples of an existence step's relation match
   the bound prefix.  With a bound argument the candidates are that
   column's index bucket for the bound value; without one, the whole
   relation is scanned.  The access counters move as for [Index_probe] and
   [Scan]. *)
let exists_at_least prep i probe pat limit =
  let rel = prep.p_rels.(i) in
  match probe with
  | None ->
    bump_scan prep;
    let count = ref 0 in
    Relation.exists
      (fun t ->
        match_pat prep.p_env pat t
        && begin
             incr count;
             !count >= limit
           end)
      rel
  | Some (col, key) ->
    bump_index prep (Relation.has_index rel col);
    witnesses prep pat limit 0 0
      (Relation.matching col (value prep.p_env key) rel)

(* Negated atom whose free columns are dead: succeeds iff some
   instantiation of them is absent, i.e. the bound prefix matches fewer
   than [u^free] tuples.  The walk short-circuits the moment the count
   saturates the bound, so densely-covered prefixes exit early. *)
let neg_exists_fails prep i probe pat free =
  let limit = ipow_sat prep.p_usize free in
  limit = 0 || exists_at_least prep i probe pat limit

let agg_better (kind : Ast.limit_kind) a b =
  let c = Symbol.compare_value a b in
  match kind with Ast.Min -> c < 0 | Ast.Max -> c > 0

(* The head relation's current bound for the candidate row's group: the
   limit invariant keeps at most one tuple per group, so the lookup is one
   probe through the memoized index on the first group column (the whole
   relation holds at most one tuple when the group is empty). *)
let current_group_bound prep i col group =
  let rel = prep.p_rels.(i) in
  let env = prep.p_env in
  let n = Array.length group in
  if n = 0 then
    Option.map (fun t -> Tuple.get t col) (Relation.choose_opt rel)
  else begin
    let pos j = if j < col then j else j + 1 in
    let matches t =
      let ok = ref true in
      Array.iteri
        (fun j tm ->
          if not (Symbol.equal (Tuple.get t (pos j)) (value env tm)) then
            ok := false)
        group;
      !ok
    in
    Relation.matching (pos 0) (value env group.(0)) rel
    |> List.find_opt matches
    |> Option.map (fun t -> Tuple.get t col)
  end

(* [buffer_row] keeps the hoisted slots of one suffix row. *)
let buffer_row h b env =
  let w = Array.length h.h_keep in
  let need = (b.b_len + 1) * w in
  if need > Array.length b.b_rows then begin
    let grown = Array.make (max need (2 * Array.length b.b_rows)) dummy in
    Array.blit b.b_rows 0 grown 0 (b.b_len * w);
    b.b_rows <- grown
  end;
  for j = 0 to w - 1 do
    b.b_rows.((b.b_len * w) + j) <- env.(h.h_keep.(j))
  done;
  b.b_len <- b.b_len + 1

(* Whether a prefix row at the boundary replays the buffer: always without
   a key set, otherwise only if its key is not in the set yet, which it
   then joins. *)
let fresh_key prep h b =
  match b.b_seen with
  | None -> true
  | Some seen ->
    let env = prep.p_env in
    for j = 0 to Array.length h.h_key - 1 do
      b.b_key.(j) <- env.(h.h_key.(j))
    done;
    if Hashtbl.mem seen b.b_key then begin
      bump_skipped prep;
      false
    end
    else begin
      Hashtbl.add seen (Array.copy b.b_key) ();
      true
    end

(* The execution core, a top-level function of the context, as are the
   loops it runs per driving row: a local closure would allocate once per
   row.  [exec prep i] leaves the steps at [p_stop]: the step count, where
   it projects, or a hoist's boundary (see {!replay}). *)
let rec exec prep i =
  if i = prep.p_stop then
    match prep.p_hoist with
    | Some (h, b) when b.b_filling -> buffer_row h b prep.p_env
    | Some (h, b) when i = h.h_at ->
      if fresh_key prep h b then replay prep h b
    | Some _ | None -> prep.p_on_row prep.p_env
  else
    let env = prep.p_env and rows = prep.p_rows in
    match (Array.unsafe_get prep.p_plan.steps i).op with
    | Compare { negated; left; right } ->
      if Symbol.equal (value env left) (value env right) <> negated then begin
        rows.(i) <- rows.(i) + 1;
        exec prep (i + 1)
      end
    | Assign { slot; value = v } ->
      env.(slot) <- value env v;
      rows.(i) <- rows.(i) + 1;
      exec prep (i + 1)
    | Enumerate { slot } ->
      bump_enum prep;
      enumerate prep i slot prep.p_universe
    | Const_filter { args; _ } ->
      if probe prep i args then begin
        rows.(i) <- rows.(i) + 1;
        exec prep (i + 1)
      end
    | Neg_check { args; _ } ->
      if not (probe prep i args) then begin
        rows.(i) <- rows.(i) + 1;
        exec prep (i + 1)
      end
    | Exists { probe; pat; _ } ->
      (* First witness: stop at the first tuple matching the bound
         prefix instead of materializing the bindings. *)
      if exists_at_least prep i probe pat 1 then begin
        rows.(i) <- rows.(i) + 1;
        exec prep (i + 1)
      end
    | Neg_exists { probe; pat; free; _ } ->
      if not (neg_exists_fails prep i probe pat free) then begin
        rows.(i) <- rows.(i) + 1;
        exec prep (i + 1)
      end
    | Le_check { left; right } ->
      if Symbol.compare_value (value env left) (value env right) <= 0 then begin
        rows.(i) <- rows.(i) + 1;
        exec prep (i + 1)
      end
    | Plus_bind { a; b; slot } -> (
      match (Symbol.as_int (value env a), Symbol.as_int (value env b)) with
      | Some x, Some y ->
        env.(slot) <- Symbol.of_int (x + y);
        rows.(i) <- rows.(i) + 1;
        exec prep (i + 1)
      | _ -> ())
    | Plus_check { a; b; result } -> (
      match
        ( Symbol.as_int (value env a),
          Symbol.as_int (value env b),
          Symbol.as_int (value env result) )
      with
      | Some x, Some y, Some z when z = x + y ->
        rows.(i) <- rows.(i) + 1;
        exec prep (i + 1)
      | _ -> ())
    | Aggregate_probe { kind; col; group; bound; _ } ->
      let cand = value env bound in
      let keep =
        match current_group_bound prep i col group with
        | Some b -> agg_better kind cand b
        | None -> true
      in
      if keep then begin
        rows.(i) <- rows.(i) + 1;
        exec prep (i + 1)
      end
    | Tighten_emit { kind; group; bound; _ } -> (
      let cand = value env bound in
      let g = Tuple.unsafe_make (Array.map (value env) group) in
      match Hashtbl.find_opt prep.p_best g with
      | Some b when not (agg_better kind cand b) -> ()
      | _ ->
        Hashtbl.replace prep.p_best g cand;
        rows.(i) <- rows.(i) + 1;
        exec prep (i + 1))
    | Scan _ ->
      bump_scan prep;
      Relalg.Idset.iter_with scan_row prep i (Relation.ids prep.p_rels.(i))
    | Index_probe { col; key; pat; _ } ->
      bump_index prep (Relation.has_index prep.p_rels.(i) col);
      let bucket = Relation.matching col (value env key) prep.p_rels.(i) in
      bump_probes prep (List.length bucket);
      probe_rows prep i pat bucket

and enumerate prep i slot = function
  | [] -> ()
  | c :: rest ->
    prep.p_env.(slot) <- c;
    prep.p_rows.(i) <- prep.p_rows.(i) + 1;
    exec prep (i + 1);
    enumerate prep i slot rest

(* One tuple of a [Scan] step's relation, by its store id. *)
and scan_row prep i id =
  match (Array.unsafe_get prep.p_plan.steps i).op with
  | Scan { pat; _ } ->
    if match_pat prep.p_env pat (Relalg.Store.tuple id) then begin
      prep.p_rows.(i) <- prep.p_rows.(i) + 1;
      exec prep (i + 1)
    end
  | _ -> ()

and probe_rows prep i pat = function
  | [] -> ()
  | t :: rest ->
    if match_pat prep.p_env pat t then begin
      prep.p_rows.(i) <- prep.p_rows.(i) + 1;
      exec prep (i + 1)
    end;
    probe_rows prep i pat rest

(* A fresh prefix row at the boundary: the first to arrive fills the
   buffer (running the hoisted steps with [p_stop] at their end; its own
   slots are left alone, as the suffix reads none of them), then the steps
   after the hoist, and the projection, run once per buffered row in build
   order (with [p_stop] at the step count). *)
and replay prep h b =
  if not b.b_filled then begin
    b.b_filling <- true;
    prep.p_stop <- h.h_end;
    exec prep h.h_at;
    b.b_filling <- false;
    b.b_filled <- true
  end;
  prep.p_stop <- Array.length prep.p_plan.steps;
  let env = prep.p_env in
  let w = Array.length h.h_keep in
  for r = 0 to b.b_len - 1 do
    for j = 0 to w - 1 do
      env.(h.h_keep.(j)) <- b.b_rows.((r * w) + j)
    done;
    exec prep h.h_end
  done;
  prep.p_stop <- h.h_at

let run ?counters ?seen ~resolver ~universe plan ~on_row =
  let prep = prepare ?counters ?seen ~resolver ~universe ~on_row plan in
  exec prep 0;
  harvest plan prep

(* --- prefix keys shared across a saturation ------------------------------ *)

let shares_keys ~evolving plan =
  match plan.hoist with
  | Some { h_signature = Some _; h_reads; _ } ->
    not (List.exists evolving h_reads)
  | Some { h_signature = None; _ } | None -> false

type keys = { mutable tables : (signature * seen) list }

let keys () = { tables = [] }

let shared_seen keys ~evolving plan =
  match plan.hoist with
  | Some { h_signature = Some g; _ } when shares_keys ~evolving plan ->
    Some
      (match List.assoc_opt g keys.tables with
      | Some seen -> seen
      | None ->
        let seen = Hashtbl.create 64 in
        keys.tables <- (g, seen) :: keys.tables;
        seen)
  | _ -> None

let head_tuple plan env =
  let args = plan.head_args in
  let n = Array.length args in
  let a = Array.make n dummy in
  for i = 0 to n - 1 do
    a.(i) <- value env args.(i)
  done;
  (* Fresh array: safe to adopt without copying. *)
  Tuple.unsafe_make a

(* --- pretty-printing ---------------------------------------------------- *)

let pp_term names ppf = function
  | Const c -> Format.pp_print_string ppf (Symbol.name c)
  | Slot s -> Format.pp_print_string ppf names.(s)

let pp_args names ppf args =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (pp_term names))
    (Array.to_seq args)

let pp_pat names ppf pat =
  let term_of = function
    | Check_const c -> Const c
    | Check_slot s | Bind s -> Slot s
  in
  pp_args names ppf (Array.map term_of pat)

let pp_probe names ppf = function
  | None -> ()
  | Some (col, key) ->
    Format.fprintf ppf " via column %d = %a" col (pp_term names) key

let pp_op names ppf = function
  | Index_probe { access; col; key; pat } ->
    Format.fprintf ppf "probe %s%a via column %d = %a" access.occurrence.pred
      (pp_pat names) pat col (pp_term names) key
  | Scan { access; pat } ->
    Format.fprintf ppf "scan %s%a" access.occurrence.pred (pp_pat names) pat
  | Const_filter { access; args } ->
    Format.fprintf ppf "filter %s%a" access.occurrence.pred (pp_args names) args
  | Neg_check { access; args } ->
    Format.fprintf ppf "check !%s%a" access.occurrence.pred (pp_args names) args
  | Exists { access; probe; pat } ->
    Format.fprintf ppf "exists %s%a%a" access.occurrence.pred (pp_pat names) pat
      (pp_probe names) probe
  | Neg_exists { access; probe; pat; free } ->
    Format.fprintf ppf "exists-missing %s%a%a (%d free)" access.occurrence.pred
      (pp_pat names) pat (pp_probe names) probe free
  | Compare { negated; left; right } ->
    Format.fprintf ppf "compare %a %s %a" (pp_term names) left
      (if negated then "!=" else "=")
      (pp_term names) right
  | Assign { slot; value } ->
    Format.fprintf ppf "assign %s := %a" names.(slot) (pp_term names) value
  | Enumerate { slot } ->
    Format.fprintf ppf "enumerate %s over universe" names.(slot)
  | Le_check { left; right } ->
    Format.fprintf ppf "compare %a <= %a" (pp_term names) left
      (pp_term names) right
  | Plus_bind { a; b; slot } ->
    Format.fprintf ppf "add %s := %a + %a" names.(slot) (pp_term names) a
      (pp_term names) b
  | Plus_check { a; b; result } ->
    Format.fprintf ppf "check %a = %a + %a" (pp_term names) result
      (pp_term names) a (pp_term names) b
  | Aggregate_probe { access; kind; col; group; bound } ->
    Format.fprintf ppf "aggregate-probe %s%a bound %a (%s at column %d)"
      access.occurrence.pred (pp_args names) group (pp_term names) bound
      (Datalog.Ast.limit_kind_to_string kind)
      col
  | Tighten_emit { pred; kind; col; group; bound } ->
    Format.fprintf ppf "tighten-emit %s%a bound %a (%s at column %d)" pred
      (pp_args names) group (pp_term names) bound
      (Datalog.Ast.limit_kind_to_string kind)
      col

let pp_step names ~per_application ppf st =
  Format.fprintf ppf "%a  [est %.1f rows%s]" (pp_op names) st.op st.est
    (if per_application then " per application" else "")

(* The line that marks a hoist's boundary: the hoisted steps, the slots a
   buffered row holds, and the key prefix rows are deduplicated on, for
   the application or, when [shared], for the whole saturation. *)
let pp_hoist names ~shared ppf h =
  let slots ppf a = pp_args names ppf (Array.map (fun s -> Slot s) a) in
  Format.fprintf ppf "hoist: %s once per application, buffering %a; "
    (if h.h_end = h.h_at + 1 then Printf.sprintf "step %d" (h.h_at + 1)
     else Printf.sprintf "steps %d-%d" (h.h_at + 1) h.h_end)
    slots h.h_keep;
  if not (shared || h.h_dedup) then
    Format.pp_print_string ppf "replayed per row"
  else begin
    if h.h_key = [||] then Format.pp_print_string ppf "replayed once"
    else Format.fprintf ppf "replayed per distinct %a" slots h.h_key;
    if shared then Format.pp_print_string ppf ", keys kept for the saturation"
  end

let pp ?evolving ppf plan =
  let shared =
    match evolving with
    | Some evolving -> shares_keys ~evolving plan
    | None -> false
  in
  Format.fprintf ppf "@[<v2>%s  {%s}" plan.label
    (variant_to_string plan.variant);
  Array.iteri
    (fun i st ->
      (match plan.hoist with
      | Some h when i = h.h_at ->
        Format.fprintf ppf "@,%a" (pp_hoist plan.slot_names ~shared) h
      | _ -> ());
      Format.fprintf ppf "@,%d. %a" (i + 1)
        (pp_step plan.slot_names ~per_application:(hoisted plan i))
        st;
      if plan.fb.fb_runs > 0 then
        Format.fprintf ppf "  [actual %d]" plan.fb.fb_rows.(i))
    plan.steps;
  Format.fprintf ppf "@,%d. project %s%a  [est %.1f rows]"
    (Array.length plan.steps + 1)
    plan.head_pred
    (pp_args plan.slot_names)
    plan.head_args plan.est_out;
  Format.fprintf ppf "@]"

let to_string plan = Format.asprintf "%a" (pp ?evolving:None) plan
