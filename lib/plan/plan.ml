module Relation = Relalg.Relation
module Tuple = Relalg.Tuple
module Symbol = Relalg.Symbol
module Ast = Datalog.Ast

(* Every pool worker primes its domain-local store intern cache at spawn:
   sharded executions then never pay cache initialisation (or its registry
   lock) inside a morsel.  Registered here because [Domain_pool] cannot
   depend on [relalg]. *)
let () = Negdl_util.Domain_pool.set_worker_init Relalg.Store.prime_local_cache

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
  occ : int;
  pred : string;
  arity : int;
}

type op =
  | Index_probe of { access : access; col : int; key : term; pat : pat array }
  | Scan of { access : access; pat : pat array }
  | Const_filter of { access : access; args : term array }
  | Neg_check of { access : access; args : term array }
  | Exists of { access : access; pat : pat array }
  | Neg_exists of { access : access; pat : pat array; free : int }
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
         unless the candidate strictly improves it.  [access.occ] is the
         distinguished occurrence [-1]: every resolver maps it to the
         current valuation, never a delta. *)
  | Tighten_emit of {
      pred : string;
      kind : Ast.limit_kind;
      col : int;
      group : term array;
      bound : term;
    }
      (* Per-application dominance filter: keeps only rows that improve on
         the best candidate this execution context has already emitted for
         the group, so one application emits at most one surviving
         candidate per group per improvement chain.  Cross-context (and
         cross-rule) candidates are resolved by the tighten-union at the
         fixpoint layer, which is what makes sharded emission order
         irrelevant to the result. *)

type step = {
  op : op;
  est : float;
}

(* Per-plan observed cardinalities, harvested from per-context counters at
   the end of every run (the fixpoint-stage barrier on the sharded path) —
   never written from inside the row loop of more than one domain. *)
type feedback = {
  mutable fb_runs : int;
  fb_rows : int array;
  mutable fb_driving : int;
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
  }

let merge_counters dst ~src =
  dst.plan_compiles <- dst.plan_compiles + src.plan_compiles;
  dst.plan_cache_hits <- dst.plan_cache_hits + src.plan_cache_hits;
  dst.index_hits <- dst.index_hits + src.index_hits;
  dst.index_builds <- dst.index_builds + src.index_builds;
  dst.full_scans <- dst.full_scans + src.full_scans;
  dst.bucket_probes <- dst.bucket_probes + src.bucket_probes;
  dst.enumerations <- dst.enumerations + src.enumerations

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
  let steps = ref [] in
  let push op est = steps := { op; est } :: !steps in
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
  let emit_filter polarity occ pred args =
    let arity = Array.length args in
    let card = size polarity occ pred arity in
    let p = membership_prob card arity in
    let access = { occ; pred; arity } in
    (match polarity with
    | `Pos ->
      rows := !rows *. p;
      push (Const_filter { access; args }) !rows
    | `Neg ->
      rows := !rows *. (1.0 -. p);
      push (Neg_check { access; args }) !rows)
  in
  let emit_compare negated left right =
    rows := !rows *. (if negated then (u -. 1.0) /. u else 1.0 /. u);
    push (Compare { negated; left; right }) !rows
  in
  let emit_enumerate s =
    mark_bound s;
    rows := !rows *. u;
    push (Enumerate { slot = s }) !rows
  in
  (* Order checks halve the stream on average; an addition either binds
     its result (no filtering) or checks one value in [u]. *)
  let emit_le left right =
    rows := !rows *. 0.5;
    push (Le_check { left; right }) !rows
  in
  let emit_plus a b res =
    match res with
    | Slot s when not bound.(s) ->
      mark_bound s;
      push (Plus_bind { a; b; slot = s }) !rows
    | _ ->
      rows := !rows *. (1.0 /. u);
      push (Plus_check { a; b; result = res }) !rows
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
  let emit_exists polarity occ pred args =
    let arity = Array.length args in
    let card = size polarity occ pred arity in
    let checks = check_positions args in
    let access = { occ; pred; arity } in
    let pat, free = exists_pattern args in
    match polarity with
    | `Pos ->
      (* Succeeds iff some witness matches the bound prefix: at most one
         row survives per input row. *)
      let p =
        Float.min 1.0 (float_of_int card /. (u ** float_of_int checks))
      in
      rows := !rows *. p;
      push (Exists { access; pat }) !rows
    | `Neg ->
      (* Succeeds unless every instantiation of the free columns is
         present — fail only when the relation covers all [u^free] of
         them. *)
      let p_inst = membership_prob card (checks + free) in
      let all_present = p_inst ** (u ** float_of_int free) in
      rows := !rows *. (1.0 -. all_present);
      push (Neg_exists { access; pat; free }) !rows
  in
  let emit_join occ pred args =
    let arity = Array.length args in
    let card = size `Pos occ pred arity in
    let checks = check_positions args in
    let access = { occ; pred; arity } in
    (* Probe through the first bound column when one exists; otherwise
       scan. *)
    let col = ref (-1) in
    Array.iteri
      (fun i t -> if !col < 0 && is_bound t then col := i)
      args;
    let est =
      !rows *. float_of_int card /. (u ** float_of_int checks)
    in
    rows := est;
    if !col >= 0 then
      let key = args.(!col) in
      (* [pattern] binds the fresh slots; the probed column stays a
         (redundant) check in the pattern. *)
      push (Index_probe { access; col = !col; key; pat = pattern args }) est
    else push (Scan { access; pat = pattern args }) est
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
        push (Assign { slot = s; value = v }) !rows;
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
    rows := !rows *. 0.5;
    push
      (Aggregate_probe
         {
           access = { occ = -1; pred = r.head.pred; arity };
           kind;
           col;
           group;
           bound = bound_t;
         })
      !rows;
    rows := !rows *. 0.5;
    push
      (Tighten_emit
         { pred = r.head.pred; kind; col; group; bound = bound_t })
      !rows
  | _ -> ());
  let steps = Array.of_list (List.rev !steps) in
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
    fb =
      {
        fb_runs = 0;
        fb_rows = Array.make (max (Array.length steps) 1) 0;
        fb_driving = 0;
      };
  }

(* --- execution ---------------------------------------------------------- *)

(* Pattern matching against a candidate tuple by return value: constants
   and bound slots check, fresh slots bind in place.  A partial bind left
   behind by a failed match is harmless — a slot written at step [k] is
   only read by steps after [k], which run only on a full match. *)
let match_pat env pat t =
  let n = Array.length pat in
  let rec go i =
    i = n
    || (match pat.(i) with
       | Bind s ->
         Array.unsafe_set env s (Tuple.get t i);
         true
       | Check_const c -> Symbol.equal (Tuple.get t i) c
       | Check_slot s -> Symbol.equal (Tuple.get t i) (Array.unsafe_get env s))
       && go (i + 1)
  in
  go 0

let value env = function
  | Const c -> c
  | Slot s -> Array.unsafe_get env s

(* Saturating power for the [Neg_exists] witness bound: [u^free] can
   overflow for large universes, and any saturated bound is unreachable by
   a finite relation anyway. *)
let ipow_sat base e =
  let base = max base 0 in
  let rec go acc e =
    if e = 0 then acc
    else if base > 1 && acc > max_int / base then max_int
    else go (acc * base) (e - 1)
  in
  go 1 e

(* A prepared execution context: the per-run state — resolved sources,
   slot environment, scratch probe tuples — plus the index of the plan's
   {e driving} step (the first [Scan]/[Index_probe]/[Enumerate], whose
   input rows the sharded executor partitions into morsels).  One context
   belongs to one domain; the shared compiled plan is immutable — per-step
   row counts accumulate in the context's [p_rows] and are folded into the
   plan's feedback record at the run barrier ({!harvest}). *)
type prepared = {
  p_plan : t;
  p_counters : counters option;
  p_universe : Symbol.t list;
  p_usize : int;
  p_env : Symbol.t array;
  p_rels : Relation.t array;
  p_scratch : Symbol.t array array;
  p_driving : int;
  p_rows : int array;
  p_best : (Tuple.t, Symbol.t) Hashtbl.t;
      (* [Tighten_emit]'s per-context best candidate per group.  Contexts
         are per run (and per shard), so the table never outlives the
         stage whose current valuation the probes read. *)
  mutable p_din : int;
}

let prepare ?counters ~resolver ~universe plan =
  let steps = plan.steps in
  let nsteps = Array.length steps in
  let env = Array.make (max plan.nslots 1) dummy in
  let rels = Array.make (max nsteps 1) (Relation.empty 0) in
  let scratch = Array.make (max nsteps 1) [||] in
  Array.iteri
    (fun i st ->
      match st.op with
      | Index_probe { access; _ } | Scan { access; _ } | Exists { access; _ }
        ->
        rels.(i) <-
          (resolver { polarity = `Pos; index = access.occ; pred = access.pred })
            .find access.pred access.arity
      | Const_filter { access; _ } ->
        rels.(i) <-
          (resolver { polarity = `Pos; index = access.occ; pred = access.pred })
            .find access.pred access.arity;
        scratch.(i) <- Array.make access.arity dummy
      | Neg_check { access; _ } ->
        rels.(i) <-
          (resolver { polarity = `Neg; index = access.occ; pred = access.pred })
            .find access.pred access.arity;
        scratch.(i) <- Array.make access.arity dummy
      | Neg_exists { access; _ } ->
        rels.(i) <-
          (resolver { polarity = `Neg; index = access.occ; pred = access.pred })
            .find access.pred access.arity
      | Aggregate_probe { access; _ } ->
        (* The distinguished occurrence [-1] never matches a delta
           redirection, so every resolver maps it to the current
           valuation of the head relation. *)
        rels.(i) <-
          (resolver { polarity = `Pos; index = access.occ; pred = access.pred })
            .find access.pred access.arity
      | Compare _ | Assign _ | Enumerate _ | Le_check _ | Plus_bind _
      | Plus_check _ | Tighten_emit _ ->
        ())
    steps;
  let driving = ref (-1) in
  Array.iteri
    (fun i st ->
      if !driving < 0 then
        match st.op with
        | Scan _ | Index_probe _ | Enumerate _ -> driving := i
        | Compare _ | Assign _ | Const_filter _ | Neg_check _ | Exists _
        | Neg_exists _ | Le_check _ | Plus_bind _ | Plus_check _
        | Aggregate_probe _ | Tighten_emit _ ->
          ())
    steps;
  {
    p_plan = plan;
    p_counters = counters;
    p_universe = universe;
    p_usize = List.length universe;
    p_env = env;
    p_rels = rels;
    p_scratch = scratch;
    p_driving = !driving;
    p_rows = Array.make (max nsteps 1) 0;
    p_best = Hashtbl.create 16;
    p_din = 0;
  }

(* Folds one or more execution contexts (participant order on the sharded
   path) into the plan's feedback record, closing one run: per-step row
   counts and the driving step's input size.  Called once per {!run} /
   {!run_sharded} — the stage barrier — so the plan itself is never
   written concurrently. *)
let harvest plan ctxs =
  let fb = plan.fb in
  List.iter
    (fun c ->
      Array.iteri
        (fun i n -> if n > 0 then fb.fb_rows.(i) <- fb.fb_rows.(i) + n)
        c.p_rows;
      fb.fb_driving <- fb.fb_driving + c.p_din)
    ctxs;
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

let probe prep i args =
  let scr = prep.p_scratch.(i) in
  let env = prep.p_env in
  for j = 0 to Array.length args - 1 do
    scr.(j) <- value env args.(j)
  done;
  (* Probed, never retained. *)
  Relation.mem (Tuple.unsafe_make scr) prep.p_rels.(i)

(* First-witness check of a positive atom: stop at the first tuple
   matching the bound prefix instead of materializing the bindings. *)
let exists_holds prep i pat =
  Relation.exists (fun t -> match_pat prep.p_env pat t) prep.p_rels.(i)

(* Negated atom whose free columns are dead: succeeds iff some
   instantiation of them is absent, i.e. the bound prefix matches fewer
   than [u^free] tuples.  [Relation.exists] short-circuits the moment the
   count saturates the bound, so densely-covered prefixes exit early. *)
let neg_exists_fails prep i pat free =
  let limit = ipow_sat prep.p_usize free in
  limit = 0
  ||
  let count = ref 0 in
  Relation.exists
    (fun t ->
      match_pat prep.p_env pat t
      && begin
           incr count;
           !count >= limit
         end)
    prep.p_rels.(i)

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

(* Rows of the driving step's input — the quantity the sharded executor
   partitions.  Positions are stable per relation value: backend iteration
   order for scans, bucket order for probes, universe order for
   enumerations.  The constant prefix before the driving step (compares,
   assigns, membership filters, existence checks) is evaluated here so a
   probe key bound by an earlier [Assign] resolves, and so a failed prefix
   reports 0 rows; no row or probe counters are bumped (this is a counting
   pass — execution re-runs the prefix).  {!run_sharded} only pays it on a
   plan's first run: afterwards the feedback record's observed
   driving-input average sizes the morsels. *)
let driving_rows prep =
  let steps = prep.p_plan.steps in
  let env = prep.p_env in
  let d = prep.p_driving in
  if d < 0 then 1
  else begin
    let rec prefix i =
      i = d
      || (match steps.(i).op with
         | Compare { negated; left; right } ->
           Symbol.equal (value env left) (value env right) <> negated
         | Assign { slot; value = v } ->
           env.(slot) <- value env v;
           true
         | Const_filter { args; _ } -> probe prep i args
         | Neg_check { args; _ } -> not (probe prep i args)
         | Exists { pat; _ } -> exists_holds prep i pat
         | Neg_exists { pat; free; _ } ->
           not (neg_exists_fails prep i pat free)
         | Le_check { left; right } ->
           Symbol.compare_value (value env left) (value env right) <= 0
         | Plus_bind { a; b; slot } -> (
           match (Symbol.as_int (value env a), Symbol.as_int (value env b))
           with
           | Some x, Some y ->
             env.(slot) <- Symbol.of_int (x + y);
             true
           | _ -> false)
         | Plus_check { a; b; result } -> (
           match
             ( Symbol.as_int (value env a),
               Symbol.as_int (value env b),
               Symbol.as_int (value env result) )
           with
           | Some x, Some y, Some z -> z = x + y
           | _ -> false)
         (* The aggregation steps close the plan, after the driving step. *)
         | Aggregate_probe _ | Tighten_emit _ -> assert false
         | Scan _ | Index_probe _ | Enumerate _ -> assert false)
         && prefix (i + 1)
    in
    if not (prefix 0) then 0
    else
      match steps.(d).op with
      | Scan _ -> Relation.cardinal prep.p_rels.(d)
      | Enumerate _ -> prep.p_usize
      | Index_probe { col; key; _ } ->
        (* Also warms the relation's memoized index in the coordinator, so
           shard contexts hit it. *)
        List.length (Relation.matching col (value env key) prep.p_rels.(d))
      | Compare _ | Assign _ | Const_filter _ | Neg_check _ | Exists _
      | Neg_exists _ | Le_check _ | Plus_bind _ | Plus_check _
      | Aggregate_probe _ | Tighten_emit _ ->
        assert false
  end

(* The execution core.  [lo, hi) restricts the {e driving} step to the
   given slice of its input positions; [0, max_int) is an unrestricted
   execution (and behaves — counters included — exactly like one, since
   every position is then in range).  Steps before the driving step are
   constant-decided, so the driving step runs at most once per call and a
   single position cursor suffices.  The driving step also counts the
   input positions it visits into [p_din] — summed over a run's contexts,
   that is exactly the driving input size the next sharded run partitions
   without re-counting. *)
let exec_range prep ~lo ~hi ~on_row =
  let plan = prep.p_plan in
  let steps = plan.steps in
  let nsteps = Array.length steps in
  let rows = prep.p_rows in
  let env = prep.p_env in
  let universe = prep.p_universe in
  let d = prep.p_driving in
  let rec exec i =
    if i = nsteps then on_row env
    else
      let st = Array.unsafe_get steps i in
      match st.op with
      | Compare { negated; left; right } ->
        if Symbol.equal (value env left) (value env right) <> negated then begin
          rows.(i) <- rows.(i) + 1;
          exec (i + 1)
        end
      | Assign { slot; value = v } ->
        env.(slot) <- value env v;
        rows.(i) <- rows.(i) + 1;
        exec (i + 1)
      | Enumerate { slot } ->
        bump_enum prep;
        if i = d then begin
          let pos = ref 0 in
          List.iter
            (fun c ->
              let p = !pos in
              incr pos;
              if p >= lo && p < hi then begin
                prep.p_din <- prep.p_din + 1;
                env.(slot) <- c;
                rows.(i) <- rows.(i) + 1;
                exec (i + 1)
              end)
            universe
        end
        else
          List.iter
            (fun c ->
              env.(slot) <- c;
              rows.(i) <- rows.(i) + 1;
              exec (i + 1))
            universe
      | Const_filter { args; _ } ->
        if probe prep i args then begin
          rows.(i) <- rows.(i) + 1;
          exec (i + 1)
        end
      | Neg_check { args; _ } ->
        if not (probe prep i args) then begin
          rows.(i) <- rows.(i) + 1;
          exec (i + 1)
        end
      | Exists { pat; _ } ->
        bump_scan prep;
        if exists_holds prep i pat then begin
          rows.(i) <- rows.(i) + 1;
          exec (i + 1)
        end
      | Neg_exists { pat; free; _ } ->
        bump_scan prep;
        if not (neg_exists_fails prep i pat free) then begin
          rows.(i) <- rows.(i) + 1;
          exec (i + 1)
        end
      | Le_check { left; right } ->
        if Symbol.compare_value (value env left) (value env right) <= 0
        then begin
          rows.(i) <- rows.(i) + 1;
          exec (i + 1)
        end
      | Plus_bind { a; b; slot } -> (
        match (Symbol.as_int (value env a), Symbol.as_int (value env b)) with
        | Some x, Some y ->
          env.(slot) <- Symbol.of_int (x + y);
          rows.(i) <- rows.(i) + 1;
          exec (i + 1)
        | _ -> ())
      | Plus_check { a; b; result } -> (
        match
          ( Symbol.as_int (value env a),
            Symbol.as_int (value env b),
            Symbol.as_int (value env result) )
        with
        | Some x, Some y, Some z when z = x + y ->
          rows.(i) <- rows.(i) + 1;
          exec (i + 1)
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
          exec (i + 1)
        end
      | Tighten_emit { kind; group; bound; _ } -> (
        let cand = value env bound in
        let g = Tuple.unsafe_make (Array.map (value env) group) in
        match Hashtbl.find_opt prep.p_best g with
        | Some b when not (agg_better kind cand b) -> ()
        | _ ->
          Hashtbl.replace prep.p_best g cand;
          rows.(i) <- rows.(i) + 1;
          exec (i + 1))
      | Scan { pat; _ } ->
        bump_scan prep;
        scan_rel i pat
      | Index_probe { col; key; pat; _ } ->
        bump_index prep (Relation.has_index prep.p_rels.(i) col);
        stream i pat (Relation.matching col (value env key) prep.p_rels.(i))
  and scan_rel i pat =
    if i = d then begin
      let pos = ref 0 in
      Relation.iter
        (fun t ->
          let p = !pos in
          incr pos;
          if p >= lo && p < hi then begin
            prep.p_din <- prep.p_din + 1;
            if match_pat env pat t then begin
              rows.(i) <- rows.(i) + 1;
              exec (i + 1)
            end
          end)
        prep.p_rels.(i)
    end
    else
      Relation.iter
        (fun t ->
          if match_pat env pat t then begin
            rows.(i) <- rows.(i) + 1;
            exec (i + 1)
          end)
        prep.p_rels.(i)
  and stream i pat bucket =
    if i = d then begin
      (* Slice of the bucket's positions; probe counters see only the
         slice, so shard totals add up to the unrestricted count. *)
      let pos = ref 0 in
      let visited = ref 0 in
      List.iter
        (fun t ->
          let p = !pos in
          incr pos;
          if p >= lo && p < hi then begin
            incr visited;
            if match_pat env pat t then begin
              rows.(i) <- rows.(i) + 1;
              exec (i + 1)
            end
          end)
        bucket;
      prep.p_din <- prep.p_din + !visited;
      bump_probes prep !visited
    end
    else begin
      bump_probes prep (List.length bucket);
      List.iter
        (fun t ->
          if match_pat env pat t then begin
            rows.(i) <- rows.(i) + 1;
            exec (i + 1)
          end)
        bucket
    end
  in
  exec 0

let exec prep ~on_row = exec_range prep ~lo:0 ~hi:max_int ~on_row

let run ?counters ~resolver ~universe plan ~on_row =
  let prep = prepare ?counters ~resolver ~universe plan in
  exec prep ~on_row;
  harvest plan [ prep ]

(* --- sharded execution -------------------------------------------------- *)

type shard_report = {
  sh_morsels : int;
  sh_steals : int;
  sh_executed : int array;
}

(* Target: ~8 morsels per participant so stealing can rebalance, floored
   at 16 driving rows per morsel so tiny inputs don't drown in scheduling
   overhead.  A lone worker gets the whole input as one morsel: with no
   one to steal, splitting only pays per-morsel setup for nothing. *)
let auto_grain ~rows ~workers =
  let w = max 1 workers in
  if w = 1 then max 16 rows else max 16 ((rows + (8 * w) - 1) / (8 * w))

let run_sharded ?(counters = fun _ -> None) ~pool ?grain ~resolver ~universe
    plan ~on_row =
  (* The counting context doubles as participant 0's execution context. *)
  let count_ctx = prepare ~resolver ~universe plan in
  let fb = plan.fb in
  (* The driving-input count is only walked on a plan's first run; after
     that the feedback record's observed average sizes the morsels and the
     last morsel is left open-ended to absorb the estimation error. *)
  let counted = fb.fb_runs = 0 in
  let rows =
    if counted then driving_rows count_ctx
    else max 0 (fb.fb_driving / fb.fb_runs)
  in
  let workers = Negdl_util.Domain_pool.size pool + 1 in
  let g =
    match grain with
    | Some g -> max 1 g
    | None -> auto_grain ~rows ~workers
  in
  let morsels =
    if counted then (if rows = 0 then 0 else (rows + g - 1) / g)
    else max 1 ((rows + g - 1) / g)
  in
  if morsels <= 1 then begin
    (* One morsel (or a constant-decided plan, [p_driving < 0]): run
       unrestricted on the calling domain. *)
    if morsels = 1 then begin
      let c0 = { count_ctx with p_counters = counters 0 } in
      exec c0 ~on_row:(on_row 0);
      harvest plan [ c0 ]
    end
    else harvest plan [ count_ctx ];
    { sh_morsels = morsels; sh_steals = 0; sh_executed = [| morsels |] }
  end
  else begin
    let np = max 1 (min workers morsels) in
    (* Per-participant contexts, created lazily on the participant's own
       domain (slot [p] is only touched by participant [p]). *)
    let preps = Array.make np None in
    let ctx p =
      match preps.(p) with
      | Some prep -> prep
      | None ->
        let prep =
          if p = 0 then { count_ctx with p_counters = counters 0 }
          else prepare ?counters:(counters p) ~resolver ~universe plan
        in
        preps.(p) <- Some prep;
        prep
    in
    let last = morsels - 1 in
    let hi i =
      if counted then min rows ((i + 1) * g)
      else if i = last then max_int
      else (i + 1) * g
    in
    let _, report =
      Negdl_util.Domain_pool.run_morsels pool ~morsels (fun p i ->
          exec_range (ctx p) ~lo:(i * g) ~hi:(hi i) ~on_row:(on_row p))
    in
    (* Barrier: fold the participants' counts into the feedback record in
       participant order (the counts are sums, so the order only matters
       for reproducibility of the code path, not the totals). *)
    harvest plan (List.filter_map Fun.id (Array.to_list preps));
    {
      sh_morsels = morsels;
      sh_steals = report.Negdl_util.Domain_pool.steals;
      sh_executed = report.Negdl_util.Domain_pool.executed;
    }
  end

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

let pp_op names ppf = function
  | Index_probe { access; col; key; pat } ->
    Format.fprintf ppf "probe %s%a via column %d = %a" access.pred
      (pp_pat names) pat col (pp_term names) key
  | Scan { access; pat } ->
    Format.fprintf ppf "scan %s%a" access.pred (pp_pat names) pat
  | Const_filter { access; args } ->
    Format.fprintf ppf "filter %s%a" access.pred (pp_args names) args
  | Neg_check { access; args } ->
    Format.fprintf ppf "check !%s%a" access.pred (pp_args names) args
  | Exists { access; pat } ->
    Format.fprintf ppf "exists %s%a" access.pred (pp_pat names) pat
  | Neg_exists { access; pat; free } ->
    Format.fprintf ppf "exists-missing %s%a (%d free)" access.pred
      (pp_pat names) pat free
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
      access.pred (pp_args names) group (pp_term names) bound
      (Datalog.Ast.limit_kind_to_string kind)
      col
  | Tighten_emit { pred; kind; col; group; bound } ->
    Format.fprintf ppf "tighten-emit %s%a bound %a (%s at column %d)" pred
      (pp_args names) group (pp_term names) bound
      (Datalog.Ast.limit_kind_to_string kind)
      col

let pp_step names ppf st =
  Format.fprintf ppf "%a  [est %.1f rows]" (pp_op names) st.op st.est

let pp ppf plan =
  Format.fprintf ppf "@[<v2>%s  {%s}" plan.label
    (variant_to_string plan.variant);
  Array.iteri
    (fun i st ->
      Format.fprintf ppf "@,%d. %a" (i + 1) (pp_step plan.slot_names) st;
      if plan.fb.fb_runs > 0 then
        Format.fprintf ppf "  [actual %d]" plan.fb.fb_rows.(i))
    plan.steps;
  Format.fprintf ppf "@,%d. project %s%a  [est %.1f rows]"
    (Array.length plan.steps + 1)
    plan.head_pred
    (pp_args plan.slot_names)
    plan.head_args plan.est_out;
  Format.fprintf ppf "@]"

let to_string plan = Format.asprintf "%a" pp plan
