type result =
  | Sat of bool array
  | Unsat

(* Literal encoding inside the solver: variable v (1-based) yields literals
   2v (positive) and 2v+1 (negative); negation is [lxor 1]. *)

let lit_of_dimacs l = if l > 0 then 2 * l else (2 * -l) + 1

let var_of_lit lit = lit / 2

let neg lit = lit lxor 1

type state = {
  nvars : int;
  (* Clause store: each clause is an int array of solver literals; the two
     watched literals are kept at positions 0 and 1.  The invariant that a
     reason clause keeps its implied literal at position 0 is maintained by
     [propagate]. *)
  mutable clauses : int array array;
  mutable clause_count : int;
  (* watches.(lit) lists the ids of clauses watching [lit]. *)
  watches : int list array;
  (* assign.(v) = 0 unassigned, 1 true, -1 false. *)
  assign : int array;
  level : int array;
  reason : int array;  (* clause id, or -1 for decisions and top-level units *)
  trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int list;  (* trail sizes at decision points, newest first *)
  mutable qhead : int;
  activity : float array;
  mutable var_inc : float;
  phase : bool array;
  seen : bool array;
  mutable conflicts : int;
  (* Restart bookkeeping lives in the state (not the solve loop) so a search
     can be paused and resumed without rewinding the Luby sequence. *)
  mutable restarts : int;
}

exception Found_unsat

(* Raised inside the CDCL loop when a budget runs out; caught by
   [solve_state], which rewinds to level 0 so the state stays resumable. *)
exception Stop_search of Outcome.reason

let create_state nvars =
  {
    nvars;
    clauses = Array.make 16 [||];
    clause_count = 0;
    watches = Array.make ((2 * nvars) + 2) [];
    assign = Array.make (nvars + 1) 0;
    level = Array.make (nvars + 1) 0;
    reason = Array.make (nvars + 1) (-1);
    trail = Array.make (nvars + 1) 0;
    trail_size = 0;
    trail_lim = [];
    qhead = 0;
    activity = Array.make (nvars + 1) 0.0;
    var_inc = 1.0;
    phase = Array.make (nvars + 1) false;
    seen = Array.make (nvars + 1) false;
    conflicts = 0;
    restarts = 0;
  }

let value st lit =
  let v = st.assign.(var_of_lit lit) in
  if v = 0 then 0 else if lit land 1 = 0 then v else -v

let decision_level st = List.length st.trail_lim

let enqueue st lit reason =
  let v = var_of_lit lit in
  st.assign.(v) <- (if lit land 1 = 0 then 1 else -1);
  st.level.(v) <- decision_level st;
  st.reason.(v) <- reason;
  st.phase.(v) <- lit land 1 = 0;
  st.trail.(st.trail_size) <- lit;
  st.trail_size <- st.trail_size + 1

(* Returns [false] when the clause makes the problem unsat immediately (at
   the current level, used only at level 0 or for fresh learned units). *)
let add_clause_array st (c : int array) =
  let n = Array.length c in
  if n = 0 then false
  else if n = 1 then begin
    match value st c.(0) with
    | 1 -> true
    | -1 -> false
    | _ ->
      enqueue st c.(0) (-1);
      true
  end
  else begin
    if st.clause_count = Array.length st.clauses then begin
      let bigger = Array.make (2 * Array.length st.clauses) [||] in
      Array.blit st.clauses 0 bigger 0 st.clause_count;
      st.clauses <- bigger
    end;
    let id = st.clause_count in
    st.clauses.(id) <- c;
    st.clause_count <- st.clause_count + 1;
    st.watches.(c.(0)) <- id :: st.watches.(c.(0));
    st.watches.(c.(1)) <- id :: st.watches.(c.(1));
    true
  end

(* Unit propagation with two watched literals.  Returns the id of a
   conflicting clause, or -1. *)
let propagate st =
  let conflict = ref (-1) in
  while !conflict < 0 && st.qhead < st.trail_size do
    let lit = st.trail.(st.qhead) in
    st.qhead <- st.qhead + 1;
    let false_lit = neg lit in
    let watching = st.watches.(false_lit) in
    st.watches.(false_lit) <- [];
    let rec process = function
      | [] -> ()
      | id :: rest ->
        let c = st.clauses.(id) in
        (* Ensure the false literal is at position 1. *)
        if c.(0) = false_lit then begin
          c.(0) <- c.(1);
          c.(1) <- false_lit
        end;
        if value st c.(0) = 1 then begin
          (* Clause satisfied; keep watching the same literal. *)
          st.watches.(false_lit) <- id :: st.watches.(false_lit);
          process rest
        end
        else begin
          let n = Array.length c in
          let rec find i =
            if i = n then -1
            else if value st c.(i) <> -1 then i
            else find (i + 1)
          in
          let i = find 2 in
          if i >= 0 then begin
            (* Move the new watch into position 1. *)
            c.(1) <- c.(i);
            c.(i) <- false_lit;
            st.watches.(c.(1)) <- id :: st.watches.(c.(1));
            process rest
          end
          else begin
            (* Unit or conflicting; in both cases keep the watch. *)
            st.watches.(false_lit) <- id :: st.watches.(false_lit);
            if value st c.(0) = -1 then begin
              conflict := id;
              List.iter
                (fun id' ->
                  st.watches.(false_lit) <- id' :: st.watches.(false_lit))
                rest
            end
            else begin
              enqueue st c.(0) id;
              process rest
            end
          end
        end
    in
    process watching
  done;
  !conflict

let bump st v =
  st.activity.(v) <- st.activity.(v) +. st.var_inc;
  if st.activity.(v) > 1e100 then begin
    for u = 1 to st.nvars do
      st.activity.(u) <- st.activity.(u) *. 1e-100
    done;
    st.var_inc <- st.var_inc *. 1e-100
  end

let decay st = st.var_inc <- st.var_inc /. 0.95

(* First-UIP conflict analysis.  Returns the learned clause with the
   asserting literal first, and the backjump level. *)
let analyze st conflict_id =
  let current = decision_level st in
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (st.trail_size - 1) in
  let confl = ref conflict_id in
  let finished = ref false in
  while not !finished do
    let c = st.clauses.(!confl) in
    let start = if !p = -1 then 0 else 1 in
    for i = start to Array.length c - 1 do
      let q = c.(i) in
      let v = var_of_lit q in
      if (not st.seen.(v)) && st.level.(v) > 0 then begin
        st.seen.(v) <- true;
        bump st v;
        if st.level.(v) = current then incr counter
        else learned := q :: !learned
      end
    done;
    (* Walk the trail back to the next marked literal. *)
    while not st.seen.(var_of_lit st.trail.(!index)) do
      decr index
    done;
    p := st.trail.(!index);
    let v = var_of_lit !p in
    st.seen.(v) <- false;
    decr index;
    decr counter;
    if !counter = 0 then finished := true else confl := st.reason.(v)
  done;
  let learned_clause = neg !p :: !learned in
  List.iter (fun lit -> st.seen.(var_of_lit lit) <- false) !learned;
  let backjump =
    List.fold_left
      (fun acc lit -> max acc st.level.(var_of_lit lit))
      0 !learned
  in
  (learned_clause, backjump)

let cancel_until st target =
  let level = decision_level st in
  if level > target then begin
    let sizes = Array.of_list (List.rev st.trail_lim) in
    let keep_size = sizes.(target) in
    for i = st.trail_size - 1 downto keep_size do
      let v = var_of_lit st.trail.(i) in
      st.assign.(v) <- 0;
      st.reason.(v) <- -1
    done;
    st.trail_size <- keep_size;
    st.qhead <- keep_size;
    let rec drop n l =
      if n = 0 then l
      else
        match l with
        | [] -> []
        | _ :: t -> drop (n - 1) t
    in
    st.trail_lim <- drop (level - target) st.trail_lim
  end

let pick_branch_var st =
  let best = ref 0 in
  let best_act = ref neg_infinity in
  for v = 1 to st.nvars do
    if st.assign.(v) = 0 && st.activity.(v) > !best_act then begin
      best := v;
      best_act := st.activity.(v)
    end
  done;
  !best

(* The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..., scaled by
   [restart_base] conflicts. *)
let restart_base = 100

let rec luby i =
  let rec find k = if (1 lsl k) - 1 >= i then k else find (k + 1) in
  let k = find 1 in
  if (1 lsl k) - 1 = i then 1 lsl (k - 1)
  else luby (i - ((1 lsl (k - 1)) - 1))

(* Internal verdict of one (possibly budgeted) CDCL run.  [V_unsat] means
   unsatisfiable under the given assumptions; unconditional unsatisfiability
   still travels as [Found_unsat] so sessions can mark themselves broken. *)
type verdict =
  | V_sat of bool array
  | V_unsat
  | V_stopped of Outcome.reason

(* [assumptions] are solver literals assumed for this call only, realised
   as the first decisions (MiniSat-style).
   [conflict_limit] is an absolute ceiling on [st.conflicts];
   [deadline] an absolute [Unix.gettimeofday] instant, checked once per
   CDCL iteration, i.e. around every propagate call.
   On [V_stopped] the trail is rewound to level 0 but conflicts, restarts,
   learned clauses, phases and activities survive, so calling again simply
   resumes the search.
   May raise [Found_unsat] when the formula itself (independent of the
   assumptions) is contradicted at level 0; callers decide how to record
   that. *)
let solve_state ?(assumptions = [||]) ?(conflict_limit = max_int)
    ?(deadline = infinity) st =
  let check_budgets () =
    if st.conflicts >= conflict_limit then
      raise (Stop_search Outcome.Conflict_budget);
    if deadline < infinity && Unix.gettimeofday () >= deadline then
      raise (Stop_search Outcome.Time_budget)
  in
  try
    check_budgets ();
    if propagate st >= 0 then raise Found_unsat;
    let result = ref None in
    while !result = None do
      st.restarts <- st.restarts + 1;
      let limit = restart_base * luby st.restarts in
      let conflicts_here = ref 0 in
      let restart = ref false in
      while (not !restart) && !result = None do
        check_budgets ();
        let conflict = propagate st in
        if conflict >= 0 then begin
          st.conflicts <- st.conflicts + 1;
          incr conflicts_here;
          if decision_level st = 0 then raise Found_unsat;
          let learned, backjump = analyze st conflict in
          cancel_until st backjump;
          let c = Array.of_list learned in
          if Array.length c > 1 then begin
            (* Watch the asserting literal and a literal of the backjump
               level, so the clause wakes up correctly. *)
            let pos = ref 1 in
            for i = 1 to Array.length c - 1 do
              if
                st.level.(var_of_lit c.(i))
                > st.level.(var_of_lit c.(!pos))
              then pos := i
            done;
            let tmp = c.(1) in
            c.(1) <- c.(!pos);
            c.(!pos) <- tmp;
            if not (add_clause_array st c) then raise Found_unsat;
            enqueue st c.(0) (st.clause_count - 1)
          end
          else if not (add_clause_array st c) then raise Found_unsat;
          decay st
        end
        else if !conflicts_here >= limit then begin
          cancel_until st 0;
          restart := true
        end
        else begin
          let dl = decision_level st in
          if dl < Array.length assumptions then begin
            (* Assume the next assumption literal as a decision. *)
            let lit = assumptions.(dl) in
            match value st lit with
            | 1 ->
              (* Already true: open an empty level so indices advance. *)
              st.trail_lim <- st.trail_size :: st.trail_lim
            | -1 ->
              (* Incompatible with the formula (plus earlier assumptions). *)
              result := Some V_unsat
            | _ ->
              st.trail_lim <- st.trail_size :: st.trail_lim;
              enqueue st lit (-1)
          end
          else begin
            let v = pick_branch_var st in
            if v = 0 then begin
              let model = Array.make (st.nvars + 1) false in
              for u = 1 to st.nvars do
                model.(u) <- st.assign.(u) = 1
              done;
              result := Some (V_sat model)
            end
            else begin
              st.trail_lim <- st.trail_size :: st.trail_lim;
              let lit = if st.phase.(v) then 2 * v else (2 * v) + 1 in
              enqueue st lit (-1)
            end
          end
        end
      done
    done;
    (match !result with
    | Some r -> r
    | None -> assert false)
  with Stop_search reason ->
    cancel_until st 0;
    V_stopped reason

let load cnf extra_units =
  let st = create_state (Cnf.num_vars cnf) in
  let ok = ref true in
  let add c =
    if !ok && not (add_clause_array st (Array.of_list (List.map lit_of_dimacs c)))
    then ok := false
  in
  List.iter add (Cnf.clauses cnf);
  List.iter (fun l -> add [ l ]) extra_units;
  (st, !ok)

(* --- top-level solving ---------------------------------------------------- *)

let run_to_outcome ~conflict_limit ~deadline st =
  try
    match solve_state ~conflict_limit ~deadline st with
    | V_sat m -> Outcome.Sat m
    | V_unsat -> Outcome.Unsat
    | V_stopped r -> Outcome.Unknown r
  with Found_unsat -> Outcome.Unsat

let sequential_outcome ~conflict_budget ~deadline cnf =
  let st, ok = load cnf [] in
  if not ok then Outcome.Unsat
  else run_to_outcome ~conflict_limit:conflict_budget ~deadline st

let set_default_parallelism n =
  if n <> 1 then
    invalid_arg
      (Printf.sprintf
         "Solver.set_default_parallelism %d: the search is sequential, only 1 \
          is accepted"
         n)

let solve_outcome ?(conflict_budget = max_int) ?(time_budget = infinity) cnf =
  let deadline =
    if time_budget = infinity then infinity
    else Unix.gettimeofday () +. time_budget
  in
  let outcome = sequential_outcome ~conflict_budget ~deadline cnf in
  (match outcome with
  | Outcome.Unknown _ -> Sat_stats.budget_exhausted ()
  | _ -> ());
  outcome

let solve cnf =
  match solve_outcome cnf with
  | Outcome.Sat m -> Sat m
  | Outcome.Unsat -> Unsat
  | Outcome.Unknown _ ->
    (* Unreachable: no budget was given. *)
    assert false

let solve_with_units cnf units =
  let st, ok = load cnf units in
  if not ok then Unsat
  else
    try
      match solve_state st with
      | V_sat m -> Sat m
      | V_unsat | V_stopped _ -> assert false
    with Found_unsat -> Unsat

let is_satisfiable cnf =
  match solve cnf with
  | Sat _ -> true
  | Unsat -> false

let model_checks r cnf =
  match r with
  | Unsat -> true
  | Sat model -> Cnf.eval cnf (fun v -> model.(v))

(* --- incremental sessions ------------------------------------------------ *)

type session = {
  state : state;
  mutable broken : bool;  (* formula unsatisfiable outright *)
}

let session cnf =
  let st, ok = load cnf [] in
  { state = st; broken = not ok }

let check_session_literal s l =
  let v = abs l in
  if l = 0 || v > s.state.nvars then
    invalid_arg
      (Printf.sprintf "Solver: literal %d out of range 1..%d" l s.state.nvars)

let solve_assuming_outcome ?(conflict_budget = max_int)
    ?(time_budget = infinity) s assumptions =
  List.iter (check_session_literal s) assumptions;
  if s.broken then Outcome.Unsat
  else begin
    cancel_until s.state 0;
    let conflict_limit =
      if conflict_budget = max_int then max_int
      else s.state.conflicts + conflict_budget
    in
    let deadline =
      if time_budget = infinity then infinity
      else Unix.gettimeofday () +. time_budget
    in
    let assumptions =
      Array.of_list (List.map lit_of_dimacs assumptions)
    in
    let result =
      try
        match solve_state ~assumptions ~conflict_limit ~deadline s.state with
        | V_sat m -> Outcome.Sat m
        | V_unsat -> Outcome.Unsat
        | V_stopped r -> Outcome.Unknown r
      with Found_unsat ->
        s.broken <- true;
        Outcome.Unsat
    in
    cancel_until s.state 0;
    (match result with
    | Outcome.Unknown (Outcome.Conflict_budget | Outcome.Time_budget) ->
      Sat_stats.budget_exhausted ()
    | _ -> ());
    result
  end

let solve_assuming s assumptions =
  match solve_assuming_outcome s assumptions with
  | Outcome.Sat m -> Sat m
  | Outcome.Unsat -> Unsat
  | Outcome.Unknown _ ->
    (* Unreachable: no budget was given. *)
    assert false

let add_clause s lits =
  List.iter (check_session_literal s) lits;
  if not s.broken then begin
    cancel_until s.state 0;
    let st = s.state in
    let solver_lits = List.map lit_of_dimacs lits in
    (* Level-0 values are permanent: a true literal satisfies the clause
       forever, false literals can be dropped.  What remains must carry the
       watches, because level-0 propagation has already passed. *)
    if not (List.exists (fun l -> value st l = 1) solver_lits) then begin
      let unassigned = List.filter (fun l -> value st l = 0) solver_lits in
      match unassigned with
      | [] -> s.broken <- true
      | [ unit_lit ] ->
        if not (add_clause_array st [| unit_lit |]) then s.broken <- true
        else if propagate st >= 0 then s.broken <- true
      | lits ->
        (* Keep the falsified literals too (harmless), but watch two
           unassigned ones. *)
        let falsified =
          List.filter (fun l -> value st l = -1) solver_lits
        in
        if not (add_clause_array st (Array.of_list (lits @ falsified))) then
          s.broken <- true
    end
  end
