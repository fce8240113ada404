module Tuple = Relalg.Tuple
module Relation = Relalg.Relation
module Ast = Datalog.Ast

type gatom = {
  pred : string;
  tuple : Tuple.t;
}

let compare_gatom a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c else Tuple.compare a.tuple b.tuple

let gatom_to_string a = Printf.sprintf "%s%s" a.pred (Tuple.to_string a.tuple)

type grule = {
  head : gatom;
  pos : gatom list;
  neg : gatom list;
}

type t = {
  schema : Relalg.Schema.t;  (* IDB schema *)
  atoms : gatom array;  (* the program atoms, sorted: [atoms.(i)] has id i + 1 *)
  ranges : (string * int * int) list;
      (* per predicate with atoms, the ids [first, last) of its atoms *)
  aux : int;  (* aux atoms take the ids after the program atoms *)
  defs : int;  (* instances [0, defs) define aux atoms *)
  heads : int array;
  bodies : int array array;
  by_head : int array array;  (* per id, its instances latest first *)
}

(* The name under which a rule's instantiation pseudo-rules are planned; no
   parseable program can use it (predicates start with a lowercase letter
   or digit), so grounding plans never collide with evaluation plans in a
   shared cache.  The key relations a factored rule's core joins are named
   the same way. *)
let instances_pred = "$instances"

let key_pred i = Printf.sprintf "$key%d" i

module Atom_table = Hashtbl.Make (struct
  type t = string * Tuple.t

  let equal (p, a) (q, b) = String.equal p q && Tuple.equal a b

  let hash (p, a) = Hashtbl.hash (p, Tuple.hash a)
end)

module Key_table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal

  let hash = Tuple.hash
end)

(* An instance before the derivable atoms are known, over temporary ids:
   dense, in the order the atoms are met. *)
type raw = {
  rhead : int;
  rpos : int list;
  rneg : int list;
}

let term_vars terms =
  List.filter_map (function Ast.Var x -> Some x | Ast.Const _ -> None) terms

let literal_vars l = term_vars (Ast.literal_terms l)

(* A body's literals connected through variables the head does not bind,
   each component as its literal positions, listed by first literal; and
   the positions of the literals that mention head variables only. *)
let components head_vars body =
  let n = Array.length body in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let first = Hashtbl.create 8 in
  let free = Array.make n false in
  Array.iteri
    (fun i l ->
      List.iter
        (fun x ->
          if not (List.mem x head_vars) then begin
            free.(i) <- true;
            match Hashtbl.find_opt first x with
            | None -> Hashtbl.add first x i
            | Some j ->
              let ri = find i and rj = find j in
              if ri <> rj then parent.(max ri rj) <- min ri rj
          end)
        (literal_vars l))
    body;
  let comps = Array.make n [] in
  for i = n - 1 downto 0 do
    if free.(i) then comps.(find i) <- i :: comps.(find i)
  done;
  ( List.filter (( <> ) []) (Array.to_list comps),
    List.filter (fun i -> not free.(i)) (List.init n Fun.id) )

(* Drops the instances with an underivable positive subgoal, to a fixed
   point: an atom is derivable while some live instance derives it.  This
   is the greatest set of atoms each of which heads an instance whose
   positive subgoals it contains. *)
let derivable atom_count (raws : raw array) =
  let count = Array.make atom_count 0 in
  let uses = Array.make atom_count [] in
  Array.iteri
    (fun i r ->
      count.(r.rhead) <- count.(r.rhead) + 1;
      List.iter (fun a -> uses.(a) <- i :: uses.(a)) r.rpos)
    raws;
  let live = Array.make (Array.length raws) true in
  let dead = Queue.create () in
  Array.iteri (fun a c -> if c = 0 then Queue.add a dead) count;
  while not (Queue.is_empty dead) do
    List.iter
      (fun i ->
        if live.(i) then begin
          live.(i) <- false;
          let h = raws.(i).rhead in
          count.(h) <- count.(h) - 1;
          if count.(h) = 0 then Queue.add h dead
        end)
      uses.(Queue.pop dead)
  done;
  (Array.map (fun c -> c > 0) count, live)

let ground ?cache (p : Ast.program) db =
  (match Datalog.Check.refuse_limits "Ground.ground" p with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  let schema =
    match Ast.idb_schema p with
    | Ok s -> s
    | Error msg -> invalid_arg ("Ground.ground: " ^ msg)
  in
  let idb_pred name = Relalg.Schema.mem name schema in
  let universe = Relalg.Database.universe db in
  let universe_size = List.length universe in
  let base = Engine.database_source db in
  (* Temporary ids: [Some a] for a program atom, [None] for an aux atom. *)
  let met = ref [] and met_count = ref 0 in
  let meet kind =
    met := kind :: !met;
    incr met_count;
    !met_count - 1
  in
  let table = Atom_table.create 256 in
  let program_atom pred tuple =
    match Atom_table.find_opt table (pred, tuple) with
    | Some id -> id
    | None ->
      let id = meet (Some { pred; tuple }) in
      Atom_table.add table (pred, tuple) id;
      id
  in
  let defs = ref [] and instances = ref [] in
  (* Grounding a rule is itself a conjunctive query — over the decidable
     (non-IDB) literals only, with {e every} variable projected out.  It
     compiles to a pseudo-rule [$instances(X1, ..., Xn) :- decidable
     body] planned and executed by the shared plan layer: index probes
     over the database relations bind what they can, negated EDB literals
     and (in)equalities filter, and the compiler's head enumeration covers
     the variables no positive literal restricts.  The IDB atoms stay
     symbolic and are materialised per emitted binding, with the tuples
     [out] lists. *)
  let instantiate ~label ~resolver vars lits ~out emit =
    let slot_of =
      let index = Hashtbl.create 8 in
      List.iteri (fun i x -> Hashtbl.add index x i) vars;
      fun x -> Hashtbl.find index x
    in
    let spec args =
      Array.of_list
        (List.map
           (function Ast.Const c -> `Cst c | Ast.Var x -> `Idx (slot_of x))
           args)
    in
    let decidable, sym_pos, sym_neg =
      List.fold_left
        (fun (d, sp, sn) (l : Ast.literal) ->
          match l with
          | Ast.Pos a when idb_pred a.pred -> (d, (a.pred, spec a.args) :: sp, sn)
          | Ast.Neg a when idb_pred a.pred -> (d, sp, (a.pred, spec a.args) :: sn)
          | _ -> (l :: d, sp, sn))
        ([], [], []) lits
    in
    let pseudo =
      Ast.rule
        (Ast.atom instances_pred (List.map (fun x -> Ast.Var x) vars))
        (List.rev decidable)
    in
    let sizes (occ : Planlib.Plan.occurrence) arity =
      Relation.cardinal ((resolver occ).Engine.find occ.pred arity)
    in
    let plan =
      match cache with
      | Some cache ->
        Planlib.Cache.find ~label cache ~sizes
          ~universe_size:(fun () -> universe_size)
          pseudo
      | None -> Planlib.Plan.compile ~label ~sizes ~universe_size pseudo
    in
    let sym_pos = List.rev sym_pos and sym_neg = List.rev sym_neg in
    let out = List.map spec out in
    Planlib.Plan.run ~resolver ~universe plan ~on_row:(fun env ->
        let tuple spec =
          Tuple.unsafe_make
            (Array.map (function `Cst c -> c | `Idx i -> env.(i)) spec)
        in
        let atom (pred, spec) = program_atom pred (tuple spec) in
        emit (List.map tuple out) (List.map atom sym_pos)
          (List.map atom sym_neg))
  in
  let instance list rhead rpos rneg = list := { rhead; rpos; rneg } :: !list in
  (* A rule whose body splits into components connected through variables
     the head does not bind grounds each component on its own, as the
     definition of an aux atom keyed by the head variables it mentions;
     the rule's own instances then read one aux atom per component instead
     of multiplying the components out.  The exception is a rule whose one
     such component mentions every head variable: nothing would factor. *)
  let ground_rule (r : Ast.rule) =
    let label = "ground " ^ Datalog.Pretty.rule_to_string r in
    let vars = Ast.rule_variables r in
    let head_vars = term_vars r.head.args in
    let body = Array.of_list r.body in
    let comps, core = components head_vars body in
    let comp_vars comp =
      let inside = List.concat_map (fun i -> literal_vars body.(i)) comp in
      List.filter (fun x -> List.mem x inside) vars
    in
    let keys =
      List.map
        (fun c -> List.filter (fun x -> List.mem x head_vars) (comp_vars c))
        comps
    in
    let factored =
      match keys with
      | [] -> false
      | [ key ] -> List.exists (fun x -> not (List.mem x key)) head_vars
      | _ -> true
    in
    let database = Engine.uniform base in
    if not factored then
      instantiate ~label ~resolver:database vars r.body ~out:[ r.head.args ]
        (fun out pos neg ->
          instance instances
            (program_atom r.head.pred (List.hd out))
            pos neg)
    else begin
      (* Each component defines its aux atoms, one per key. *)
      let defined =
        List.map2
          (fun comp key ->
            let aux = Key_table.create 16 in
            let key_args = List.map (fun x -> Ast.Var x) key in
            let lits = List.map (fun i -> body.(i)) comp in
            let label =
              Format.asprintf "%s  aux: %a" label
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                   Datalog.Pretty.pp_literal)
                lits
            in
            instantiate ~label ~resolver:database (comp_vars comp) lits
              ~out:[ key_args ]
              (fun out pos neg ->
                let k = List.hd out in
                let id =
                  match Key_table.find_opt aux k with
                  | Some id -> id
                  | None ->
                    let id = meet None in
                    Key_table.add aux k id;
                    id
                in
                instance defs id pos neg);
            (key, key_args, aux))
          comps keys
      in
      (* A component with no instance for a key leaves the rule none; a
         keyless one decides that once. *)
      if
        List.for_all
          (fun (key, _, aux) -> key <> [] || Key_table.length aux > 0)
          defined
      then begin
        let keyed =
          List.filter (fun (key, _, _) -> key <> []) defined
          |> List.mapi (fun i (key, key_args, aux) ->
                 let rel =
                   Relation.of_seq (List.length key) (Key_table.to_seq_keys aux)
                 in
                 (key_pred (i + 1), key_args, rel))
        in
        let resolver (occ : Planlib.Plan.occurrence) =
          match List.find_opt (fun (name, _, _) -> name = occ.pred) keyed with
          | Some (_, _, rel) -> { Engine.find = (fun _ _ -> rel) }
          | None -> base
        in
        let core_vars = List.filter (fun x -> List.mem x head_vars) vars in
        instantiate ~label ~resolver core_vars
          (List.map (fun i -> body.(i)) core
          @ List.map
              (fun (name, key_args, _) -> Ast.Pos (Ast.atom name key_args))
              keyed)
          ~out:
            (r.head.args :: List.map (fun (_, key_args, _) -> key_args) defined)
          (fun out pos neg ->
            let head = List.hd out in
            let aux =
              List.map2
                (fun (_, _, table) k -> Key_table.find table k)
                defined (List.tl out)
            in
            instance instances
              (program_atom r.head.pred head)
              (pos @ aux) neg)
      end
    end
  in
  List.iter ground_rule p.rules;
  let kinds = Array.of_list (List.rev !met) in
  let raw_defs = List.length !defs in
  let raws = Array.of_list (List.rev_append !defs (List.rev !instances)) in
  let derivable, live = derivable (Array.length kinds) raws in
  (* An aux atom that no live instance of the program reads goes, with its
     definitions: the fixpoints would not change, but in the encoding it
     would tie its definitions' atoms into one component, which the
     unfactored grounding does not. *)
  let read = Array.make (Array.length kinds) false in
  Array.iteri
    (fun i r ->
      if i >= raw_defs && live.(i) then
        List.iter (fun a -> read.(a) <- true) r.rpos)
    raws;
  let derivable =
    Array.mapi (fun tid d -> d && (kinds.(tid) <> None || read.(tid))) derivable
  in
  let live = Array.mapi (fun i l -> l && derivable.(raws.(i).rhead)) live in
  (* Ids: the derivable program atoms in their sorted order, then the
     derivable aux atoms in the order they were met. *)
  let program =
    List.filter_map
      (fun tid ->
        match kinds.(tid) with
        | Some a when derivable.(tid) -> Some (a, tid)
        | _ -> None)
      (List.init (Array.length kinds) Fun.id)
    |> List.sort (fun (a, _) (b, _) -> compare_gatom a b)
  in
  let id_of = Array.make (Array.length kinds) 0 in
  List.iteri (fun i (_, tid) -> id_of.(tid) <- i + 1) program;
  let atom_count = List.length program in
  let aux = ref 0 in
  Array.iteri
    (fun tid kind ->
      if derivable.(tid) && kind = None then begin
        incr aux;
        id_of.(tid) <- atom_count + !aux
      end)
    kinds;
  let live =
    List.filter (fun i -> live.(i)) (List.init (Array.length raws) Fun.id)
  in
  let heads = Array.of_list (List.map (fun i -> id_of.(raws.(i).rhead)) live) in
  (* Positive subgoals ascending, then the derivable negated ones
     ascending, as negative ids: the sorted order of the atoms. *)
  let bodies =
    Array.of_list
      (List.map
         (fun i ->
           let ids l =
             List.sort_uniq Int.compare (List.map (fun a -> id_of.(a)) l)
           in
           let pos = ids raws.(i).rpos in
           let neg = ids (List.filter (fun a -> derivable.(a)) raws.(i).rneg) in
           Array.of_list (pos @ List.map Int.neg neg))
         live)
  in
  let defs = List.length (List.filter (fun i -> i < raw_defs) live) in
  let by_head = Array.make (atom_count + !aux + 1) [] in
  Array.iteri (fun i h -> by_head.(h) <- i :: by_head.(h)) heads;
  let atoms = Array.of_list (List.map fst program) in
  let ranges =
    let rec go i acc =
      if i >= atom_count then List.rev acc
      else
        let pred = atoms.(i).pred in
        let j = ref i in
        while !j < atom_count && String.equal atoms.(!j).pred pred do incr j done;
        go !j ((pred, i + 1, !j + 1) :: acc)
    in
    go 0 []
  in
  {
    schema;
    atoms;
    ranges;
    aux = !aux;
    defs;
    heads;
    bodies;
    by_head = Array.map Array.of_list by_head;
  }

let atoms g = Array.to_list g.atoms

let atom_count g = Array.length g.atoms

let aux_count g = g.aux

let rule_count g = Array.length g.heads

let body g i = g.bodies.(i)

let instances_of g id = g.by_head.(id)

let atom g id = g.atoms.(id - 1)

let id g a =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = compare_gatom a g.atoms.(mid) in
      if c = 0 then Some (mid + 1)
      else if c < 0 then search lo mid
      else search (mid + 1) hi
  in
  search 0 (Array.length g.atoms)

(* --- valuations over ids ------------------------------------------------- *)

let empty_valuation g = Array.make (atom_count g + g.aux + 1) false

let valuation g idb =
  let v = empty_valuation g in
  List.iter
    (fun (pred, first, last) ->
      if Idb.mem idb pred then begin
        let rel = Idb.get idb pred in
        for id = first to last - 1 do
          v.(id) <- Relation.mem g.atoms.(id - 1).tuple rel
        done
      end)
    g.ranges;
  v

let idb_of_valuation g v =
  List.fold_left
    (fun idb (pred, first, last) ->
      let tuples = ref [] in
      for id = last - 1 downto first do
        if v.(id) then tuples := g.atoms.(id - 1).tuple :: !tuples
      done;
      if !tuples = [] then idb
      else
        Idb.set idb pred
          (Relation.of_list (Tuple.arity g.atoms.(first - 1).tuple) !tuples))
    (Idb.empty g.schema) g.ranges

let to_idb g facts =
  List.fold_left (fun idb a -> Idb.add_fact idb a.pred a.tuple) (Idb.empty g.schema)
    facts

let holds ~pos ~neg body =
  let rec go i =
    i >= Array.length body
    ||
    let l = body.(i) in
    (if l > 0 then pos.(l) else not neg.(-l)) && go (i + 1)
  in
  go 0

(* Aux bodies read program atoms only, so the aux entries of [pos] can
   be filled first and then read by the program's instances. *)
let consequences g ~pos ~neg =
  Array.fill pos (atom_count g + 1) g.aux false;
  for i = 0 to g.defs - 1 do
    if holds ~pos ~neg g.bodies.(i) then pos.(g.heads.(i)) <- true
  done;
  let out = empty_valuation g in
  for i = g.defs to Array.length g.heads - 1 do
    if holds ~pos ~neg g.bodies.(i) then out.(g.heads.(i)) <- true
  done;
  out

let supported g ~t ~f =
  let s = empty_valuation g in
  let rec grow () =
    let changed = ref false in
    Array.iteri
      (fun i h ->
        if
          (not s.(h))
          && Array.for_all
               (fun l -> if l > 0 then (not f.(l)) && s.(l) else not t.(-l))
               g.bodies.(i)
        then begin
          s.(h) <- true;
          changed := true
        end)
      g.heads;
    if !changed then grow ()
  in
  grow ();
  s

let same_atoms g a b =
  let rec go id = id > atom_count g || (a.(id) = b.(id) && go (id + 1)) in
  go 1

let apply g idb =
  let v = valuation g idb in
  idb_of_valuation g (consequences g ~pos:v ~neg:v)

(* --- the program's own instances ----------------------------------------- *)

(* An instance of the encoded program that is one of the program's, with
   each aux atom in its body replaced by the body of one of its
   instances, every way: the first aux atom's choice outermost, each in
   grounding order. *)
let expand g i =
  let n = atom_count g in
  let own = List.filter (fun l -> abs l <= n) (Array.to_list g.bodies.(i)) in
  let aux = List.filter (fun l -> l > n) (Array.to_list g.bodies.(i)) in
  let choices =
    List.fold_left
      (fun partial a ->
        let defs = List.rev (Array.to_list g.by_head.(a)) in
        List.concat_map
          (fun lits -> List.map (fun j -> lits @ Array.to_list g.bodies.(j)) defs)
          partial)
      [ own ] aux
  in
  let head = g.atoms.(g.heads.(i) - 1) in
  List.map
    (fun lits ->
      let atoms l =
        List.map (fun id -> g.atoms.(id - 1)) (List.sort_uniq Int.compare l)
      in
      {
        head;
        pos = atoms (List.filter (fun l -> l > 0) lits);
        neg =
          atoms
            (List.filter_map (fun l -> if l < 0 then Some (-l) else None) lits);
      })
    choices

let instances_for g a =
  match id g a with
  | None -> []
  | Some id ->
    List.concat_map
      (fun i -> List.rev (expand g i))
      (Array.to_list g.by_head.(id))

let instance_count g =
  let n = atom_count g in
  let total = ref 0 in
  for i = g.defs to Array.length g.heads - 1 do
    total :=
      !total
      + Array.fold_left
          (fun acc l -> if l > n then acc * Array.length g.by_head.(l) else acc)
          1 g.bodies.(i)
  done;
  !total

let pp ppf g =
  let pp_grule ppf gr =
    let lits =
      List.map gatom_to_string gr.pos
      @ List.map (fun a -> "!" ^ gatom_to_string a) gr.neg
    in
    match lits with
    | [] -> Format.fprintf ppf "%s." (gatom_to_string gr.head)
    | _ ->
      Format.fprintf ppf "%s :- %s." (gatom_to_string gr.head)
        (String.concat ", " lits)
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_grule)
    (List.concat_map (expand g)
       (List.init (Array.length g.heads - g.defs) (fun i -> g.defs + i)))
