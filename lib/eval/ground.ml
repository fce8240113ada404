module Tuple = Relalg.Tuple
module Symbol = Relalg.Symbol
module Relation = Relalg.Relation

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

module GMap = Map.Make (struct
  type t = gatom

  let compare = compare_gatom
end)

type t = {
  schema : Relalg.Schema.t;  (* IDB schema *)
  atoms : gatom list;
  rules : grule list;
  by_head : grule list GMap.t;
}

(* The name under which a rule's instantiation pseudo-rule is planned; no
   parseable program can use it (predicates start with a lowercase letter
   or digit), so grounding plans never collide with evaluation plans in a
   shared cache. *)
let instances_pred = "$instances"

let ground ?(keep = []) ?cache (p : Datalog.Ast.program) db =
  (match Datalog.Check.refuse_limits "Ground.ground" p with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  let schema =
    match Datalog.Ast.idb_schema p with
    | Ok s -> s
    | Error msg -> invalid_arg ("Ground.ground: " ^ msg)
  in
  let idb_pred name = Relalg.Schema.mem name schema in
  let kept name = List.mem name keep && not (idb_pred name) in
  let universe = Relalg.Database.universe db in
  let universe_size = List.length universe in
  let base = Engine.database_source db in
  let resolver = Engine.uniform base in
  let raw_rules = ref [] in
  (* Grounding a rule is itself a conjunctive query — over the decidable
     (non-IDB) literals only, with {e every} rule variable projected out.
     Each rule therefore compiles to one pseudo-rule
     [$instances(X1, ..., Xn) :- decidable body] planned and executed by
     the shared plan layer: index probes over the database relations bind
     what they can, negated EDB literals and (in)equalities filter, and
     the compiler's head enumeration covers the variables no positive
     literal restricts.  The IDB atoms (plus kept EDB positives) stay
     symbolic and are materialised per emitted binding. *)
  let instantiate (r : Datalog.Ast.rule) =
    let vars = Datalog.Ast.rule_variables r in
    let slot_of =
      let index = Hashtbl.create 8 in
      List.iteri (fun i x -> Hashtbl.add index x i) vars;
      fun x -> Hashtbl.find index x
    in
    let spec_term = function
      | Datalog.Ast.Const c -> `Cst c
      | Datalog.Ast.Var x -> `Idx (slot_of x)
    in
    let atom_spec (a : Datalog.Ast.atom) =
      Array.of_list (List.map spec_term a.args)
    in
    let decidable = ref [] in
    let sym_pos = ref [] in
    let sym_neg = ref [] in
    List.iter
      (fun (l : Datalog.Ast.literal) ->
        match l with
        | Datalog.Ast.Eq _ | Datalog.Ast.Neq _ | Datalog.Ast.Leq _
        | Datalog.Ast.Geq _ | Datalog.Ast.Plus _ ->
          decidable := l :: !decidable
        | Datalog.Ast.Pos a when idb_pred a.pred ->
          sym_pos := (a.pred, atom_spec a) :: !sym_pos
        | Datalog.Ast.Neg a when idb_pred a.pred ->
          sym_neg := (a.pred, atom_spec a) :: !sym_neg
        | Datalog.Ast.Pos a ->
          (* Kept EDB positives are both checked and recorded. *)
          decidable := l :: !decidable;
          if kept a.pred then sym_pos := (a.pred, atom_spec a) :: !sym_pos
        | Datalog.Ast.Neg _ -> decidable := l :: !decidable)
      r.body;
    let pseudo =
      Datalog.Ast.rule
        (Datalog.Ast.atom instances_pred
           (List.map (fun x -> Datalog.Ast.Var x) vars))
        (List.rev !decidable)
    in
    let label =
      Printf.sprintf "ground %s" (Datalog.Pretty.rule_to_string r)
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
      | None ->
        Planlib.Plan.compile ~label ~sizes ~universe_size pseudo
    in
    let head_spec = (r.head.pred, atom_spec r.head) in
    let sym_pos = List.rev !sym_pos and sym_neg = List.rev !sym_neg in
    Planlib.Plan.run ~resolver ~universe plan ~on_row:(fun env ->
        let value = function `Cst c -> c | `Idx i -> env.(i) in
        let mk_gatom (pred, spec) =
          { pred; tuple = Tuple.unsafe_make (Array.map value spec) }
        in
        let dedup l = List.sort_uniq compare_gatom l in
        raw_rules :=
          {
            head = mk_gatom head_spec;
            pos = dedup (List.map mk_gatom sym_pos);
            neg = dedup (List.map mk_gatom sym_neg);
          }
          :: !raw_rules)
  in
  List.iter instantiate p.rules;
  let rules = List.rev !raw_rules in
  (* Derivable atoms: heads of instances.  Simplify bodies against that
     set, dropping instances with an underivable positive subgoal and
     erasing vacuously-true negative subgoals; iterate to a fixed point
     since removing instances can shrink the derivable set. *)
  let rec simplify rules =
    let heads =
      List.fold_left (fun acc gr -> GMap.add gr.head () acc) GMap.empty rules
    in
    (* Kept EDB atoms were membership-checked at instantiation time, so
       they count as derivable here. *)
    let derivable a = GMap.mem a heads || kept a.pred in
    let changed = ref false in
    let rules' =
      List.filter_map
        (fun gr ->
          if List.for_all derivable gr.pos then begin
            let neg' = List.filter derivable gr.neg in
            if List.length neg' <> List.length gr.neg then changed := true;
            Some { gr with neg = neg' }
          end
          else begin
            changed := true;
            None
          end)
        rules
    in
    if !changed then simplify rules' else rules'
  in
  let rules = simplify rules in
  let by_head =
    List.fold_left
      (fun acc gr ->
        let existing = Option.value ~default:[] (GMap.find_opt gr.head acc) in
        GMap.add gr.head (gr :: existing) acc)
      GMap.empty rules
  in
  let atoms = List.map fst (GMap.bindings by_head) in
  { schema; atoms; rules; by_head }

let atoms g = g.atoms

let rules g = g.rules

let instances_for g a =
  Option.value ~default:[] (GMap.find_opt a g.by_head)

let atom_count g = List.length g.atoms

let rule_count g = List.length g.rules

let to_idb g facts =
  List.fold_left (fun idb a -> Idb.add_fact idb a.pred a.tuple) (Idb.empty g.schema)
    facts

let holds idb a =
  Idb.mem idb a.pred && Relation.mem a.tuple (Idb.get idb a.pred)

let apply g idb =
  List.fold_left
    (fun acc gr ->
      let fires =
        List.for_all (holds idb) gr.pos
        && not (List.exists (holds idb) gr.neg)
      in
      if fires then Idb.add_fact acc gr.head.pred gr.head.tuple else acc)
    (Idb.empty g.schema) g.rules

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
    g.rules
