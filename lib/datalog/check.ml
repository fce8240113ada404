type error =
  | Inconsistent_arity of { pred : string; arity1 : int; arity2 : int }
  | Empty_program
  | Limit_column_out_of_range of { pred : string; column : int; arity : int }
  | Duplicate_limit of { pred : string }
  | Limit_on_edb of { pred : string }
  | Database_arity of {
      pred : string;
      program_arity : int;
      database_arity : int;
    }

type info = {
  idb : string list;
  edb : string list;
  rule_count : int;
  uses_negation : bool;
  uses_inequality : bool;
  positive : bool;
  range_restricted : bool;
  unrestricted_rules : Ast.rule list;
  limit_count : int;
}

let error_to_string = function
  | Inconsistent_arity { pred; arity1; arity2 } ->
    Printf.sprintf "predicate %s used with arities %d and %d" pred arity1
      arity2
  | Empty_program -> "program has no rules"
  | Limit_column_out_of_range { pred; column; arity } ->
    Printf.sprintf
      "limit declaration for %s names column %d, but %s has arity %d \
       (columns are 1-based)"
      pred column pred arity
  | Duplicate_limit { pred } ->
    Printf.sprintf "predicate %s has more than one limit declaration" pred
  | Limit_on_edb { pred } ->
    Printf.sprintf
      "limit declaration for %s, which no rule defines: limit predicates \
       must be IDB"
      pred
  | Database_arity { pred; program_arity; database_arity } ->
    Printf.sprintf
      "arity mismatch: the program reads %s with %d argument(s) but the \
       database holds %s with arity %d"
      pred program_arity pred database_arity

let arity_errors (p : Ast.program) =
  let table : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let errors = ref [] in
  let see (a : Ast.atom) =
    let arity = List.length a.args in
    match Hashtbl.find_opt table a.pred with
    | None -> Hashtbl.add table a.pred arity
    | Some k when k <> arity ->
      let clash = Inconsistent_arity { pred = a.pred; arity1 = k; arity2 = arity } in
      if not (List.mem clash !errors) then errors := clash :: !errors
    | Some _ -> ()
  in
  List.iter
    (fun (r : Ast.rule) ->
      see r.head;
      List.iter
        (fun l -> List.iter see (Ast.atoms_of_literal l))
        r.body)
    p.rules;
  List.rev !errors

(* Limit declarations must name an IDB predicate and a column inside its
   arity; two declarations for one predicate would leave the tightening
   order ambiguous. *)
let limit_errors (p : Ast.program) =
  let idb = Ast.idb_predicates p in
  let arity_of name =
    List.find_map
      (fun (r : Ast.rule) ->
        let of_atom (a : Ast.atom) =
          if a.pred = name then Some (List.length a.args) else None
        in
        match of_atom r.head with
        | Some k -> Some k
        | None ->
          List.find_map
            (fun l -> List.find_map of_atom (Ast.atoms_of_literal l))
            r.body)
      p.rules
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  List.concat_map
    (fun (l : Ast.limit) ->
      let dup =
        if Hashtbl.mem seen l.limit_pred then
          [ Duplicate_limit { pred = l.limit_pred } ]
        else begin
          Hashtbl.add seen l.limit_pred ();
          []
        end
      in
      let placement =
        if not (List.mem l.limit_pred idb) then
          [ Limit_on_edb { pred = l.limit_pred } ]
        else
          match arity_of l.limit_pred with
          | Some arity when l.column < 0 || l.column >= arity ->
            [ Limit_column_out_of_range
                { pred = l.limit_pred; column = l.column + 1; arity };
            ]
          | _ -> []
      in
      dup @ placement)
    p.limits

let uses_negation (p : Ast.program) =
  List.exists
    (fun (r : Ast.rule) ->
      List.exists (function Ast.Neg _ -> true | _ -> false) r.body)
    p.rules

let uses_inequality (p : Ast.program) =
  List.exists
    (fun (r : Ast.rule) ->
      List.exists (function Ast.Neq _ -> true | _ -> false) r.body)
    p.rules

let validate p =
  let errors = arity_errors p @ limit_errors p in
  let errors = if p.Ast.rules = [] then Empty_program :: errors else errors in
  match errors with
  | _ :: _ -> Error errors
  | [] ->
    let unrestricted =
      List.filter (fun r -> not (Ast.is_range_restricted r)) p.Ast.rules
    in
    Ok
      {
        idb = Ast.idb_predicates p;
        edb = Ast.edb_predicates p;
        rule_count = List.length p.Ast.rules;
        uses_negation = uses_negation p;
        uses_inequality = uses_inequality p;
        positive = Ast.is_positive p;
        range_restricted = unrestricted = [];
        unrestricted_rules = unrestricted;
        limit_count = List.length p.Ast.limits;
      }

(* Evaluation reads a database relation at the arity the program gives
   it, so the two must agree on every EDB predicate the program reads;
   IDB predicates never read the database. *)
let validate_database (p : Ast.program) db =
  let edb = Ast.edb_predicates p in
  let mismatch (a : Ast.atom) =
    if not (List.mem a.pred edb) then None
    else
      match Relalg.Database.relation a.pred db with
      | Some r when Relalg.Relation.arity r <> List.length a.args ->
        Some
          (Database_arity
             {
               pred = a.pred;
               program_arity = List.length a.args;
               database_arity = Relalg.Relation.arity r;
             })
      | Some _ | None -> None
  in
  match
    List.find_map
      (fun (r : Ast.rule) ->
        List.find_map
          (fun l -> List.find_map mismatch (Ast.atoms_of_literal l))
          r.body)
      p.rules
  with
  | Some e -> Error e
  | None -> Ok ()

(* Limit declarations are defined by the tighten-union fixpoint of the
   stratified evaluator; the other semantics would silently compute the
   pair-materializing reading, so they refuse limit programs instead. *)
let refuse_limits who (p : Ast.program) =
  match p.limits with
  | [] -> Ok ()
  | l :: _ ->
    Error
      (Printf.sprintf
         "%s: limit predicates (%s %s) require the stratified semantics" who
         l.limit_pred
         (Ast.limit_kind_to_string l.kind))

let validate_exn p =
  match validate p with
  | Ok info -> info
  | Error errors ->
    invalid_arg
      ("Check.validate: "
      ^ String.concat "; " (List.map error_to_string errors))

let describe p =
  match validate p with
  | Error errors ->
    "invalid program: "
    ^ String.concat "; " (List.map error_to_string errors)
  | Ok info ->
    Printf.sprintf
      "%d rule(s); IDB: %s; EDB: %s; %s%s%s"
      info.rule_count
      (String.concat ", " info.idb)
      (match info.edb with [] -> "(none)" | l -> String.concat ", " l)
      (if info.positive then "positive DATALOG" else "DATALOG with negation")
      (if info.uses_inequality then ", uses inequality" else "")
      ((if info.limit_count > 0 then
          Printf.sprintf ", %d limit predicate(s)" info.limit_count
        else "")
      ^
      if info.range_restricted then ""
      else ", has universe-ranging variables")
