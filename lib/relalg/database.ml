module SymSet = Set.Make (Symbol)
module SMap = Map.Make (String)

type t = {
  universe : SymSet.t;
  relations : Relation.t SMap.t;
}

let create ~universe =
  { universe = SymSet.of_list universe; relations = SMap.empty }

let create_strings names = create ~universe:(List.map Symbol.intern names)

let create_ints n =
  create ~universe:(List.init n Symbol.of_int)

let universe db = SymSet.elements db.universe

let universe_size db = SymSet.cardinal db.universe

let in_universe s db = SymSet.mem s db.universe

let add_universe syms db =
  { db with universe = SymSet.union db.universe (SymSet.of_list syms) }

let tuple_in_universe db t =
  List.for_all (fun s -> SymSet.mem s db.universe) (Tuple.to_list t)

let set_relation name r db =
  Relation.iter
    (fun t ->
      if not (tuple_in_universe db t) then
        invalid_arg
          (Printf.sprintf
             "Database.set_relation: tuple %s of %s uses a constant outside \
              the universe"
             (Tuple.to_string t) name))
    r;
  { db with relations = SMap.add name r db.relations }

let relation name db = SMap.find_opt name db.relations

(* [SMap.find] rather than [relation]: every plan run resolves its sources
   through here, and must not allocate an option per source. *)
let relation_or_empty ~arity name db =
  match SMap.find name db.relations with
  | r -> r
  | exception Not_found -> Relation.empty arity

let add_fact name t db =
  if not (tuple_in_universe db t) then
    invalid_arg
      (Printf.sprintf
         "Database.add_fact: tuple %s of %s uses a constant outside the \
          universe"
         (Tuple.to_string t) name);
  let r = relation_or_empty ~arity:(Tuple.arity t) name db in
  { db with relations = SMap.add name (Relation.add t r) db.relations }

(* Removal checks nothing: taking a tuple away cannot bring in a constant
   outside the universe. *)
let remove_fact name t db =
  match relation name db with
  | Some r ->
    { db with relations = SMap.add name (Relation.remove t r) db.relations }
  | None -> db

let relations db = SMap.bindings db.relations

let schema db =
  SMap.fold (fun n r s -> Schema.add n (Relation.arity r) s) db.relations
    Schema.empty

let mem_fact name t db =
  match relation name db with
  | Some r -> Relation.arity r = Tuple.arity t && Relation.mem t r
  | None -> false

let remove_relation name db =
  { db with relations = SMap.remove name db.relations }

let restrict names db =
  let wanted = List.sort_uniq String.compare names in
  let relations = SMap.filter (fun n _ -> List.mem n wanted) db.relations in
  { db with relations }

let merge d1 d2 =
  let universe = SymSet.union d1.universe d2.universe in
  let relations =
    SMap.union
      (fun _name r1 r2 ->
        if Relation.arity r1 <> Relation.arity r2 then
          invalid_arg "Database.merge: conflicting arities"
        else Some (Relation.union r1 r2))
      d1.relations d2.relations
  in
  { universe; relations }

let equal d1 d2 =
  SymSet.equal d1.universe d2.universe
  && SMap.equal Relation.equal d1.relations d2.relations

let pp ppf db =
  Format.fprintf ppf "@[<v>universe: {%a}@,%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Symbol.pp)
    (universe db)
    (Format.pp_print_list
       ~pp_sep:Format.pp_print_cut
       (fun ppf (n, r) -> Format.fprintf ppf "%s = %a" n Relation.pp r))
    (relations db)

let to_string db = Format.asprintf "%a" pp db

let of_facts ~universe facts =
  let db = create_strings universe in
  let db =
    add_universe
      (List.concat_map (fun (_, args) -> List.map Symbol.intern args) facts)
      db
  in
  List.fold_left
    (fun db (name, args) -> add_fact name (Tuple.of_strings args) db)
    db facts

(* --- textual fact format ------------------------------------------------ *)

let strip_comments s =
  let buf = Buffer.create (String.length s) in
  let in_comment = ref false in
  String.iter
    (fun c ->
      if c = '%' then in_comment := true
      else if c = '\n' then begin
        in_comment := false;
        Buffer.add_char buf '\n'
      end
      else if not !in_comment then Buffer.add_char buf c)
    s;
  Buffer.contents buf

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-'

let count_newlines s i j =
  let n = ref 0 in
  for k = i to j - 1 do
    if s.[k] = '\n' then incr n
  done;
  !n

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The index of the first character from [i] on that [String.trim]
   keeps, or the length when it keeps none. *)
let rec first_nonblank s i =
  if i < String.length s && is_blank s.[i] then first_nonblank s (i + 1)
  else i

let parse_args inside =
  String.split_on_char ',' inside
  |> List.map String.trim

let valid_constant name =
  name <> "" && String.for_all is_ident_char name

exception Parse_error of string

(* A predicate keeps the arity of its first fact. *)
let add_parsed_fact name t db =
  (match SMap.find name db.relations with
  | r when Relation.arity r <> Tuple.arity t ->
    raise
      (Parse_error
         (Printf.sprintf
            "arity mismatch: %s%s has %d argument(s) but %s has arity %d" name
            (Tuple.to_string t) (Tuple.arity t) name (Relation.arity r)))
  | _ | (exception Not_found) -> ());
  add_fact name t db

let parse_statement db stmt =
  if String.length stmt >= 9 && String.sub stmt 0 9 = "#universe" then begin
    let rest = String.sub stmt 9 (String.length stmt - 9) in
    let names =
      String.split_on_char ' ' rest
      |> List.concat_map (String.split_on_char '\t')
      |> List.concat_map (String.split_on_char '\n')
      |> List.map String.trim
      |> List.filter (fun n -> n <> "")
    in
    List.iter
      (fun n ->
        if not (valid_constant n) then
          raise (Parse_error (Printf.sprintf "bad universe element %S" n)))
      names;
    add_universe (List.map Symbol.intern names) db
  end
  else
    match String.index_opt stmt '(' with
    | None ->
      (* A 0-ary fact: just a predicate name. *)
      if valid_constant stmt then add_parsed_fact stmt Tuple.empty db
      else raise (Parse_error (Printf.sprintf "malformed statement %S" stmt))
    | Some lp ->
      let name = String.trim (String.sub stmt 0 lp) in
      if not (valid_constant name) then
        raise (Parse_error (Printf.sprintf "bad predicate name %S" name));
      if stmt.[String.length stmt - 1] <> ')' then
        raise (Parse_error (Printf.sprintf "missing ')' in %S" stmt));
      let inside = String.sub stmt (lp + 1) (String.length stmt - lp - 2) in
      let args = parse_args inside in
      List.iter
        (fun a ->
          if not (valid_constant a) then
            raise
              (Parse_error (Printf.sprintf "bad constant %S in %S" a stmt)))
        args;
      let db = add_universe (List.map Symbol.intern args) db in
      add_parsed_fact name (Tuple.of_strings args) db

(* Statements are the '.'-separated pieces, each parsed as it comes.
   [line] is the 1-based line on which [piece] begins; its statement
   starts on [line] plus the newlines before its first non-blank
   character.  Comments were stripped up to their newlines, so the lines
   are the source's. *)
let parse text =
  let rec go db line = function
    | [] -> Ok db
    | piece :: rest -> (
      let n = String.length piece in
      let first = first_nonblank piece 0 in
      let next = line + count_newlines piece 0 n in
      if first = n then go db next rest
      else
        match parse_statement db (String.trim piece) with
        | db -> go db next rest
        | exception Parse_error msg ->
          Error
            (Printf.sprintf "line %d: %s"
               (line + count_newlines piece 0 first)
               msg))
  in
  go (create ~universe:[]) 1 (String.split_on_char '.' (strip_comments text))

let parse_exn text =
  match parse text with
  | Ok db -> db
  | Error msg -> failwith ("Database.parse: " ^ msg)
