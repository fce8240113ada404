type t = {
  num_vars : int;
  rev_clauses : int list list;  (* reversed insertion order *)
  count : int;
}

let create n =
  if n < 0 then invalid_arg "Cnf.create: negative variable count";
  { num_vars = n; rev_clauses = []; count = 0 }

let num_vars cnf = cnf.num_vars

let num_clauses cnf = cnf.count

let check_literal cnf l =
  let v = abs l in
  if l = 0 || v > cnf.num_vars then
    invalid_arg (Printf.sprintf "Cnf: literal %d out of range 1..%d" l cnf.num_vars)

(* [sorted] holds each literal once, so ordered by variable a
   complementary pair is adjacent. *)
let rec has_complementary_neighbours = function
  | a :: (b :: _ as rest) -> a = -b || has_complementary_neighbours rest
  | [] | [ _ ] -> false

let normalise_clause lits =
  let sorted = List.sort_uniq Int.compare lits in
  let by_var = List.sort (fun a b -> Int.compare (abs a) (abs b)) sorted in
  if has_complementary_neighbours by_var then None else Some sorted

let add_clause cnf lits =
  List.iter (check_literal cnf) lits;
  match normalise_clause lits with
  | None -> cnf
  | Some c ->
    { cnf with rev_clauses = c :: cnf.rev_clauses; count = cnf.count + 1 }

let of_list n clauses = List.fold_left add_clause (create n) clauses

let clauses cnf = List.rev cnf.rev_clauses

let eval_clause assign c =
  List.exists (fun l -> if l > 0 then assign l else not (assign (-l))) c

let eval cnf assign = List.for_all (eval_clause assign) (clauses cnf)

let map_vars f cnf n' =
  let renamed =
    List.map
      (List.map (fun l -> if l > 0 then f l else - (f (-l))))
      (clauses cnf)
  in
  of_list n' renamed

let pp ppf cnf =
  let pp_clause ppf c =
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
         (fun ppf l ->
           if l > 0 then Format.fprintf ppf "x%d" l
           else Format.fprintf ppf "~x%d" (-l)))
      c
  in
  Format.fprintf ppf "@[<hov>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ & ")
       pp_clause)
    (clauses cnf)
