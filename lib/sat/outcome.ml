type reason =
  | Conflict_budget
  | Node_budget
  | Time_budget

type t =
  | Sat of bool array
  | Unsat
  | Unknown of reason

type count =
  | Exact of int
  | Lower_bound of int * reason

let reason_to_string = function
  | Conflict_budget -> "conflict budget exhausted"
  | Node_budget -> "node budget exhausted"
  | Time_budget -> "time budget exhausted"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

let pp ppf = function
  | Sat _ -> Format.pp_print_string ppf "sat"
  | Unsat -> Format.pp_print_string ppf "unsat"
  | Unknown r -> Format.fprintf ppf "unknown (%a)" pp_reason r

let pp_count ppf = function
  | Exact n -> Format.pp_print_int ppf n
  | Lower_bound (n, r) -> Format.fprintf ppf ">= %d (%a)" n pp_reason r

let count_value = function
  | Exact n -> n
  | Lower_bound (n, _) -> n

let is_exact = function
  | Exact _ -> true
  | Lower_bound _ -> false
