module Ground = Evallib.Ground
module Idb = Evallib.Idb

(* The fixpoints as valuations over ids, in subset-enumeration order: bit
   i of the mask is the atom of id i + 1. *)
let fixpoints ?limit g =
  let n = Ground.atom_count g in
  if n > 24 then
    invalid_arg
      (Printf.sprintf
         "Brute: %d ground atoms is too many for exhaustive search" n);
  let capped found =
    match limit with
    | Some l -> found >= l
    | None -> false
  in
  let rec go mask found acc =
    if mask >= 1 lsl n || capped found then List.rev acc
    else
      let v = Ground.empty_valuation g in
      for i = 0 to n - 1 do
        v.(i + 1) <- (mask lsr i) land 1 = 1
      done;
      if Ground.same_atoms g (Ground.consequences g ~pos:v ~neg:v) v then
        go (mask + 1) (found + 1) (v :: acc)
      else go (mask + 1) found acc
  in
  go 0 0 []

let all_fixpoints ?limit g =
  List.map (Ground.idb_of_valuation g) (fixpoints ?limit g)

let count g = List.length (fixpoints g)

let exists g = fixpoints ~limit:1 g <> []

let has_unique g = List.length (fixpoints ~limit:2 g) = 1

let least g =
  match fixpoints g with
  | [] -> None
  | first :: rest ->
    let meet = List.fold_left (Array.map2 ( && )) first rest in
    if Ground.same_atoms g (Ground.consequences g ~pos:meet ~neg:meet) meet
    then
      Some (Ground.idb_of_valuation g meet)
    else None

let minimal_fixpoints g =
  let fps = all_fixpoints g in
  List.filter
    (fun s ->
      not
        (List.exists (fun s' -> (not (Idb.equal s s')) && Idb.subset s' s) fps))
    fps
