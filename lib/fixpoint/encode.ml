module Ground = Evallib.Ground
module Cnf = Satlib.Cnf

type t = {
  ground : Ground.t;
  cnf : Cnf.t;
}

(* An atom's variable is its id: the program atoms, then the aux atoms.
   Instance variables follow, numbered atom by atom. *)
let build g =
  let atoms = Ground.atom_count g + Ground.aux_count g in
  (* An aux atom with an empty definition always holds.  The instances
     that read it leave it out: the unfactored grounding reads no atom
     there, and the aux atom's variable would tie them into one component
     that the census then enumerates whole. *)
  let holds = Array.make (atoms + 1) false in
  for a = Ground.atom_count g + 1 to atoms do
    holds.(a) <-
      Array.exists (fun i -> Ground.body g i = [||]) (Ground.instances_of g a)
  done;
  let clauses = ref [] in
  let add c = clauses := c :: !clauses in
  let next_instance = ref (atoms + 1) in
  for p = 1 to atoms do
    let body_vars =
      Array.map
        (fun i ->
          let b = !next_instance in
          incr next_instance;
          let lits =
            List.filter
              (fun l -> not holds.(abs l))
              (Array.to_list (Ground.body g i))
          in
          (* b <-> conjunction of lits *)
          List.iter (fun l -> add [ -b; l ]) lits;
          add (b :: List.map (fun l -> -l) lits);
          b)
        (Ground.instances_of g p)
      |> Array.to_list
    in
    (* p <-> disjunction of the instance variables *)
    add (-p :: body_vars);
    List.iter (fun b -> add [ p; -b ]) body_vars
  done;
  { ground = g; cnf = Cnf.of_list (!next_instance - 1) (List.rev !clauses) }

let cnf t = t.cnf

let atom_variables t = List.init (Ground.atom_count t.ground) (fun i -> i + 1)

let idb_of_model t model = Ground.idb_of_valuation t.ground model

let idb_of_true_vars t vars =
  let v = Array.make (Ground.atom_count t.ground + 1) false in
  List.iter (fun x -> if x >= 1 && x < Array.length v then v.(x) <- true) vars;
  Ground.idb_of_valuation t.ground v
