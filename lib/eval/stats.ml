module Plan = Planlib.Plan

type t = {
  mutable iterations : int;
  mutable rule_applications : int;
  mutable tuples_derived : int;
  mutable tuples_allocated : int;
  mutable bulk_builds : int;
  plan : Plan.counters;
  mutable stages : (string * float) list;
  mutable wall : float;
  mutable extra : (string * int) list;
}

let create () =
  {
    iterations = 0;
    rule_applications = 0;
    tuples_derived = 0;
    tuples_allocated = 0;
    bulk_builds = 0;
    plan = Plan.counters ();
    stages = [];
    wall = 0.0;
    extra = [];
  }

(* [pp] renders [List.rev extra], so prepending a fresh counter keeps the
   report in first-use order. *)
let bump_extra t name n =
  if List.mem_assoc name t.extra then
    t.extra <-
      List.map
        (fun (k, v) -> if String.equal k name then (k, v + n) else (k, v))
        t.extra
  else t.extra <- (name, n) :: t.extra

let record_stage t name dt =
  t.stages <- (name, dt) :: t.stages;
  t.wall <- t.wall +. dt

let timed stats name f =
  match stats with
  | None -> f ()
  | Some t ->
    let start = Unix.gettimeofday () in
    let result = f () in
    record_stage t name (Unix.gettimeofday () -. start);
    result

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "iterations:        %d@," t.iterations;
  Format.fprintf ppf "rule applications: %d@," t.rule_applications;
  Format.fprintf ppf "tuples derived:    %d@," t.tuples_derived;
  Format.fprintf ppf "tuples allocated:  %d@," t.tuples_allocated;
  Format.fprintf ppf "bulk builds:       %d@," t.bulk_builds;
  Format.fprintf ppf "plan compiles:     %d@," t.plan.Plan.plan_compiles;
  Format.fprintf ppf "plan cache hits:   %d@," t.plan.Plan.plan_cache_hits;
  Format.fprintf ppf "index hits:        %d@," t.plan.Plan.index_hits;
  Format.fprintf ppf "index builds:      %d@," t.plan.Plan.index_builds;
  Format.fprintf ppf "full scans:        %d@," t.plan.Plan.full_scans;
  Format.fprintf ppf "bucket probes:     %d@," t.plan.Plan.bucket_probes;
  Format.fprintf ppf "enumerations:      %d@," t.plan.Plan.enumerations;
  Format.fprintf ppf "skipped keys:      %d@," t.plan.Plan.keys_skipped;
  (* The store's counters are process-cumulative: one-shot CLI runs
     dominate their process, so the totals effectively are the run's, and
     the serve loop reports cumulative counters, like its other totals.
     The block appears only when something was measured. *)
  let c = Relalg.Store.contention () in
  if c.Relalg.Store.cache_hits + c.cache_misses > 0 then begin
    Format.fprintf ppf "intern hits:       %d@," c.cache_hits;
    Format.fprintf ppf "intern misses:     %d@," c.cache_misses
  end;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-18s %d@," (name ^ ":") v)
    (List.rev t.extra);
  List.iter
    (fun (name, dt) -> Format.fprintf ppf "stage %-12s %.6fs@," name dt)
    (List.rev t.stages);
  Format.fprintf ppf "wall time:         %.6fs@]" t.wall
