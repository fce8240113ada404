(* The end-to-end benchmark.  Every timed operation runs in a fresh child
   process (this executable re-run as [e2e.exe child ...]) that makes the
   same library calls as the negdl CLI; the parent runs one child at a time
   and turns their reports into the metrics BENCHMARK.json declares.

     e2e.exe --workload W --seed N --seconds S --trace 0|1
         one run of one workload; the last stdout line is the JSON result
     e2e.exe run [--quick] [--seed N] [--trace] [--runs K]
         every workload, K runs each with seeds N..N+K-1, interleaved
         round-robin; writes a summary JSON under results/
     e2e.exe compare A.json B.json
         per (metric, workload): both medians and spreads, and a verdict
     e2e.exe selftest
         the quantile, spread and verdict arithmetic on fixed inputs *)

module type WORKLOAD = sig
  val name : string

  val run : Harness.ctx -> Harness.outcome list

  val child : string list -> unit

  val layer_metrics :
    get:(string -> float) -> Harness.outcome list -> (string * float) list
  (** Workload-specific per-layer metrics; [get] reads a generic one. *)
end

let workloads : (module WORKLOAD) list =
  [
    (module W_eval_distance);
    (module W_fixpoints_pisat);
    (module W_snapshot_cache);
    (module W_serve_stream);
  ]

let find_workload name =
  List.find_opt (fun (module W : WORKLOAD) -> W.name = name) workloads

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

type result = {
  attempted : int;
  failed : int;
  metrics : (Harness.metric * float) list;
}

(* The declared metrics of the mode, in declaration order.  A computed
   metric that BENCHMARK.json does not declare is an error (it catches a
   misspelt name); a declared per-layer metric the workload never touched
   is 0, and a missing end-to-end metric is an error unless operations
   failed. *)
let declared_metrics (spec : Harness.spec) ~trace ~failed computed =
  let declared = if trace then spec.per_layer else spec.end_to_end in
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun (m : Harness.metric) -> m.m_name = n) declared) then
        fail "metric %s is not declared in %s" n Harness.spec_file)
    computed;
  List.map
    (fun (m : Harness.metric) ->
      match List.assoc_opt m.m_name computed with
      | Some v -> (m, v)
      | None when trace || failed > 0 -> (m, 0.0)
      | None -> fail "metric %s was not measured" m.m_name)
    declared

let run_workload spec (module W : WORKLOAD) ~seed ~seconds ~trace ~mode =
  Harness.mkdir_p Harness.results_dir;
  let stamp = Harness.stamp () in
  let work = Filename.concat Harness.results_dir ("work-" ^ stamp) in
  Harness.mkdir_p work;
  let ctx = { Harness.seed; seconds; trace; work } in
  let outcomes =
    Fun.protect ~finally:(fun () -> Harness.remove_tree work) (fun () -> W.run ctx)
  in
  let raw =
    Filename.concat Harness.results_dir
      (Printf.sprintf "%s-%s-seed%d%s.jsonl" stamp W.name seed
         (if trace then "-trace" else ""))
  in
  let oc = open_out raw in
  output_string oc
    (Harness.Json.to_string
       (Harness.Json.Obj
          [
            ("header", Harness.header ~seed ~mode ~trace ~seconds);
            ("workload", Harness.Json.Str W.name);
          ]));
  output_char oc '\n';
  List.iter
    (fun o ->
      output_string oc (Harness.Json.to_string (Harness.outcome_json o));
      output_char oc '\n')
    outcomes;
  close_out oc;
  List.iter
    (fun (o : Harness.outcome) ->
      if not o.ok then Printf.eprintf "e2e: %s %s failed: %s\n%!" W.name o.kind o.msg)
    outcomes;
  let attempted = List.fold_left (fun acc (o : Harness.outcome) -> acc + o.attempted) 0 outcomes in
  let failed = List.fold_left (fun acc (o : Harness.outcome) -> acc + o.failed) 0 outcomes in
  let computed =
    if trace then
      let generic = Harness.per_layer outcomes in
      let get n = Option.value ~default:0.0 (List.assoc_opt n generic) in
      let derived = W.layer_metrics ~get outcomes in
      List.filter (fun (n, _) -> not (List.mem_assoc n derived)) generic @ derived
    else Harness.end_to_end outcomes
  in
  { attempted; failed; metrics = declared_metrics spec ~trace ~failed computed }

(* --- one run of one workload, one JSON line ------------------------------------ *)

(* Parses [args] against [specs], exiting with the usage on an error. *)
let parse_args specs usage args =
  let anon a = raise (Arg.Bad ("unexpected argument " ^ a)) in
  try Arg.parse_argv ~current:(ref 0) (Array.of_list ("e2e.exe" :: args)) specs anon usage
  with Arg.Bad msg | Arg.Help msg ->
    prerr_string msg;
    exit 2

let workload_named n =
  match find_workload n with Some w -> w | None -> fail "unknown workload %s" n

let single_run spec args =
  let workload = ref "" and seed = ref 1 and seconds = ref 0 and trace = ref (-1) in
  parse_args
    [
      ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    "usage: e2e.exe --workload W --seed N --seconds S --trace 0|1" args;
  let w = workload_named !workload in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then
    fail "--seconds must be positive and --trace 0 or 1";
  let r =
    run_workload spec w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
      ~mode:"single"
  in
  let open Harness.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (r.failed = 0));
            ("attempted", Num (float_of_int r.attempted));
            ("failed", Num (float_of_int r.failed));
            ( "metrics",
              Obj
                (List.map
                   (fun ((m : Harness.metric), v) ->
                     (m.m_name, Obj [ ("value", Num v); ("unit", Str m.m_unit) ]))
                   r.metrics) );
          ]));
  exit (if r.failed = 0 then 0 else 1)

(* --- run mode: every workload, several runs, one summary ---------------------- *)

let run_all spec args =
  let quick = ref false and seed = ref 1 and trace = ref false and runs = ref 1 in
  parse_args
    [
      ("--quick", Arg.Set quick, " 5 s per run");
      ("--seed", Arg.Set_int seed, "N first seed");
      ("--trace", Arg.Set trace, " per-layer metrics");
      ("--runs", Arg.Set_int runs, "K runs per workload");
    ]
    "usage: e2e.exe run [options]" args;
  let quick = !quick and seed = !seed and trace = !trace and runs = !runs in
  let seconds = if quick then 5.0 else float_of_int spec.Harness.run_seconds in
  let mode = if quick then "quick" else "full" in
  (* Round-robin: run r of every workload before run r+1 of any, so slow
     drift of the host falls on all workloads alike. *)
  let results = Hashtbl.create 16 in
  for r = 0 to runs - 1 do
    List.iter
      (fun (module W : WORKLOAD) ->
        let res = run_workload spec (module W) ~seed:(seed + r) ~seconds ~trace ~mode in
        Printf.printf "%-16s seed %-4d attempted %-6d failed %d\n%!" W.name (seed + r)
          res.attempted res.failed;
        List.iter
          (fun ((m : Harness.metric), v) -> Printf.printf "  %-34s %14.6g %s\n" m.m_name v m.m_unit)
          res.metrics;
        Hashtbl.replace results W.name
          (res :: Option.value ~default:[] (Hashtbl.find_opt results W.name)))
      workloads
  done;
  let open Harness.Json in
  let summary =
    Obj
      [
        ("header", Harness.header ~seed ~mode ~trace ~seconds);
        ("runs", Num (float_of_int runs));
        ( "workloads",
          Obj
            (List.map
               (fun (module W : WORKLOAD) ->
                 let rs = List.rev (Hashtbl.find results W.name) in
                 let sum f = Num (float_of_int (List.fold_left (fun a r -> a + f r) 0 rs)) in
                 ( W.name,
                   Obj
                     [
                       ("attempted", sum (fun r -> r.attempted));
                       ("failed", sum (fun r -> r.failed));
                       ( "metrics",
                         Obj
                           (List.map
                              (fun ((m : Harness.metric), _) ->
                                ( m.m_name,
                                  Obj
                                    [
                                      ("unit", Str m.m_unit);
                                      ( "values",
                                        Arr
                                          (List.map
                                             (fun r -> Num (List.assq m r.metrics))
                                             rs) );
                                    ] ))
                              (List.hd rs).metrics) );
                     ] ))
               workloads) );
      ]
  in
  let file =
    Filename.concat Harness.results_dir
      (Printf.sprintf "summary-%s%s.json" (Harness.stamp ()) (if trace then "-trace" else ""))
  in
  let oc = open_out file in
  output_string oc (to_string summary);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n%-16s %-34s %14s %8s %s\n" "workload" "metric" "median" "spread" "unit";
  List.iter
    (fun (module W : WORKLOAD) ->
      let rs = Hashtbl.find results W.name in
      List.iter
        (fun ((m : Harness.metric), _) ->
          let vs = List.map (fun r -> List.assq m r.metrics) rs in
          Printf.printf "%-16s %-34s %14.6g %7.1f%% %s\n" W.name m.m_name (Harness.median vs)
            (100.0 *. Harness.spread vs) m.m_unit)
        (List.hd rs).metrics)
    workloads;
  Printf.printf "summary: %s\n" file;
  let failed =
    Hashtbl.fold (fun _ rs acc -> List.fold_left (fun a r -> a + r.failed) acc rs) results 0
  in
  exit (if failed = 0 then 0 else 1)

(* --- compare ------------------------------------------------------------------- *)

let compare_summaries spec a_file b_file =
  let load f =
    try Harness.Json.parse (Harness.read_text f)
    with Harness.Json.Syntax msg | Sys_error msg -> fail "%s: %s" f msg
  in
  let a = load a_file and b = load b_file in
  let values summary w m =
    let open Harness.Json in
    let metric = member m (member "metrics" (member w (member "workloads" summary))) in
    List.map to_num (to_list (member "values" metric))
  in
  Printf.printf "%-16s %-14s %12s %8s %12s %8s %8s  %s\n" "workload" "metric" "median A"
    "spread A" "median B" "spread B" "change" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m : Harness.metric) ->
          match (values a w m.m_name, values b w m.m_name, m.m_bound) with
          | (_ :: _ as va), (_ :: _ as vb), Some bound ->
            let v = Harness.verdict ~better:m.m_better ~bound va vb in
            if v = Harness.Worse then incr worse;
            let ma = Harness.median va and mb = Harness.median vb in
            Printf.printf "%-16s %-14s %12.6g %7.1f%% %12.6g %7.1f%% %+7.1f%%  %s (bound %g)\n" w
              m.m_name ma (100.0 *. Harness.spread va) mb (100.0 *. Harness.spread vb)
              (100.0 *. Harness.ratio (mb -. ma) ma)
              (Harness.verdict_to_string v) bound
          | _ -> ())
        spec.Harness.end_to_end)
    spec.Harness.workload_names;
  exit (if !worse = 0 then 0 else 1)

(* --- self-test ------------------------------------------------------------------ *)

let selftest () =
  let errors = ref 0 in
  let close name got want =
    if Float.abs (got -. want) > 1e-9 then begin
      incr errors;
      Printf.eprintf "selftest %s: got %.17g, want %.17g\n" name got want
    end
  in
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Harness.quartiles ten in
  close "q1" q1 2.75;
  close "q3" q3 8.25;
  close "median" (Harness.median ten) 5.5;
  close "spread" (Harness.spread ten) 1.0;
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  let q1, q3 = Harness.quartiles [ 3.0; 1.0; 2.0 ] in
  close "q1 of 3" q1 1.0;
  close "q3 of 3" q3 3.0;
  close "p90" (Harness.percentile [ 1.0; 2.0; 3.0; 4.0 ] 0.9) 3.7;
  let steady base = List.map (fun d -> base +. d) [ -0.2; -0.1; 0.0; 0.1; 0.2 ] in
  let check name got want =
    if got <> want then begin
      incr errors;
      Printf.eprintf "selftest %s: got %s, want %s\n" name
        (Harness.verdict_to_string got) (Harness.verdict_to_string want)
    end
  in
  let v = Harness.verdict ~bound:0.1 in
  check "same" (v ~better:Harness.Lower (steady 100.0) (steady 105.0)) Harness.Same;
  check "better" (v ~better:Harness.Lower (steady 100.0) (steady 80.0)) Harness.Better;
  check "worse" (v ~better:Harness.Lower (steady 100.0) (steady 120.0)) Harness.Worse;
  check "higher" (v ~better:Harness.Higher (steady 100.0) (steady 120.0)) Harness.Better;
  check "unresolved" (v ~better:Harness.Lower ten (steady 5.5)) Harness.Unresolved;
  let j = {|{"a": [1, 2.5, -3e-2], "b": {"c": "x\"y"}, "d": true, "e": null}|} in
  let parsed = Harness.Json.parse j in
  if Harness.Json.parse (Harness.Json.to_string parsed) <> parsed then begin
    incr errors;
    prerr_endline "selftest: JSON round trip differs"
  end;
  exit (if !errors = 0 then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "child"; "calib" ] ->
    Harness.Child.start ~trace:false;
    Harness.Child.ready ();
    Harness.Child.op_begin ();
    Calib.run ();
    Harness.Child.op_end ();
    Harness.Child.check true "";
    Harness.Child.finish ()
  | "child" :: rest -> (
    let trace, rest = match rest with "--trace" :: r -> (true, r) | r -> (false, r) in
    match rest with
    | w :: args -> (
      match find_workload w with
      | Some (module W) ->
        Harness.Child.start ~trace;
        W.child args;
        Harness.Child.finish ()
      | None -> Harness.Child.die ("unknown workload " ^ w))
    | [] -> Harness.Child.die "usage: e2e.exe child [--trace] WORKLOAD ARGS...")
  | [ "selftest" ] -> selftest ()
  | args -> (
    let spec =
      try Harness.load_spec ()
      with Sys_error msg | Harness.Json.Syntax msg -> fail "%s: %s" Harness.spec_file msg
    in
    match args with
    | "run" :: rest -> run_all spec rest
    | [ "compare"; a; b ] -> compare_summaries spec a b
    | _ -> single_run spec args)
