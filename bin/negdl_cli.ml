(* The negdl command-line interface.

   Subcommands:
     eval      — evaluate a program on a database under a chosen semantics
     fixpoints — run the Section 3 fixpoint query suite (SAT-backed)
     explain   — print the physical plans a program compiles to
     serve     — long-lived incremental materialization (insert/delete/query)
     snapshot  — materialise a model and write a binary snapshot
     restore   — load and print a snapshot without re-evaluating
     stratify  — show the stratification (or why there is none)
     check     — static well-formedness report
     ground    — print the ground (propositional) program

   Programs use the concrete DATALOG-not syntax (t(X) :- e(Y, X), !t(Y).),
   databases the fact format (edge(a, b).  #universe c d.). *)

open Cmdliner

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with Sys_error msg -> Error msg

let load_program path =
  match read_file path with
  | Error msg -> Error msg
  | Ok text -> (
    match Negdl.parse_program text with
    | Ok p -> Ok p
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let load_database path =
  match read_file path with
  | Error msg -> Error msg
  | Ok text -> (
    match Negdl.parse_database text with
    | Ok db -> Ok db
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let or_die = function
  | Ok v -> v
  | Error msg ->
    Format.eprintf "negdl: %s@." msg;
    exit 1

(* A program runs only on a database that agrees with it on the arity of
   every EDB predicate it reads. *)
let load_database_for program path =
  let db = or_die (load_database path) in
  match Negdl.Check.validate_database program db with
  | Ok () -> db
  | Error e ->
    or_die
      (Error (Printf.sprintf "%s: %s" path (Negdl.Check.error_to_string e)))

let print_idb ?(header = "") idb =
  if header <> "" then Format.printf "%s@." header;
  List.iter
    (fun (name, r) ->
      Format.printf "%s/%d (%d tuples) = %a@." name
        (Negdl.Relation.arity r)
        (Negdl.Relation.cardinal r)
        Negdl.Relation.pp r)
    (Negdl.Idb.bindings idb)

(* --- common arguments ----------------------------------------------------- *)

let program_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PROGRAM" ~doc:"Datalog program file.")

let database_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"DATABASE" ~doc:"Database (facts) file.")

let explain_arg =
  Arg.(
    value
    & flag
    & info [ "explain" ]
        ~doc:
          "After the run, print every compiled plan with estimated and \
           actual per-step cardinalities.")

(* The predicates that evolve in a saturation of [program] when every IDB
   predicate does, as under the inflationary semantics: a plan that may
   keep its keys for such a saturation keeps them in every other one. *)
let idb_evolving program =
  match Negdl.Ast.idb_schema program with
  | Ok schema -> fun pred -> Negdl.Schema.mem pred schema
  | Error msg -> or_die (Error msg)

let print_plans ?evolving cache program =
  List.iter
    (fun plan -> Format.printf "%a@." (Negdl.Plan.pp ?evolving) plan)
    (Negdl.Plan_cache.program_plans cache program)

let stats_arg =
  Arg.(
    value
    & flag
    & info [ "stats" ]
        ~doc:
          "Print evaluation statistics (iterations, rule applications, \
           tuples derived, index hits, stage timings) to stderr.")

(* --- snapshot helpers ------------------------------------------------------ *)

let snap_die = function
  | Ok v -> v
  | Error e -> or_die (Error (Negdl.Snapshot.error_to_string e))

let idb_of_bindings program bindings =
  List.fold_left
    (fun idb (name, rel) -> Negdl.Idb.set idb name rel)
    (Negdl.Idb.of_program program) bindings

(* Capture the run's model and write it; dies on failure (an unwritable
   snapshot the user asked for should not pass silently). *)
let save_snapshot ~program ~semantics ~db ~facts ~unknown file =
  let unknown =
    match unknown with None -> [] | Some u -> Negdl.Idb.bindings u
  in
  let image =
    snap_die
      (Negdl.Snapshot.capture ~unknown ~program ~semantics ~db
         (Negdl.Idb.bindings facts))
  in
  snap_die (Negdl.Snapshot.write_file file image)

(* --- eval ------------------------------------------------------------------ *)

let eval_cmd =
  let semantics_arg =
    let parse s =
      match Negdl.semantics_of_string s with
      | Ok v -> Ok v
      | Error msg -> Error (`Msg msg)
    in
    let print ppf s = Format.pp_print_string ppf (Negdl.semantics_to_string s) in
    Arg.(
      value
      & opt (conv ~docv:"SEMANTICS" (parse, print)) Negdl.Semantics_inflationary
      & info [ "s"; "semantics" ] ~docv:"SEMANTICS"
          ~doc:
            "One of $(b,inflationary) (default), $(b,stratified), \
             $(b,well-founded), $(b,kripke-kleene), $(b,least).")
  in
  let pred_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "pred" ] ~docv:"PRED"
          ~doc:"Print only this predicate (e.g. the program's carrier).")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Model cache: when $(docv) holds a fresh snapshot (same \
             program, semantics and EDB), load the materialised model from \
             it instead of evaluating; otherwise evaluate and (over)write \
             $(docv).  A corrupt or version-skewed file is a hard error \
             (fail closed), a merely stale one is re-evaluated.")
  in
  let run program_path db_path semantics explain stats pred snapshot_file =
    let program = or_die (load_program program_path) in
    let db = load_database_for program db_path in
    let stats = if stats then Some (Negdl.Stats.create ()) else None in
    let plan_cache =
      if explain then Some (Negdl.Plan_cache.create ()) else None
    in
    let semantics_name = Negdl.semantics_to_string semantics in
    let evaluate_and_save () =
      let result =
        or_die (Negdl.run ?plan_cache ?stats semantics program db)
      in
      (match snapshot_file with
      | None -> ()
      | Some file ->
        let bytes =
          save_snapshot ~program ~semantics:semantics_name ~db
            ~facts:result.Negdl.facts ~unknown:result.Negdl.unknown file
        in
        Format.eprintf "negdl: snapshot written to %s (%d bytes)@." file
          bytes);
      result
    in
    let result =
      match snapshot_file with
      | Some file when Sys.file_exists file -> (
        let image = snap_die (Negdl.Snapshot.read_file file) in
        let fresh =
          match
            Negdl.Snapshot.check_program image ~program
              ~semantics:semantics_name
          with
          | Error e ->
            Format.eprintf "negdl: %s; re-evaluating@."
              (Negdl.Snapshot.error_to_string e);
            false
          | Ok () ->
            image.Negdl.Snapshot.edb_digest = Negdl.Snapshot.database_digest db
            || begin
                 Format.eprintf
                   "negdl: snapshot is stale for this database; \
                    re-evaluating@.";
                 false
               end
        in
        if not fresh then evaluate_and_save ()
        else
          let r = snap_die (Negdl.Snapshot.restore image) in
          {
            Negdl.facts = idb_of_bindings program r.Negdl.Snapshot.r_idb;
            unknown =
              (match r.Negdl.Snapshot.r_unknown with
              | [] -> None
              | u -> Some (idb_of_bindings program u));
          })
      | _ -> evaluate_and_save ()
    in
    (match plan_cache with
    | Some cache -> print_plans ~evolving:(idb_evolving program) cache program
    | None -> ());
    (match pred with
    | None -> print_idb result.Negdl.facts
    | Some name -> (
      match
        List.assoc_opt name (Negdl.Idb.bindings result.Negdl.facts)
      with
      | Some r -> Format.printf "%a@." Negdl.Relation.pp r
      | None ->
        or_die (Error (Printf.sprintf "no IDB predicate %s" name))));
    (match result.Negdl.unknown with
    | Some unknown when pred = None ->
      print_idb ~header:"-- unknown (three-valued) --" unknown
    | _ -> ());
    match stats with
    | Some s ->
      s.Negdl.Stats.extra <-
        List.filter (fun (_, v) -> v <> 0) (Negdl.Sat_stats.snapshot ());
      Format.eprintf "%a@." Negdl.Stats.pp s
    | None -> ()
  in
  let doc = "evaluate a program on a database" in
  Cmd.v
    (Cmd.info "eval" ~doc)
    Term.(
      const run $ program_arg $ database_arg $ semantics_arg $ explain_arg
      $ stats_arg $ pred_arg $ snapshot_arg)

(* --- fixpoints ---------------------------------------------------------------- *)

let fixpoints_cmd =
  let limit_arg =
    Arg.(
      value
      & opt int 256
      & info [ "limit" ] ~docv:"N" ~doc:"Census cap (default 256).")
  in
  let enumerate_arg =
    Arg.(
      value & flag
      & info [ "enumerate" ] ~doc:"Print every fixpoint found (up to the cap).")
  in
  let sat_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sat-budget" ] ~docv:"CONFLICTS"
          ~doc:
            "Bound the existence SAT search to $(docv) CDCL conflicts.  \
             Exhaustion prints \"fixpoint exists: unknown (...)\" and skips \
             the dependent queries — the run still exits cleanly with status \
             0.")
  in
  let count_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "count-budget" ] ~docv:"NODES"
          ~doc:
            "Also run the exact #SAT census with a budget of $(docv) \
             counting nodes; prints \"exact census: N\", or a lower bound \
             when the budget runs out or the count does not fit in an \
             integer.")
  in
  let run program_path db_path explain limit enumerate sat_budget
      count_budget stats =
    Negdl.Sat_stats.reset ();
    let program = or_die (load_program program_path) in
    or_die (Negdl.Check.refuse_limits "fixpoint analysis" program);
    let db = load_database_for program db_path in
    let plan_cache =
      if explain then Some (Negdl.Plan_cache.create ()) else None
    in
    let report =
      Negdl.analyze_fixpoints ?plan_cache ~count_limit:limit
        ?sat_budget ?count_budget program db
    in
    Format.printf "ground atoms:    %d@." report.Negdl.ground_atoms;
    Format.printf "ground rules:    %d@." report.Negdl.ground_rules;
    (match report.Negdl.existence_unknown with
    | Some reason ->
      Format.printf "fixpoint exists: unknown (%s)@."
        (Negdl.Sat_outcome.reason_to_string reason)
    | None ->
      Format.printf "fixpoint exists: %b@." report.Negdl.has_fixpoint;
      (match report.Negdl.fixpoint_count with
      | Some n when n >= limit ->
        Format.printf "fixpoints:       >= %d (capped)@." n
      | Some n -> Format.printf "fixpoints:       %d@." n
      | None -> ());
      (match report.Negdl.exact_count with
      | Some c ->
        Format.printf "exact census:    %a@." Negdl.Sat_outcome.pp_count c
      | None -> ());
      Format.printf "unique:          %b@." report.Negdl.unique;
      (match report.Negdl.least with
      | Some least ->
        Format.printf "least fixpoint:  yes@.";
        print_idb ~header:"-- least fixpoint --" least
      | None -> Format.printf "least fixpoint:  no@.");
      if enumerate then begin
        let solver = Negdl.Fixpoints.prepare ?plan_cache program db in
        List.iteri
          (fun i fp ->
            Format.printf "-- fixpoint %d --@." (i + 1);
            print_idb fp)
          (Negdl.Fixpoints.enumerate ~limit solver)
      end
      else
        match report.Negdl.example with
        | Some fp when report.Negdl.has_fixpoint ->
          print_idb ~header:"-- example fixpoint --" fp
        | _ -> ());
    (match plan_cache with
    | Some cache -> print_plans cache program
    | None -> ());
    if stats then
      List.iter
        (fun (name, v) -> Format.eprintf "%-18s %d@." (name ^ ":") v)
        (List.filter (fun (_, v) -> v <> 0) (Negdl.Sat_stats.snapshot ()))
  in
  let doc = "decide existence / uniqueness / least fixpoints (Section 3)" in
  Cmd.v
    (Cmd.info "fixpoints" ~doc)
    Term.(
      const run $ program_arg $ database_arg $ explain_arg $ limit_arg
      $ enumerate_arg $ sat_budget_arg $ count_budget_arg
      $ stats_arg)

(* --- explain ----------------------------------------------------------------- *)

let explain_cmd =
  let database_opt_arg =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"DATABASE"
          ~doc:
            "Optional database (facts) file; its relation cardinalities \
             feed the cost model.  Without one, every relation is assumed \
             to hold 16 tuples over an 8-constant universe.")
  in
  let run program_path db_path =
    let program = or_die (load_program program_path) in
    let db = Option.map (load_database_for program) db_path in
    let schema =
      match Negdl.Ast.idb_schema program with
      | Ok s -> s
      | Error msg -> or_die (Error msg)
    in
    let evolving pred = Negdl.Schema.mem pred schema in
    let universe_size, sizes =
      match db with
      | None -> (8, fun _ _ -> 16)
      | Some db ->
        let u = max 1 (List.length (Negdl.Database.universe db)) in
        let src = Negdl.Engine.database_source db in
        ( u,
          fun (occ : Negdl.Plan.occurrence) arity ->
            (* EDB sizes come from the database; IDB relations (absent
               there) get a neutral universe-sized guess. *)
            if Negdl.Schema.mem occ.Negdl.Plan.pred schema then u
            else Negdl.Relation.cardinal (src.Negdl.Plan.find occ.pred arity)
        )
    in
    let limits =
      List.map
        (fun (l : Negdl.Ast.limit) -> (l.Negdl.Ast.limit_pred, (l.Negdl.Ast.kind, l.Negdl.Ast.column)))
        program.Negdl.Ast.limits
    in
    List.iter
      (fun rule ->
        let full = Negdl.Plan.compile ~limits ~sizes ~universe_size rule in
        Format.printf "%a@." (Negdl.Plan.pp ~evolving) full;
        List.iter
          (fun j ->
            let d =
              Negdl.Plan.compile ~limits ~variant:(Negdl.Plan.Delta j) ~sizes
                ~universe_size rule
            in
            Format.printf "%a@." (Negdl.Plan.pp ~evolving) d)
          (Negdl.Saturate.delta_positions ~schema rule))
      program.Negdl.Ast.rules
  in
  let doc = "print the physical plans a program compiles to" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles every rule and prints the resulting operator pipelines \
         with their estimated per-step cardinalities: the full plan first, \
         then one delta-specialized variant per positive occurrence of an \
         evolving (IDB) predicate — the plans semi-naive evaluation would \
         execute.  Estimates only: nothing is evaluated, so no actual row \
         counts are shown (use $(b,--explain) on $(b,eval) or \
         $(b,fixpoints) for those).";
    ]
  in
  Cmd.v
    (Cmd.info "explain" ~doc ~man)
    Term.(const run $ program_arg $ database_opt_arg)

(* --- query ------------------------------------------------------------------- *)

let query_cmd =
  let goal_arg =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"GOAL"
          ~doc:
            "Query atom, e.g. 's(v0, Y)' — constants lowercase, variables \
             uppercase.")
  in
  let run program_path db_path goal =
    let program = or_die (load_program program_path) in
    let db = load_database_for program db_path in
    let goal_atom =
      match Negdl.Parser.parse_rule (goal ^ ".") with
      | Ok rule when rule.Negdl.Ast.body = [] -> rule.Negdl.Ast.head
      | Ok _ -> or_die (Error "the goal must be a single atom")
      | Error msg -> or_die (Error msg)
    in
    match Negdl.Query.answer program db ~query:goal_atom with
    | Error msg -> or_die (Error msg)
    | Ok answers ->
      Format.printf "%a@." Negdl.Relation.pp answers;
      Format.printf "%% %d answer(s)@." (Negdl.Relation.cardinal answers)
  in
  let doc = "answer a goal on a positive program via magic sets" in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(const run $ program_arg $ database_arg $ goal_arg)

(* --- serve ------------------------------------------------------------------ *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket at $(docv) instead of stdin: \
             clients connect (one at a time) and speak the same line \
             protocol; $(b,quit) ends one client's session, $(b,shutdown) \
             stops the server.")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Warm restart: when $(docv) exists, rebuild the serving state \
             from it instead of saturating ($(i,DATABASE) is not read); any \
             problem with the file — corruption, version skew, a different \
             program — is a hard error.  When $(docv) does not exist, \
             materialise normally and checkpoint to it before serving.")
  in
  let run program_path db_path stats socket snapshot_file =
    let program = or_die (load_program program_path) in
    let stats_rec = Negdl.Stats.create () in
    let cold_start () =
      let db = load_database_for program db_path in
      let state = or_die (Negdl.Serve.create ~stats:stats_rec program db) in
      (match snapshot_file with
      | None -> ()
      | Some file ->
        let bytes = or_die (Negdl.Serve.snapshot_to state file) in
        Format.eprintf "negdl: snapshot written to %s (%d bytes)@." file
          bytes);
      state
    in
    let state =
      match snapshot_file with
      | Some file when Sys.file_exists file ->
        let image = snap_die (Negdl.Snapshot.read_file file) in
        or_die (Negdl.Serve.create_restored ~stats:stats_rec program image)
      | _ -> cold_start ()
    in
    (* One client session over a raw file descriptor; returns how it
       ended.  The loop blocks for input, then drains whatever else is
       already available (select with a zero timeout) before splitting
       into lines, so a scripted or pipelined client's consecutive write
       lines reach {!Serve.handle_batch} as one block and coalesce into a
       single DRed update; interactively each line arrives alone and
       behaves exactly like {!Serve.handle_line}. *)
    let session fd oc =
      let pending = Buffer.create 256 in
      let chunk = Bytes.create 65536 in
      let rec drain () =
        match Unix.select [ fd ] [] [] 0.0 with
        | [ _ ], _, _ ->
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes pending chunk 0 n;
            drain ()
          end
        | _ -> ()
      in
      (* Complete lines out of [pending]; a trailing partial line stays. *)
      let take_lines () =
        let data = Buffer.contents pending in
        Buffer.clear pending;
        match String.rindex_opt data '\n' with
        | None ->
          Buffer.add_string pending data;
          []
        | Some i ->
          Buffer.add_substring pending data (i + 1)
            (String.length data - i - 1);
          String.split_on_char '\n' (String.sub data 0 i)
      in
      let emit st response =
        match st with
        | `Quit | `Shutdown -> st
        | `Continue -> (
          match response with
          | Negdl.Serve.Reply lines ->
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              lines;
            `Continue
          | Negdl.Serve.Quit ->
            output_string oc "bye\n";
            `Quit
          | Negdl.Serve.Shutdown ->
            output_string oc "bye\n";
            `Shutdown)
      in
      let process lines =
        match lines with
        | [] -> `Continue
        | _ ->
          let st =
            List.fold_left emit `Continue
              (Negdl.Serve.handle_batch state lines)
          in
          flush oc;
          st
      in
      let rec loop () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error _ -> `Eof
        | 0 -> (
          (* EOF: an unterminated final line is still a command. *)
          let tail = Buffer.contents pending in
          Buffer.clear pending;
          if tail = "" then `Eof
          else
            match process [ tail ] with
            | `Continue -> `Eof
            | `Quit -> `Quit
            | `Shutdown -> `Shutdown)
        | n -> (
          Buffer.add_subbytes pending chunk 0 n;
          drain ();
          match process (take_lines ()) with
          | `Continue -> loop ()
          | `Quit -> `Quit
          | `Shutdown -> `Shutdown)
      in
      loop ()
    in
    (match socket with
    | None -> ignore (session Unix.stdin stdout)
    | Some path ->
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let client, _ = Unix.accept sock in
        let oc = Unix.out_channel_of_descr client in
        let outcome = try session client oc with Sys_error _ -> `Eof in
        (try flush oc with Sys_error _ -> ());
        (try Unix.close client with Unix.Unix_error _ -> ());
        match outcome with `Shutdown -> () | `Quit | `Eof -> accept_loop ()
      in
      accept_loop ();
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ());
    if stats then Format.eprintf "%a@." Negdl.Stats.pp stats_rec
  in
  let doc = "serve a materialised model with incremental updates" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads the database, materialises the program's stratified model \
         once, then reads line commands from stdin (or a Unix socket): \
         $(b,insert <facts>), $(b,delete <facts>), $(b,query <atom>[; \
         <atom>]...), $(b,stats), $(b,snapshot <file>), \
         $(b,restore <file>), $(b,quit).  Updates are applied \
         incrementally (delta-driven DRed over compiled plans) — never by \
         re-saturation — and queries answer from a version-tagged result \
         cache over the current snapshot.  $(b,snapshot) checkpoints the \
         pinned immutable model without pausing the update loop; \
         $(b,restore) warm-restarts from a checkpoint, resetting the \
         version and clearing the query cache.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ program_arg $ database_arg $ stats_arg $ socket_arg
      $ snapshot_arg)

(* --- snapshot / restore ----------------------------------------------------- *)

let snapshot_file_arg =
  Arg.(
    required
    & pos 2 (some string) None
    & info [] ~docv:"FILE" ~doc:"Snapshot file to write.")

let snapshot_cmd =
  let semantics_arg =
    let parse s =
      match Negdl.semantics_of_string s with
      | Ok v -> Ok v
      | Error msg -> Error (`Msg msg)
    in
    let print ppf s = Format.pp_print_string ppf (Negdl.semantics_to_string s) in
    Arg.(
      value
      & opt (conv ~docv:"SEMANTICS" (parse, print)) Negdl.Semantics_stratified
      & info [ "s"; "semantics" ] ~docv:"SEMANTICS"
          ~doc:
            "One of $(b,inflationary), $(b,stratified) (default), \
             $(b,well-founded), $(b,kripke-kleene), $(b,least).")
  in
  let run program_path db_path file semantics =
    let program = or_die (load_program program_path) in
    let db = load_database_for program db_path in
    let result = or_die (Negdl.run semantics program db) in
    let bytes =
      save_snapshot ~program
        ~semantics:(Negdl.semantics_to_string semantics)
        ~db ~facts:result.Negdl.facts ~unknown:result.Negdl.unknown file
    in
    let image = snap_die (Negdl.Snapshot.read_file file) in
    let tuples =
      List.fold_left
        (fun acc (ri : Negdl.Snapshot.relation_image) ->
          acc + ri.Negdl.Snapshot.row_count)
        0 image.Negdl.Snapshot.relations
    in
    Format.printf "wrote %s: %d bytes, %d symbols, %d relations, %d tuples@."
      file bytes
      (Array.length image.Negdl.Snapshot.symbols)
      (List.length image.Negdl.Snapshot.relations)
      tuples
  in
  let doc = "materialise a model and write a binary snapshot" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Evaluates the program under the chosen semantics and persists the \
         materialised model — symbol dictionary, packed EDB/IDB tuples, \
         program and EDB fingerprints — in the versioned, checksummed \
         binary snapshot format.  $(b,negdl restore), $(b,negdl eval \
         --snapshot), $(b,negdl serve --snapshot) and the serve protocol's \
         $(b,restore) command all load it back without re-saturating.";
    ]
  in
  Cmd.v
    (Cmd.info "snapshot" ~doc ~man)
    Term.(
      const run $ program_arg $ database_arg $ snapshot_file_arg
      $ semantics_arg)

let restore_cmd =
  let file_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"FILE" ~doc:"Snapshot file to load.")
  in
  let pred_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "pred" ] ~docv:"PRED" ~doc:"Print only this predicate.")
  in
  let run program_path file pred =
    let program = or_die (load_program program_path) in
    let image = snap_die (Negdl.Snapshot.read_file file) in
    (* The file's own semantics tag is authoritative for display; the
       program fingerprint is what must match the program we were given. *)
    snap_die
      (Negdl.Snapshot.check_program image ~program
         ~semantics:image.Negdl.Snapshot.semantics);
    let r = snap_die (Negdl.Snapshot.restore image) in
    let facts = idb_of_bindings program r.Negdl.Snapshot.r_idb in
    (match pred with
    | None -> print_idb facts
    | Some name -> (
      match List.assoc_opt name (Negdl.Idb.bindings facts) with
      | Some rel -> Format.printf "%a@." Negdl.Relation.pp rel
      | None -> or_die (Error (Printf.sprintf "no IDB predicate %s" name))));
    match r.Negdl.Snapshot.r_unknown with
    | [] -> ()
    | u when pred = None ->
      print_idb ~header:"-- unknown (three-valued) --"
        (idb_of_bindings program u)
    | _ -> ()
  in
  let doc = "load a binary snapshot and print the model it holds" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads a snapshot written by $(b,negdl snapshot) (or the serve \
         protocol) and prints the materialised model without evaluating \
         anything.  Reading fails closed: a truncated, corrupted or \
         version-skewed file, or one written for a different program than \
         $(i,PROGRAM), is reported precisely and nothing is loaded.";
    ]
  in
  Cmd.v
    (Cmd.info "restore" ~doc ~man)
    Term.(const run $ program_arg $ file_arg $ pred_arg)

(* --- why -------------------------------------------------------------------- *)

let why_cmd =
  let fact_arg =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"FACT"
          ~doc:"A ground atom, e.g. 's(v0, v3)', to explain under the \
                inflationary semantics.")
  in
  let run program_path db_path fact =
    let program = or_die (load_program program_path) in
    or_die (Negdl.Check.refuse_limits "inflationary" program);
    let db = load_database_for program db_path in
    let atom =
      match Negdl.Parser.parse_rule (fact ^ ".") with
      | Ok rule when rule.Negdl.Ast.body = [] -> rule.Negdl.Ast.head
      | Ok _ -> or_die (Error "the fact must be a single atom")
      | Error msg -> or_die (Error msg)
    in
    let tuple =
      Negdl.Tuple.of_list
        (List.map
           (function
             | Negdl.Ast.Const c -> c
             | Negdl.Ast.Var x ->
               or_die
                 (Error
                    (Printf.sprintf "the fact must be ground; %s is a variable"
                       x)))
           atom.Negdl.Ast.args)
    in
    match Negdl.Provenance.explain program db ~pred:atom.Negdl.Ast.pred tuple with
    | Some j -> print_endline (Negdl.Provenance.to_string j)
    | None ->
      Format.printf "not derived under the inflationary semantics@.";
      exit 2
  in
  let doc = "explain why a fact holds under the inflationary semantics" in
  Cmd.v
    (Cmd.info "why" ~doc)
    Term.(const run $ program_arg $ database_arg $ fact_arg)

(* --- stable ------------------------------------------------------------------ *)

let stable_cmd =
  let limit_arg =
    Arg.(
      value & opt int 64
      & info [ "limit" ] ~docv:"N" ~doc:"Maximum stable models printed.")
  in
  let run program_path db_path limit =
    let program = or_die (load_program program_path) in
    or_die (Negdl.Check.refuse_limits "stable models" program);
    let db = load_database_for program db_path in
    let solver = Negdl.Fixpoints.prepare program db in
    let stable = Negdl.Stable.stable_models ~limit solver in
    Format.printf "stable models: %d%s@." (List.length stable)
      (if List.length stable >= limit then " (capped)" else "");
    List.iteri
      (fun i m ->
        Format.printf "-- stable model %d --@." (i + 1);
        print_idb m)
      stable
  in
  let doc = "enumerate stable models (answer sets)" in
  Cmd.v
    (Cmd.info "stable" ~doc)
    Term.(const run $ program_arg $ database_arg $ limit_arg)

(* --- sat -------------------------------------------------------------------- *)

let cnf_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"CNF" ~doc:"A DIMACS CNF file.")

let load_cnf path =
  match read_file path with
  | Error msg -> Error msg
  | Ok text -> (
    match Negdl.Dimacs.parse text with
    | Ok cnf -> Ok cnf
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let sat_cmd =
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"CONFLICTS"
          ~doc:
            "Give up after $(docv) conflicts, printing \"s UNKNOWN\" and \
             exiting 0.")
  in
  let run cnf_path budget =
    let cnf = or_die (load_cnf cnf_path) in
    match Negdl.Sat_solver.solve_outcome ?conflict_budget:budget cnf with
    | Negdl.Sat_outcome.Unsat ->
      Format.printf "s UNSATISFIABLE@.";
      exit 20
    | Negdl.Sat_outcome.Sat model ->
      Format.printf "s SATISFIABLE@.v ";
      for v = 1 to Negdl.Cnf.num_vars cnf do
        Format.printf "%d " (if model.(v) then v else -v)
      done;
      Format.printf "0@."
    | Negdl.Sat_outcome.Unknown reason ->
      Format.printf "c %s@.s UNKNOWN@."
        (Negdl.Sat_outcome.reason_to_string reason)
  in
  let doc = "solve a DIMACS CNF with the built-in CDCL solver" in
  Cmd.v
    (Cmd.info "sat" ~doc)
    Term.(const run $ cnf_arg $ budget_arg)

(* --- sat2fp ----------------------------------------------------------------- *)

let sat2fp_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"BASE"
          ~doc:
            "Write $(docv).dl (the fixed program pi_SAT) and $(docv).facts \
             (the database D(I)); default prints both to stdout.")
  in
  let run cnf_path out =
    let cnf = or_die (load_cnf cnf_path) in
    let db = Negdl.Sat_db.database_of_cnf cnf in
    let program_text =
      Negdl.Pretty.program_to_string Negdl.Sat_db.program ^ "\n"
    in
    let facts_text =
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        ("#universe "
        ^ String.concat " "
            (List.map Negdl.Symbol.name (Negdl.Database.universe db))
        ^ ".\n");
      List.iter
        (fun (name, rel) ->
          Negdl.Relation.iter
            (fun t ->
              Buffer.add_string buf
                (Printf.sprintf "%s(%s).\n" name
                   (String.concat ", "
                      (List.map Negdl.Symbol.name (Negdl.Tuple.to_list t)))))
            rel)
        (Negdl.Database.relations db);
      Buffer.contents buf
    in
    match out with
    | None ->
      Format.printf "%% pi_SAT@.%s%% D(I)@.%s" program_text facts_text
    | Some base ->
      let write path text =
        let oc = open_out path in
        output_string oc text;
        close_out oc
      in
      write (base ^ ".dl") program_text;
      write (base ^ ".facts") facts_text;
      Format.printf "wrote %s.dl and %s.facts@." base base
  in
  let doc =
    "emit Example 1's reduction: a CNF as (pi_SAT, D(I)) program/database \
     files"
  in
  Cmd.v (Cmd.info "sat2fp" ~doc) Term.(const run $ cnf_arg $ out_arg)

(* --- stratify -------------------------------------------------------------------- *)

let stratify_cmd =
  let run program_path =
    let program = or_die (load_program program_path) in
    match Negdl.Stratify.stratify program with
    | Negdl.Stratify.Not_stratifiable { offending = p, q } ->
      Format.printf
        "not stratifiable: %s depends negatively on %s within a recursive \
         component@."
        p q;
      exit 2
    | Negdl.Stratify.Not_limit_stratifiable { pred; rule } ->
      Format.printf "%s@."
        (Negdl.Stratify.limit_error_to_string ~pred ~rule);
      exit 2
    | Negdl.Stratify.Stratified { strata; _ } ->
      List.iteri
        (fun i preds ->
          Format.printf "stratum %d: %s@." i (String.concat ", " preds))
        strata
  in
  let doc = "compute the stratification of a program" in
  Cmd.v (Cmd.info "stratify" ~doc) Term.(const run $ program_arg)

(* --- check ----------------------------------------------------------------------- *)

let check_cmd =
  let run program_path =
    let program = or_die (load_program program_path) in
    Format.printf "%s@." (Negdl.Check.describe program);
    match Negdl.Check.validate program with
    | Ok _ -> ()
    | Error _ -> exit 2
  in
  let doc = "static well-formedness report" in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ program_arg)

(* --- ground ---------------------------------------------------------------------- *)

let ground_cmd =
  let run program_path db_path =
    let program = or_die (load_program program_path) in
    or_die (Negdl.Check.refuse_limits "grounding" program);
    let db = load_database_for program db_path in
    let g = Negdl.Ground.ground program db in
    Format.printf "%a@." Negdl.Ground.pp g;
    Format.printf "%% %d atoms, %d instances@." (Negdl.Ground.atom_count g)
      (Negdl.Ground.instance_count g)
  in
  let doc = "print the propositional grounding of (program, database)" in
  Cmd.v (Cmd.info "ground" ~doc) Term.(const run $ program_arg $ database_arg)

let () =
  let doc = "a DATALOG-with-negation engine (Kolaitis-Papadimitriou semantics)" in
  let info = Cmd.info "negdl" ~version:Negdl.version ~doc in
  exit (Cmd.eval (Cmd.group info
       [
         eval_cmd;
         fixpoints_cmd;
         explain_cmd;
         query_cmd;
         serve_cmd;
         snapshot_cmd;
         restore_cmd;
         why_cmd;
         stable_cmd;
         sat_cmd;
         sat2fp_cmd;
         stratify_cmd;
         check_cmd;
         ground_cmd;
       ]))
