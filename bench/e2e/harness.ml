(* Shared machinery of the end-to-end benchmark: the clock, fresh child
   processes with pinned environments, the child-to-parent report format,
   sample statistics, hand-written JSON (yojson is not a dependency), the
   run header and the results directory. *)

(* --- clock ------------------------------------------------------------------ *)

(* CLOCK_MONOTONIC is system-wide, so a parent's spawn stamp and a child's
   ready stamp can be subtracted across processes. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns /. 1e6

(* --- statistics ------------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between the closest ranks. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples";
  let h = q *. float_of_int (n - 1) in
  let i = int_of_float h in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* First and third quartile exactly as Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method)
   computes them, so run-to-run spreads read the same here as in any
   analysis script. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "quartiles: no samples";
  if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then if q3 = q1 then 0.0 else infinity
  else (q3 -. q1) /. Float.abs m

type better = Lower | Higher

type verdict = Better | Same | Worse | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [b] against [a]: unresolved when either side's own spread is wider than
   the bound, otherwise better/worse when the medians differ by more than
   the bound in the metric's direction. *)
let verdict ~better ~bound a b =
  if spread a > bound || spread b > bound then Unresolved
  else
    let ma = median a and mb = median b in
    if ma = 0.0 then if mb = 0.0 then Same else Unresolved
    else
      let rel = (mb -. ma) /. Float.abs ma in
      let gain = match better with Lower -> -.rel | Higher -> rel in
      if gain > bound then Better else if gain < -.bound then Worse else Same

(* --- JSON ------------------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* Full precision: a value is printed as measured, never rounded. *)
  let number f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else if Float.is_finite f then Printf.sprintf "%.17g" f
    else invalid_arg "Json.number: not finite"

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num f -> Buffer.add_string buf (number f)
    | Str s -> escape buf s
    | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf v)
        l;
      Buffer.add_char buf ']'
    | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          escape buf k;
          Buffer.add_string buf ": ";
          write buf v)
        l;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf

  exception Syntax of string

  let parse s =
    let pos = ref 0 and n = String.length s in
    let fail what = raise (Syntax (Printf.sprintf "%s at byte %d" what !pos)) in
    let rec ws () =
      if !pos < n then
        match s.[!pos] with
        | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          ws ()
        | _ -> ()
    in
    let expect c =
      ws ();
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n
         && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail "bad literal"
    in
    let string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 > n then fail "bad \\u escape";
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            pos := !pos + 4;
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?'
          | c -> Buffer.add_char buf c);
          go ()
        | c ->
          Buffer.add_char buf c;
          go ()
      in
      go ()
    in
    let rec value () =
      ws ();
      if !pos >= n then fail "unexpected end";
      match s.[!pos] with
      | '{' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            let k = string () in
            expect ':';
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          members []
      | '[' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          items []
      | '"' -> Str (string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
    in
    let v = value () in
    ws ();
    if !pos <> n then fail "trailing data";
    v

  let member k = function
    | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> Null)
    | _ -> Null

  let to_list = function Arr l -> l | _ -> []

  let to_str = function Str s -> s | _ -> raise (Syntax "expected a string")

  let to_num = function Num f -> f | _ -> raise (Syntax "expected a number")
end

let read_text path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- the benchmark definition (BENCHMARK.json) ----------------------------- *)

type metric = {
  m_name : string;
  m_unit : string;
  m_better : better;
  m_bound : float option;
}

type spec = {
  run_seconds : int;
  workload_names : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let spec_file = "BENCHMARK.json"

let load_spec () =
  let j = Json.parse (read_text spec_file) in
  let metrics key =
    List.map
      (fun m ->
        {
          m_name = Json.to_str (Json.member "name" m);
          m_unit = Json.to_str (Json.member "unit" m);
          m_better =
            (match Json.to_str (Json.member "better" m) with
            | "lower" -> Lower
            | "higher" -> Higher
            | other -> raise (Json.Syntax ("bad direction " ^ other)));
          m_bound =
            (match Json.member "bound" m with
            | Json.Num b -> Some b
            | _ -> None);
        })
      (Json.to_list (Json.member key j))
  in
  {
    run_seconds = int_of_float (Json.to_num (Json.member "run_seconds" j));
    workload_names =
      List.map
        (fun w -> Json.to_str (Json.member "name" w))
        (Json.to_list (Json.member "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* --- environment pins and the run header ----------------------------------- *)

let nproc = Domain.recommended_domain_count ()

(* Every child sees the same domain and stripe counts, whatever the
   caller's environment holds.  One domain: the fixpoint counters fan
   components out over the default domain pool, and on a shared 2-vCPU
   host waking its second domain cost 0.5-7 ms per operation depending on
   the hour (the 12 x C4 census took 5.5 ms, then 12 ms, against 5.0 ms on
   one domain), a swing the single-threaded calibration cannot see.  The
   store keeps the host's default stripe count. *)
let pins =
  [ ("NEGDL_DOMAINS", "1");
    ("NEGDL_PARTITIONS", string_of_int nproc) ]

let child_env =
  lazy
    (let pinned k = List.mem_assoc k pins in
     Array.of_list
       (List.map (fun (k, v) -> k ^ "=" ^ v) pins
       @ List.filter
           (fun kv ->
             match String.index_opt kv '=' with
             | Some i -> not (pinned (String.sub kv 0 i))
             | None -> true)
           (Array.to_list (Unix.environment ()))))

let dev_null = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* stdout of a short helper command, [None] when it cannot run or fails. *)
let command_output argv =
  try
    let rd, wr = Unix.pipe ~cloexec:true () in
    let null = Lazy.force dev_null in
    let pid = Unix.create_process argv.(0) argv null wr null in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let out = In_channel.input_all ic in
    close_in ic;
    match waitpid_retry pid with
    | Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None
  with Unix.Unix_error _ -> None

let header ~seed ~mode ~trace ~seconds =
  let commit =
    Option.value ~default:"unknown"
      (command_output [| "git"; "rev-parse"; "HEAD" |])
  in
  Json.Obj
    [
      ("commit", Json.Str commit);
      ("nproc", Json.Num (float_of_int nproc));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("env", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) pins));
      ("seed", Json.Num (float_of_int seed));
      ("mode", Json.Str mode);
      ("trace", Json.Bool trace);
      ("seconds", Json.Num seconds);
    ]

(* --- results directory -------------------------------------------------------- *)

let results_dir = Filename.concat "bench" (Filename.concat "e2e" "results")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let stamp () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02d-%d" (t.tm_year + 1900)
    (t.tm_mon + 1) t.tm_mday t.tm_hour t.tm_min t.tm_sec (Unix.getpid ())

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* --- child side: the report a child prints when it exits --------------------- *)

module Child = struct
  let out = Buffer.create 4096

  let tracing = ref false

  let start ~trace =
    tracing := trace;
    Printf.bprintf out "main %d\n" (now_ns ())

  let ready () = Printf.bprintf out "ready %d\n" (now_ns ())

  let sample tag ms = Printf.bprintf out "sample %s %.17g\n" tag ms

  let count name v = if !tracing then Printf.bprintf out "count %s %d\n" name v

  (* Spans are kept in memory and printed with the rest of the report. *)
  let span name f =
    if not !tracing then f ()
    else
      let t0 = now_ns () in
      let r = f () in
      Printf.bprintf out "span %s %d %d\n" name t0 (now_ns ());
      r

  (* The store's process-cumulative counters, read as before/after deltas
     around the timed operation. *)
  let store_probe () =
    let c = Relalg.Store.contention () in
    [
      ("relalg.store_tuples", Relalg.Store.count ());
      ("relalg.intern_hits", c.Relalg.Store.cache_hits);
      ("relalg.intern_misses", c.Relalg.Store.cache_misses);
      ("relalg.stripe_locks", c.Relalg.Store.stripe_locks);
    ]

  let op_window = ref (0, [])

  let op_begin () = op_window := (now_ns (), if !tracing then store_probe () else [])

  (* Ends the timed operation and records the process's peak major heap
     before any checking code allocates. *)
  let op_end () =
    let t1 = now_ns () in
    let t0, before = !op_window in
    Printf.bprintf out "op %d %d\n" t0 t1;
    Printf.bprintf out "heap %d\n" (Gc.quick_stat ()).Gc.top_heap_words;
    List.iter2
      (fun (name, b) (_, a) -> count name (a - b))
      before
      (if !tracing then store_probe () else [])

  let lines ~attempted ~failed =
    Printf.bprintf out "lines %d %d\n" attempted failed

  let digest d = Printf.bprintf out "digest %s\n" d

  let check ok msg =
    Printf.bprintf out "check %d %s\n" (if ok then 1 else 0)
      (String.map (fun c -> if c = '\n' then ' ' else c) msg)

  let finish () =
    print_string (Buffer.contents out);
    exit 0

  let die msg =
    prerr_endline ("e2e child: " ^ msg);
    exit 2
end

(* --- parent side: running a child -------------------------------------------- *)

type outcome = {
  kind : string;
  traced : bool;
  spawn_ns : int;
  main_ns : int;
  ready_ns : int;
  op_start : int;
  op_end : int;
  heap_words : int;
  samples : (string * float) list;  (** Most recent first. *)
  spans : (string * int * int) list;
  counters : (string * int) list;
  ok : bool;
  msg : string;
  digest : string;
  attempted : int;
  failed : int;
  calib_ms : float;  (** The calibration time of the outcome's round. *)
}

let setup_ns o = o.ready_ns - o.spawn_ns

let op_ns o = o.op_end - o.op_start

let samples_of tag outcomes =
  List.concat_map
    (fun o ->
      List.filter_map (fun (t, v) -> if t = tag then Some v else None) o.samples)
    outcomes

let counter o name =
  List.fold_left (fun acc (n, v) -> if n = name then acc + v else acc) 0
    o.counters

(* The calibration's time on the host the benchmark was sized on (2-vCPU
   x86-64 VM, Intel Xeon at 2.1 GHz); see [rounds]. *)
let calib_ref_ms = 20.0

let failed_outcome ~kind ~traced ~spawn_ns msg =
  {
    kind;
    traced;
    spawn_ns;
    main_ns = spawn_ns;
    ready_ns = spawn_ns;
    op_start = spawn_ns;
    op_end = spawn_ns;
    heap_words = 0;
    samples = [];
    spans = [];
    counters = [];
    ok = false;
    msg;
    digest = "";
    attempted = 1;
    failed = 1;
    calib_ms = calib_ref_ms;
  }

let parse_report ~kind ~traced ~spawn_ns text =
  let o = ref (failed_outcome ~kind ~traced ~spawn_ns "no check reported") in
  let lines_seen = ref false in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "main"; t ] -> o := { !o with main_ns = int_of_string t }
      | [ "ready"; t ] -> o := { !o with ready_ns = int_of_string t }
      | [ "op"; a; b ] ->
        o := { !o with op_start = int_of_string a; op_end = int_of_string b }
      | [ "heap"; w ] -> o := { !o with heap_words = int_of_string w }
      | [ "sample"; tag; v ] ->
        o := { !o with samples = (tag, float_of_string v) :: !o.samples }
      | [ "span"; name; a; b ] ->
        o :=
          {
            !o with
            spans = (name, int_of_string a, int_of_string b) :: !o.spans;
          }
      | [ "count"; name; v ] ->
        o := { !o with counters = (name, int_of_string v) :: !o.counters }
      | [ "digest"; d ] -> o := { !o with digest = d }
      | [ "lines"; a; f ] ->
        lines_seen := true;
        o :=
          { !o with attempted = int_of_string a; failed = int_of_string f }
      | "check" :: ok :: msg ->
        let ok = ok = "1" in
        o := { !o with ok; msg = String.concat " " msg };
        if not !lines_seen then
          o := { !o with attempted = 1; failed = (if ok then 0 else 1) }
      | [ "" ] -> ()
      | _ -> failwith ("unexpected report line: " ^ line))
    (String.split_on_char '\n' text);
  (* A failed check fails at least one operation, even in a stream whose
     every reply was fine. *)
  if not !o.ok then o := { !o with failed = max 1 !o.failed };
  !o

(* Runs [e2e.exe child args] to completion and returns its report; a crash,
   a non-zero exit or outliving [timeout_s] is a failed outcome. *)
let run_child ~timeout_s ~kind ~traced args =
  let exe = Sys.executable_name in
  let argv =
    Array.of_list
      ((exe :: "child" :: (if traced then [ "--trace" ] else [])) @ args)
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let spawn_ns = now_ns () in
  let pid =
    Unix.create_process_env exe argv (Lazy.force child_env)
      (Lazy.force dev_null) wr Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let deadline = spawn_ns + int_of_float (timeout_s *. 1e9) in
  let rec pump () =
    let left = float_of_int (deadline - now_ns ()) /. 1e9 in
    if left <= 0.0 then `Timeout
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> `Timeout
      | _ -> (
        match Unix.read rd chunk 0 (Bytes.length chunk) with
        | 0 -> `Eof
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          pump ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
  in
  let ended = pump () in
  if ended = `Timeout then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  Unix.close rd;
  let status = waitpid_retry pid in
  let fail = failed_outcome ~kind ~traced ~spawn_ns in
  match (ended, status) with
  | `Timeout, _ -> fail (Printf.sprintf "timed out after %.1f s" timeout_s)
  | `Eof, Unix.WEXITED 0 -> (
    try parse_report ~kind ~traced ~spawn_ns (Buffer.contents buf)
    with Failure msg | Invalid_argument msg -> fail msg)
  | `Eof, Unix.WEXITED c -> fail (Printf.sprintf "exited with code %d" c)
  | `Eof, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
    fail (Printf.sprintf "killed by signal %d" s)

(* --- workloads ------------------------------------------------------------------ *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  work : string;  (** Directory for the generated inputs of one run. *)
}

let subseed seed i = Hashtbl.hash (seed, i)

let write_input ctx name text =
  let path = Filename.concat ctx.work name in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path

(* The fact-file text of a database, in the format [negdl] reads. *)
let facts_text db =
  let open Negdl in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "#universe";
  List.iter
    (fun s ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Symbol.name s))
    (Database.universe db);
  Buffer.add_string buf ".\n";
  List.iter
    (fun (name, rel) ->
      Relation.iter
        (fun t ->
          Buffer.add_string buf name;
          Buffer.add_char buf '(';
          Buffer.add_string buf
            (String.concat ", " (List.map Symbol.name (Tuple.to_list t)));
          Buffer.add_string buf ").\n")
        rel)
    (Database.relations db);
  Buffer.contents buf

(* MD5 over the sorted rendered tuples of a model: the same model digests
   the same in any process, whatever its intern order. *)
let model_digest idb =
  let open Negdl in
  let rows =
    List.concat_map
      (fun (name, rel) ->
        Relation.fold
          (fun t acc ->
            (name ^ "("
            ^ String.concat "," (List.map Symbol.name (Tuple.to_list t))
            ^ ")")
            :: acc)
          rel [])
      (Idb.bindings idb)
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare rows)))

(* Children run one at a time, each starting after the previous one has
   exited (a closed loop), until [ctx.seconds] have passed.  [round i]
   gives the operations of round [i] as (kind, thunk); the thunk does any
   per-operation preparation and returns the child's arguments.  Odd rounds
   run their operations in reverse order so that drift falls on every kind
   alike; in a traced run every other round runs untraced, which gives the
   tracing overhead.  [check] sees every outcome in order (for checks that
   span children).  A child may take 20x the running median of its kind
   before it is killed; the first two of a kind get a fixed allowance.

   Every round starts with the calibration ([Calib]) in a child of its own.
   The host is shared: its speed drifts by 10-50% over minutes and dips for
   seconds at a time, and every operation slows with it.  Scaling each
   operation's times by [calib_ref_ms] over its round's calibration time
   removes most of that drift; a change to the repository's code cannot
   move the calibration, which runs none of it. *)
let rounds ctx ~round ~check =
  let deadline = now_ns () + int_of_float (ctx.seconds *. 1e9) in
  let walls = Hashtbl.create 4 in
  let timeout kind =
    match Hashtbl.find_all walls kind with
    | _ :: _ :: _ as ws -> Float.max 5.0 (20.0 *. median ws)
    | _ -> 60.0
  in
  let child ~kind ~traced args =
    let o = run_child ~timeout_s:(timeout kind) ~kind ~traced args in
    Hashtbl.add walls kind (ms_of_ns (now_ns () - o.spawn_ns) /. 1e3);
    o
  in
  let rec go i acc =
    if i > 0 && now_ns () >= deadline then List.rev acc
    else
      let calib = child ~kind:"calib" ~traced:false [ "calib" ] in
      if not calib.ok then failwith ("the calibration failed: " ^ calib.msg);
      let calib_ms = ms_of_ns (op_ns calib) in
      let ops = round i in
      let ops = if i mod 2 = 0 then ops else List.rev ops in
      let traced = ctx.trace && i mod 2 = 0 in
      let acc =
        List.fold_left
          (fun acc (kind, prepare) ->
            let args = prepare () in
            let o = { (child ~kind ~traced args) with calib_ms } in
            let o = check o in
            let o =
              if o.ok then { o with samples = (kind, ms_of_ns (op_ns o)) :: o.samples }
              else o
            in
            o :: acc)
          acc ops
      in
      go (i + 1) acc
  in
  go 0 []

(* --- metrics -------------------------------------------------------------------- *)

let heap_mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6

(* A time measured in outcome [o], at the reference speed (see [rounds]). *)
let scaled o x = x *. calib_ref_ms /. o.calib_ms

let scaled_samples tag outcomes =
  List.concat_map (fun o -> List.map (scaled o) (samples_of tag [ o ])) outcomes

(* The end-to-end metrics, from untraced outcomes only, with every time at
   the reference speed.  Latencies are the medians of the samples tagged
   op1/op2.  No tail percentile is one: every workload must report the same
   metrics, and serve_stream's read 90th percentile sits where reads start
   to queue behind writes, so a few percent of host speed moves it by
   20-35% from run to run; the raw files keep every sample.  The heap figure is
   the larger of the two kinds' median per-process peak, so a mix of kinds
   cannot put the median between two clusters. *)
let end_to_end outcomes =
  let plain = List.filter (fun o -> (not o.traced) && o.ok) outcomes in
  let kinds = List.sort_uniq compare (List.map (fun o -> o.kind) plain) in
  let heap k =
    median
      (List.filter_map
         (fun o -> if o.kind = k then Some (float_of_int o.heap_words) else None)
         plain)
  in
  let median_as name = function [] -> [] | xs -> [ (name, median xs) ] in
  median_as "setup_s" (List.map (fun o -> scaled o (ms_of_ns (setup_ns o)) /. 1e3) plain)
  @ median_as "op1_ms_p50" (scaled_samples "op1" plain)
  @ median_as "op2_ms_p50" (scaled_samples "op2" plain)
  @
  match kinds with
  | [] -> []
  | _ -> [ ("heap_peak_mb", heap_mb (List.fold_left (fun m k -> Float.max m (heap k)) 0.0 kinds)) ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

let traced outcomes = List.filter (fun o -> o.traced && o.ok) outcomes

let span_ms name o =
  List.fold_left
    (fun acc (n, a, b) -> if n = name then acc +. ms_of_ns (b - a) else acc)
    0.0 o.spans

(* Per-layer metrics, from traced outcomes: each span name [n] gives
   [n_ms], its mean time per traced child, and each counter its mean per
   traced child.  Two ratios follow from the evaluation counters: the share
   of derived tuples that end up in the model, and of index requests an
   existing index served.  [proc.*] describe the traced run itself:
   coverage is the share of the operations' wall time (less idle waits for
   input) that the layer spans account for, and [proc.calib_ms] the median
   calibration time, i.e. how fast the host ran.  Unlike the end-to-end
   metrics, layer times are as measured, not scaled. *)
let per_layer outcomes =
  let traced = traced outcomes in
  let per_child = float_of_int (max 1 (List.length traced)) in
  let names f = List.sort_uniq compare (List.concat_map f traced) in
  let mean_of f = List.fold_left (fun acc o -> acc +. f o) 0.0 traced /. per_child in
  let generic =
    List.filter_map
      (fun name ->
        if name = "proc.idle" then None else Some (name ^ "_ms", mean_of (span_ms name)))
      (names (fun o -> List.map (fun (n, _, _) -> n) o.spans))
    @ List.map
        (fun name -> (name, mean_of (fun o -> float_of_int (counter o name))))
        (names (fun o -> List.map fst o.counters))
  in
  let get n = Option.value ~default:0.0 (List.assoc_opt n generic) in
  let covered, wall =
    List.fold_left
      (fun (c, w) o ->
        let inside (_, a, b) = a >= o.op_start && b <= o.op_end in
        let busy =
          List.fold_left
            (fun acc ((n, a, b) as sp) ->
              if n <> "proc.idle" && inside sp then acc +. ms_of_ns (b - a) else acc)
            0.0 o.spans
        in
        (c +. busy, w +. ms_of_ns (op_ns o) -. span_ms "proc.idle" o))
      (0.0, 0.0) traced
  in
  let op1 t = scaled_samples "op1" (List.filter (fun o -> o.traced = t && o.ok) outcomes) in
  let overhead =
    match (op1 true, op1 false) with
    | (_ :: _ as a), (_ :: _ as b) -> (median a /. median b) -. 1.0
    | _ -> 0.0
  in
  generic
  @ [
      ("eval.useful_frac", ratio (get "eval.model_tuples") (get "eval.tuples_derived"));
      ( "plan.index_hit_frac",
        ratio (get "plan.index_hits") (get "plan.index_hits" +. get "plan.index_builds") );
      ( "proc.spawn_ms",
        match traced with
        | [] -> 0.0
        | _ -> median (List.map (fun o -> ms_of_ns (o.main_ns - o.spawn_ns)) traced) );
      ("proc.coverage_frac", ratio covered wall);
      ( "proc.calib_ms",
        match traced with [] -> 0.0 | _ -> median (List.map (fun o -> o.calib_ms) traced) );
      ("proc.trace_overhead_frac", overhead);
    ]

(* The outcome as one JSON line of the raw sample file. *)
let outcome_json o =
  let rel t = Json.Num (ms_of_ns (t - o.spawn_ns)) in
  let tags = List.sort_uniq compare (List.map fst o.samples) in
  Json.Obj
    [
      ("kind", Json.Str o.kind);
      ("traced", Json.Bool o.traced);
      ("ok", Json.Bool o.ok);
      ("msg", Json.Str o.msg);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("spawn_ms", rel o.main_ns);
      ("setup_ms", rel o.ready_ns);
      ("op_ms", Json.Num (ms_of_ns (op_ns o)));
      ("heap_words", Json.Num (float_of_int o.heap_words));
      ("calib_ms", Json.Num o.calib_ms);
      ("digest", Json.Str o.digest);
      ( "samples",
        Json.Obj
          (List.map
             (fun t -> (t, Json.Arr (List.rev_map (fun v -> Json.Num v) (samples_of t [ o ]))))
             tags) );
      ( "spans",
        Json.Arr
          (List.rev_map
             (fun (n, a, b) -> Json.Arr [ Json.Str n; rel a; rel b ])
             o.spans) );
      ( "counters",
        Json.Obj (List.rev_map (fun (n, v) -> (n, Json.Num (float_of_int v))) o.counters) );
    ]
