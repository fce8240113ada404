(* serve_stream: [negdl serve] sessions under an open-loop stream.  Each
   session parses the input, runs [Serve.create] (set-up), then feeds a
   seeded Poisson stream of protocol lines through [Serve.handle_batch]:
   every line due by the time the previous batch returned joins the next
   batch, as the CLI session loop drains its input.  Half the lines are
   writes (delete a present edge, re-insert a deleted one, add an edge
   within a component), 45% point queries r(vK, Y), 5% unreached(X).  op1
   is write latency and op2 read latency, each from the moment the line
   was due to the moment its batch returned.  With hundreds of small
   components a single-fact update still pays for whole-model work per
   batch, which is what DRed is measured on.  (The query cache is all but
   unused here: every write invalidates it.) *)

open Negdl
module C = Harness.Child

let name = "serve_stream"

let components = 256

let size = 8

let rate = 60.0

let session_s = 1.0

let renaming seed = W_snapshot_cache.renaming ~seed ~components ~size

let run (ctx : Harness.ctx) =
  let program = Harness.write_input ctx "serve.dl" W_snapshot_cache.reach_program in
  Harness.rounds ctx ~check:Fun.id ~round:(fun k ->
      let seed = Harness.subseed ctx.seed k in
      let facts =
        Harness.write_input ctx "serve.facts"
          (Harness.facts_text
             (W_snapshot_cache.components_db ~rename:(renaming seed) ~components ~size))
      in
      [ ("session", fun () -> [ name; program; facts; string_of_int seed; string_of_int k ]) ])

(* A set of edges with uniform random picks. *)
module Bag = struct
  type t = {
    mutable items : (int * int) array;
    mutable n : int;
    pos : (int * int, int) Hashtbl.t;
  }

  let create () = { items = Array.make 64 (0, 0); n = 0; pos = Hashtbl.create 64 }

  let mem b e = Hashtbl.mem b.pos e

  let add b e =
    if not (mem b e) then begin
      if b.n = Array.length b.items then
        b.items <- Array.append b.items (Array.make b.n (0, 0));
      b.items.(b.n) <- e;
      Hashtbl.replace b.pos e b.n;
      b.n <- b.n + 1
    end

  let remove b e =
    match Hashtbl.find_opt b.pos e with
    | None -> ()
    | Some i ->
      let last = b.items.(b.n - 1) in
      b.items.(i) <- last;
      Hashtbl.replace b.pos last i;
      Hashtbl.remove b.pos e;
      b.n <- b.n - 1

  let pick b rng = b.items.(Prng.int rng b.n)
end

(* Session [k]'s stream: (offset from the start in ns, is-write, line).
   It is drawn once for every [k] over the base graphs, then renamed like
   the database, so session [k] does the same work in every run.  A shadow
   copy of the edge set keeps every delete aimed at a present edge, so no
   line fails by construction. *)
let stream ~rename k =
  let rng = Prng.create (Harness.subseed 1 k) in
  let present = Bag.create () and deleted = Bag.create () in
  List.iter (Bag.add present) (W_snapshot_cache.base_edges ~components ~size);
  let vertices = components * size in
  let edge verb (u, v) = Printf.sprintf "%s e(v%d, v%d)." verb (rename u) (rename v) in
  let fresh_edge () =
    let c = Prng.int rng components in
    let rec attempt k =
      if k = 0 then None
      else
        let u = (c * size) + Prng.int rng size and v = (c * size) + Prng.int rng size in
        if u <> v && not (Bag.mem present (u, v)) then Some (u, v) else attempt (k - 1)
    in
    attempt 20
  in
  let write () =
    let r = Prng.float rng in
    let insert e =
      Bag.remove deleted e;
      Bag.add present e;
      edge "insert" e
    and delete e =
      Bag.remove present e;
      Bag.add deleted e;
      edge "delete" e
    in
    if r < 0.5 && present.Bag.n > 0 then delete (Bag.pick present rng)
    else if r < 0.75 && deleted.Bag.n > 0 then insert (Bag.pick deleted rng)
    else
      match fresh_edge () with
      | Some e -> insert e
      | None -> delete (Bag.pick present rng)
  in
  let rec go t acc =
    let t = t -. (log (1.0 -. Prng.float rng) /. rate) in
    if t >= session_s then Array.of_list (List.rev acc)
    else
      let u = Prng.float rng in
      let line =
        if u < 0.5 then (true, write ())
        else if u < 0.95 then
          (false, Printf.sprintf "query r(v%d, Y)" (rename (Prng.int rng vertices)))
        else (false, "query unreached(X)")
      in
      go t ((int_of_float (t *. 1e9), fst line, snd line) :: acc)
  in
  go 0.0 []

let failed_reply = function
  | Serve.Reply ls ->
    List.exists (fun l -> String.length l >= 6 && String.sub l 0 6 = "error:") ls
  | Serve.Quit | Serve.Shutdown -> true

let serve_counters state =
  let c = Serve.counters state and s = Serve.stats state in
  let extra k = Option.value ~default:0 (List.assoc_opt k s.Stats.extra) in
  Cli.stats_counters s
  @ [
      ("serve.batches", c.Serve.batches);
      ("serve.cache_hits", c.Serve.cache_hits);
      ("serve.cache_misses", c.Serve.cache_misses);
      ("dred.overdeleted", c.Serve.overdeleted);
      ("dred.rederived", c.Serve.rederived);
      ("dred.delta_apps", extra "dred delta applications");
      ("dred.putback_apps", extra "dred putback applications");
      ("dred.full_apps", extra "dred full applications");
    ]

let child = function
  | [ program_file; facts_file; seed; session ] ->
    Cli.defaults ();
    let program = Cli.load_program program_file in
    let stats = Stats.create () in
    let db = Cli.load_database facts_file in
    let state =
      Cli.or_die
        (C.span "serve.create" (fun () ->
             Serve.create ~engine:`Seminaive ~planner:`Static ~indexing:`Cached
               ~storage:`Hashed ~grain:`Auto ~stats program db))
    in
    C.ready ();
    let lines = stream ~rename:(renaming (int_of_string seed)) (int_of_string session) in
    let n = Array.length lines in
    let before = serve_counters state in
    C.op_begin ();
    let t0 = Harness.now_ns () in
    let due k = let off, _, _ = lines.(k) in t0 + off in
    let failed = ref 0 in
    let i = ref 0 in
    while !i < n do
      let now = Harness.now_ns () in
      if due !i > now then begin
        (* Spin rather than sleep until the line is due: while the process
           slept, the shared host's vCPU idled, and how long it then took
           to wake up and run at speed moved the latencies by 10-20% from
           run to run. *)
        C.span "proc.idle" (fun () ->
            while Harness.now_ns () < due !i do
              Domain.cpu_relax ()
            done);
        if !C.tracing then
          C.sample "lag" (Harness.ms_of_ns (Harness.now_ns () - due !i))
      end;
      let now = Harness.now_ns () in
      let j = ref !i in
      while !j < n && due !j <= now do incr j done;
      if !j > !i then begin
        let batch = List.init (!j - !i) (fun k -> let _, _, l = lines.(!i + k) in l) in
        let b0 = Harness.now_ns () in
        let replies = C.span "serve.batch" (fun () -> Serve.handle_batch state batch) in
        let b1 = Harness.now_ns () in
        if List.length replies <> !j - !i then failed := !failed + (!j - !i)
        else
          List.iteri
            (fun k reply ->
              let _, is_write, _ = lines.(!i + k) in
              if failed_reply reply then incr failed
              else begin
                C.sample (if is_write then "op1" else "op2")
                  (Harness.ms_of_ns (b1 - due (!i + k)));
                if !C.tracing then
                  C.sample "wait" (Harness.ms_of_ns (b0 - due (!i + k)))
              end)
            replies;
        if !C.tracing then begin
          C.sample "batch" (Harness.ms_of_ns (b1 - b0));
          C.sample "batch_lines" (float_of_int (!j - !i))
        end;
        i := !j
      end
    done;
    C.op_end ();
    List.iter2 (fun (name, b) (_, a) -> C.count name (a - b)) before (serve_counters state);
    C.lines ~attempted:n ~failed:!failed;
    C.check
      (Idb.equal (Serve.snapshot state)
         (Stratified.eval_exn program (Serve.database state)))
      "served model differs from stratified evaluation of the final database"
  | _ -> C.die "usage: serve_stream PROGRAM FACTS SEED SESSION"

let layer_metrics ~get outcomes =
  let traced = Harness.traced outcomes in
  let pct tag q =
    match Harness.samples_of tag traced with [] -> 0.0 | xs -> Harness.percentile xs q
  in
  let per_batch name = (name, Harness.ratio (get name) (get "serve.batches")) in
  [
    ("serve.batch_ms_p50", pct "batch" 0.5);
    ("serve.batch_ms_p99", pct "batch" 0.99);
    ("serve.lines_per_batch", Harness.mean (Harness.samples_of "batch_lines" traced));
    ("serve.wait_ms_p50", pct "wait" 0.5);
    ("serve.wait_ms_p99", pct "wait" 0.99);
    ( "serve.busy_frac",
      Harness.ratio (get "serve.batch_ms")
        (Harness.mean (List.map (fun o -> Harness.ms_of_ns (Harness.op_ns o)) traced)) );
    ("serve.sched_lag_ms_p99", pct "lag" 0.99);
    ( "serve.cache_hit_frac",
      Harness.ratio (get "serve.cache_hits") (get "serve.cache_hits" +. get "serve.cache_misses") );
    per_batch "dred.overdeleted";
    per_batch "dred.rederived";
    per_batch "dred.delta_apps";
    per_batch "dred.putback_apps";
    per_batch "dred.full_apps";
  ]
