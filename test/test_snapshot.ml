(* Tests for the versioned binary snapshot layer.

   The roundtrip oracle: saturate a random program on a random EDB, capture
   a snapshot, restore it, and the restored model must fingerprint-equal the
   original, and snapshotting the restored model must reproduce the file
   byte for byte (the encoding is canonical: dictionary ids, universal
   sorting).

   The corruption battery: every prefix truncation, every single-byte flip,
   seeded multi-byte flips and a trailing-garbage file must each yield a
   typed [Error] naming the failing section — never an exception — and
   must leave the global intern tables exactly as they were. *)

module Parser = Datalog.Parser
module Stratified = Evallib.Stratified
module Idb = Evallib.Idb
module Database = Relalg.Database
module Relation = Relalg.Relation
module Tuple = Relalg.Tuple
module Symbol = Relalg.Symbol
module Store = Relalg.Store
module Snapshot = Snapshotlib.Snapshot
module Codec = Snapshotlib.Codec
module Gen_programs = Testsupport.Gen_programs

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let ok_or_fail to_string = function
  | Ok v -> v
  | Error e -> Alcotest.fail (to_string e)

let snap_ok v = ok_or_fail Snapshot.error_to_string v

let tc =
  Parser.parse_program_exn "s(X, Y) :- e(X, Y). s(X, Y) :- e(X, Z), s(Z, Y)."

let path_db n =
  Graphlib.Digraph.to_database (Graphlib.Generate.path n)

let idb_of_bindings program bindings =
  List.fold_left
    (fun idb (name, rel) -> Idb.set idb name rel)
    (Idb.of_program program) bindings

(* Saturate, capture and encode. *)
let encode_of program db =
  let idb =
    ok_or_fail Stratified.error_to_string (Stratified.eval program db)
  in
  let image =
    snap_ok
      (Snapshot.capture ~program ~semantics:"stratified" ~db
         (Idb.bindings idb))
  in
  (idb, Snapshot.encode image)

(* --- codec primitives ----------------------------------------------------- *)

let test_crc32 () =
  (* The standard CRC-32 (IEEE) check vector. *)
  let s = "123456789" in
  check int "check vector" 0xCBF43926 (Codec.crc32 s ~pos:0 ~len:9);
  check int "bigstring agrees" 0xCBF43926
    (Codec.crc32_big (Codec.of_string s) ~pos:0 ~len:9);
  check int "empty" 0 (Codec.crc32 "" ~pos:0 ~len:0);
  check int "substring" (Codec.crc32 "345" ~pos:0 ~len:3)
    (Codec.crc32 s ~pos:2 ~len:3)

let test_codec_guards () =
  let b = Buffer.create 16 in
  (try
     Codec.add_u32 b (-1);
     Alcotest.fail "u32 accepted a negative"
   with Invalid_argument _ -> ());
  (try
     Codec.add_u32 b (1 lsl 32);
     Alcotest.fail "u32 accepted 2^32"
   with Invalid_argument _ -> ());
  (try
     Codec.add_u64 b (-1);
     Alcotest.fail "u64 accepted a negative"
   with Invalid_argument _ -> ());
  (* Reads past the window raise Short, never index out of range. *)
  let r = Codec.reader (Codec.of_string "\x01\x02") ~pos:0 ~len:2 in
  (try
     ignore (Codec.u32 r);
     Alcotest.fail "u32 read past the window"
   with Codec.Short _ -> ());
  (* A u64 with the top bits set cannot be a valid offset. *)
  let r =
    Codec.reader (Codec.of_string "\x00\x00\x00\x00\x00\x00\x00\xff") ~pos:0
      ~len:8
  in
  (try
     ignore (Codec.u64 r);
     Alcotest.fail "u64 accepted a value beyond max_int"
   with Codec.Short _ -> ());
  (* Roundtrip through the buffer writers. *)
  let b = Buffer.create 16 in
  Codec.add_u8 b 7;
  Codec.add_u32 b 0xFFFFFFFF;
  Codec.add_u64 b max_int;
  Codec.add_str b "hi";
  let r =
    Codec.reader (Codec.of_string (Buffer.contents b)) ~pos:0
      ~len:(Buffer.length b)
  in
  check int "u8" 7 (Codec.u8 r);
  check int "u32 max" 0xFFFFFFFF (Codec.u32 r);
  check bool "u64 max_int" true (Codec.u64 r = max_int);
  check string "str" "hi" (Codec.str r);
  check bool "at_end" true (Codec.at_end r)

(* --- roundtrip: fixed workload -------------------------------------------- *)

let test_roundtrip_fixed () =
  let db = path_db 6 in
  let idb0, bytes0 = encode_of tc db in
  (* Canonical encoding: a second evaluation of the same model encodes to
     the same bytes. *)
  check bool "re-evaluation encodes identically" true
    (String.equal bytes0 (snd (encode_of tc db)));
  let image = snap_ok (Snapshot.decode_string bytes0) in
  let restored = snap_ok (Snapshot.restore image) in
  let ridb = idb_of_bindings tc restored.Snapshot.r_idb in
  check bool "restored model equals original" true (Idb.equal idb0 ridb);
  check int "fingerprints agree" (Idb.fingerprint idb0) (Idb.fingerprint ridb);
  check bool "restored EDB digest matches" true
    (String.equal
       (Snapshot.database_digest restored.Snapshot.r_db)
       (Snapshot.database_digest db));
  (* Snapshotting the restored model reproduces the file byte for byte. *)
  let image' =
    snap_ok
      (Snapshot.capture ~program:tc ~semantics:"stratified"
         ~db:restored.Snapshot.r_db restored.Snapshot.r_idb)
  in
  check bool "second snapshot is byte-identical" true
    (String.equal bytes0 (Snapshot.encode image'))

(* --- roundtrip: qcheck differential oracle -------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"snapshot roundtrip oracle" ~count:40
    Gen_programs.arb_case (fun (program0, db) ->
      (* Keep stratifiable inputs as they are (negation included); rescue
         the rest by dropping negative literals. *)
      let program =
        match Stratified.eval program0 db with
        | Ok _ -> program0
        | Error _ -> Gen_programs.positivise program0
      in
      let idb0, bytes0 = encode_of program db in
      if not (String.equal bytes0 (snd (encode_of program db))) then
        QCheck.Test.fail_report "re-evaluation changed the encoding";
      let image = snap_ok (Snapshot.decode_string bytes0) in
      let restored = snap_ok (Snapshot.restore image) in
      let ridb = idb_of_bindings program restored.Snapshot.r_idb in
      if not (Idb.equal idb0 ridb) then
        QCheck.Test.fail_report "restored model differs";
      if Idb.fingerprint idb0 <> Idb.fingerprint ridb then
        QCheck.Test.fail_report "restored fingerprint differs";
      let image' =
        snap_ok
          (Snapshot.capture ~program ~semantics:"stratified"
             ~db:restored.Snapshot.r_db restored.Snapshot.r_idb)
      in
      if not (String.equal bytes0 (Snapshot.encode image')) then
        QCheck.Test.fail_report "second snapshot not byte-identical";
      true)

(* --- corruption battery --------------------------------------------------- *)

let known_sections =
  [ "header"; "symbols"; "relations"; "tuples"; "program"; "trailer" ]

(* A snapshot exercising every section: symbols, EDB + IDB + unknown
   relations and program fingerprints. *)
let battery_bytes () =
  let db = path_db 5 in
  let idb =
    ok_or_fail Stratified.error_to_string (Stratified.eval tc db)
  in
  let v i = Graphlib.Digraph.vertex_symbol i in
  let unknown =
    [ ("w", Relation.of_list 2 [ Tuple.pair (v 0) (v 3); Tuple.pair (v 1) (v 2) ]) ]
  in
  let image =
    snap_ok
      (Snapshot.capture ~unknown ~program:tc ~semantics:"stratified" ~db
         (Idb.bindings idb))
  in
  Snapshot.encode image

(* Decode must answer corruption with [Error], never an exception. *)
let expect_error what s =
  match Snapshot.decode_string s with
  | Ok _ -> Alcotest.failf "%s: corrupt snapshot decoded Ok" what
  | Error e -> e
  | exception exn ->
    Alcotest.failf "%s: decode raised %s" what (Printexc.to_string exn)

let check_error_is_typed what = function
  | Snapshot.Corrupt { section; _ } ->
    if not (List.mem section known_sections) then
      Alcotest.failf "%s: unknown section %S in error" what section
  | Snapshot.Version_skew _ | Snapshot.Io _ -> ()
  | Snapshot.Program_mismatch _ | Snapshot.Semantics_mismatch _
  | Snapshot.Database_mismatch ->
    Alcotest.failf "%s: structural damage reported as a fingerprint error"
      what

let flip s pos mask =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
  Bytes.to_string b

let test_corruption_battery () =
  let bytes = battery_bytes () in
  let len = String.length bytes in
  let syms_before = Symbol.count () in
  let store_before = Store.count () in
  (* Every proper prefix must fail: truncation at any point — section
     boundaries included — is caught. *)
  for k = 0 to len - 1 do
    let what = Printf.sprintf "truncated to %d bytes" k in
    check_error_is_typed what (expect_error what (String.sub bytes 0 k))
  done;
  (* Every single-byte flip must fail: each byte is covered by a CRC (or,
     for the version field, by an explicit check). *)
  for pos = 0 to len - 1 do
    let what = Printf.sprintf "byte %d flipped" pos in
    check_error_is_typed what (expect_error what (flip bytes pos 0xFF))
  done;
  (* Seeded random multi-byte flips. *)
  let rng = Negdl_util.Prng.create 0xBADC0DE in
  let next bound = Negdl_util.Prng.int rng bound in
  for trial = 0 to 199 do
    let s = ref bytes in
    for _ = 0 to next 3 do
      s := flip !s (next len) (1 + next 255)
    done;
    if not (String.equal !s bytes) then
      let what = Printf.sprintf "random flip trial %d" trial in
      check_error_is_typed what (expect_error what !s)
  done;
  (* Trailing garbage is damage too, not slack. *)
  (match expect_error "trailing byte" (bytes ^ "\x00") with
  | Snapshot.Corrupt { section = "trailer"; _ } -> ()
  | e ->
    Alcotest.failf "trailing byte: expected a trailer error, got %s"
      (Snapshot.error_to_string e));
  (* No failed decode touched the global intern tables. *)
  check int "symbol table untouched" syms_before (Symbol.count ());
  check int "tuple store untouched" store_before (Store.count ())

(* Read the section table back out of the header to aim truncations at
   specific sections. *)
let section_table bytes =
  let r =
    Codec.reader (Codec.of_string bytes) ~pos:0 ~len:(String.length bytes)
  in
  let magic = Codec.take r 8 "magic" in
  check string "magic" "NEGDLSNP" magic;
  check int "format version" Snapshot.format_version (Codec.u32 r);
  let _flags = Codec.u32 r in
  let count = Codec.u32 r in
  List.init count (fun _ ->
      let id = Codec.u32 r in
      let off = Codec.u64 r in
      let len = Codec.u64 r in
      let _crc = Codec.u32 r in
      (id, off, len))

let section_name = function
  | 1 -> "symbols"
  | 2 -> "relations"
  | 3 -> "tuples"
  | 4 -> "program"
  | id -> Printf.sprintf "unknown(%d)" id

let test_truncation_names_sections () =
  let bytes = battery_bytes () in
  let table = section_table bytes in
  check int "all four sections present" 4 (List.length table);
  List.iter
    (fun (id, off, len) ->
      check bool (section_name id ^ " is non-empty") true (len > 0);
      (* Cut one byte short of the section's end: everything before it is
         intact, so the error must name this section. *)
      let what = Printf.sprintf "cut inside %s" (section_name id) in
      match expect_error what (String.sub bytes 0 (off + len - 1)) with
      | Snapshot.Corrupt { section; reason } ->
        check string (what ^ " names the section") (section_name id) section;
        check bool (what ^ " says truncated") true
          (contains ~needle:"truncated" reason)
      | e ->
        Alcotest.failf "%s: expected Corrupt, got %s" what
          (Snapshot.error_to_string e))
    table

let test_header_field_perturbations () =
  let bytes = battery_bytes () in
  let corrupt_header what s =
    match expect_error what s with
    | Snapshot.Corrupt { section = "header"; _ } -> ()
    | e ->
      Alcotest.failf "%s: expected a header error, got %s" what
        (Snapshot.error_to_string e)
  in
  corrupt_header "magic" (flip bytes 0 0x20);
  (* The version field is checked before the header CRC: a future format
     is reported as skew, not as damage. *)
  (match expect_error "version" (flip bytes 8 0x06) with
  | Snapshot.Version_skew { found; supported } ->
    check int "found version" 7 found;
    check int "supported version" Snapshot.format_version supported;
    check bool "skew message says regenerate" true
      (contains ~needle:"regenerate"
         (Snapshot.error_to_string
            (Snapshot.Version_skew { found; supported })))
  | e ->
    Alcotest.failf "version: expected Version_skew, got %s"
      (Snapshot.error_to_string e));
  corrupt_header "flags" (flip bytes 12 0x80);
  corrupt_header "section count" (flip bytes 16 0x01);
  corrupt_header "table entry" (flip bytes 21 0xFF);
  (* The header CRC is the last 4 bytes before the first section. *)
  let _, first_off, _ =
    List.hd (List.sort (fun (_, a, _) (_, b, _) -> compare a b)
               (section_table bytes))
  in
  corrupt_header "header crc" (flip bytes (first_off - 1) 0xFF)

(* --- fingerprint guards --------------------------------------------------- *)

let test_program_guards () =
  let db = path_db 4 in
  let idb =
    ok_or_fail Stratified.error_to_string (Stratified.eval tc db)
  in
  let image =
    snap_ok
      (Snapshot.capture ~program:tc ~semantics:"stratified" ~db
         (Idb.bindings idb))
  in
  let image = snap_ok (Snapshot.decode_string (Snapshot.encode image)) in
  check bool "same program checks out" true
    (Result.is_ok
       (Snapshot.check_program image ~program:tc ~semantics:"stratified"));
  check bool "stored digest is the program digest" true
    (String.equal image.Snapshot.program_md5 (Snapshot.program_digest tc));
  let other = Parser.parse_program_exn "s(X, Y) :- e(X, Y)." in
  (match Snapshot.check_program image ~program:other ~semantics:"stratified"
   with
  | Error (Snapshot.Program_mismatch { snapshot; loaded }) ->
    check string "snapshot digest" (Snapshot.digest_hex image.program_md5)
      snapshot;
    check string "loaded digest"
      (Snapshot.digest_hex (Snapshot.program_digest other))
      loaded;
    check bool "message says different program" true
      (contains ~needle:"different program"
         (Snapshot.error_to_string
            (Snapshot.Program_mismatch { snapshot; loaded })))
  | _ -> Alcotest.fail "wrong program accepted");
  (match
     Snapshot.check_program image ~program:tc ~semantics:"wellfounded"
   with
  | Error (Snapshot.Semantics_mismatch { snapshot; loaded }) ->
    check string "snapshot semantics" "stratified" snapshot;
    check string "loaded semantics" "wellfounded" loaded
  | _ -> Alcotest.fail "wrong semantics accepted");
  (* The EDB digest pins the database the model was computed from. *)
  check bool "same database, same digest" true
    (String.equal image.Snapshot.edb_digest (Snapshot.database_digest db));
  check bool "different database, different digest" false
    (String.equal image.Snapshot.edb_digest
       (Snapshot.database_digest (path_db 5)))

(* --- files that carry planner overrides ---------------------------------- *)

(* Flag bit 0 once announced a fifth section of planner overrides.  A plain
   image has four sections; the same image with bit 0 set and its header
   checksum recomputed, so that only the flag is at fault, is refused as a
   header error. *)
let test_overrides_flag_refused () =
  let db = path_db 5 in
  let idb =
    ok_or_fail Stratified.error_to_string (Stratified.eval tc db)
  in
  let bytes =
    Snapshot.encode
      (snap_ok
         (Snapshot.capture ~program:tc ~semantics:"stratified" ~db
            (Idb.bindings idb)))
  in
  let table = section_table bytes in
  check int "a plain image has four sections" 4 (List.length table);
  (* The header ends where the first section starts; its last 4 bytes are
     the header CRC, and the flags word sits at byte 12. *)
  let header_len =
    List.fold_left (fun m (_, off, _) -> min m off) max_int table
  in
  let b = Bytes.of_string bytes in
  Bytes.set_int32_le b 12 1l;
  let crc =
    Codec.crc32 (Bytes.sub_string b 0 (header_len - 4)) ~pos:0
      ~len:(header_len - 4)
  in
  Bytes.set_int32_le b (header_len - 4) (Int32.of_int crc);
  match expect_error "overrides flag" (Bytes.to_string b) with
  | Snapshot.Corrupt { section = "header"; _ } -> ()
  | e ->
    Alcotest.failf "overrides flag: expected a header error, got %s"
      (Snapshot.error_to_string e)

(* --- unknown relations ---------------------------------------------------- *)

let test_unknown_roundtrip () =
  let db = path_db 4 in
  let v i = Graphlib.Digraph.vertex_symbol i in
  let unknown =
    [ ("limbo", Relation.of_list 1 [ Tuple.singleton (v 0) ]) ]
  in
  let image =
    snap_ok
      (Snapshot.capture ~unknown ~program:tc ~semantics:"wellfounded" ~db [])
  in
  let image = snap_ok (Snapshot.decode_string (Snapshot.encode image)) in
  let restored = snap_ok (Snapshot.restore image) in
  (match restored.Snapshot.r_unknown with
  | [ (name, rel) ] ->
    check string "unknown relation name" "limbo" name;
    check int "unknown relation cardinality" 1 (Relation.cardinal rel)
  | l -> Alcotest.failf "expected one unknown relation, got %d" (List.length l));
  check bool "no idb captured" true (restored.Snapshot.r_idb = [])

(* --- files ---------------------------------------------------------------- *)

let test_file_roundtrip () =
  let bytes = battery_bytes () in
  let image = snap_ok (Snapshot.decode_string bytes) in
  let file = Filename.temp_file "negdl_snap_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let written = snap_ok (Snapshot.write_file file image) in
      check int "write_file reports the file size" (String.length bytes)
        written;
      let back = snap_ok (Snapshot.read_file file) in
      check bool "read_file roundtrips" true
        (String.equal bytes (Snapshot.encode back)));
  match Snapshot.read_file "/nonexistent/negdl.snap" with
  | Error (Snapshot.Io _) -> ()
  | Error e ->
    Alcotest.failf "missing file: expected Io, got %s"
      (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "read_file invented a snapshot"

let () =
  Alcotest.run "snapshot"
    [
      ( "codec",
        [
          Alcotest.test_case "crc32 check vector" `Quick test_crc32;
          Alcotest.test_case "primitive guards" `Quick test_codec_guards;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "fixed workload, all combos" `Quick
            test_roundtrip_fixed;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "unknown relations" `Quick test_unknown_roundtrip;
          Alcotest.test_case "files" `Quick test_file_roundtrip;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "battery" `Quick test_corruption_battery;
          Alcotest.test_case "truncation names sections" `Quick
            test_truncation_names_sections;
          Alcotest.test_case "header perturbations" `Quick
            test_header_field_perturbations;
          Alcotest.test_case "overrides flag refused" `Quick
            test_overrides_flag_refused;
        ] );
      ( "guards",
        [ Alcotest.test_case "fingerprints" `Quick test_program_guards ] );
    ]
