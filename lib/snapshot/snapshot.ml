(* Versioned binary snapshots.  See the .mli for the format layout.

   Two invariants carry the whole design:

   - {e Canonical encoding}: every variable part of the file is either
     derived from the model (dictionary ids, section offsets) or sorted
     (symbol names, relation directory, tuple rows), so
     [encode] is a pure function of the model and re-snapshotting a
     restored model reproduces the bytes exactly, whatever the process's
     intern order.

   - {e Fail-closed decoding with no global effects}: [decode] works
     entirely on local ints and strings — it never interns a symbol or
     tuple — and validates structure (CRCs over every byte, strict sort
     order, exact section consumption, contiguity of the tuple spans)
     before [restore] is allowed to touch the global tables.  A damaged
     file therefore yields a located [Error] and leaves the process
     untouched. *)

module Database = Relalg.Database
module Relation = Relalg.Relation
module Symbol = Relalg.Symbol
module Store = Relalg.Store
module Idset = Relalg.Idset
module Tuple = Relalg.Tuple
module Pretty = Datalog.Pretty

type error =
  | Io of string
  | Corrupt of { section : string; reason : string }
  | Version_skew of { found : int; supported : int }
  | Program_mismatch of { snapshot : string; loaded : string }
  | Semantics_mismatch of { snapshot : string; loaded : string }
  | Database_mismatch

let error_to_string = function
  | Io m -> "snapshot: " ^ m
  | Corrupt { section; reason } ->
    Printf.sprintf "snapshot: corrupt %s section (%s)" section reason
  | Version_skew { found; supported } ->
    Printf.sprintf
      "snapshot: format version %d, but this build reads version %d — \
       regenerate the snapshot with this binary"
      found supported
  | Program_mismatch { snapshot; loaded } ->
    Printf.sprintf
      "snapshot: taken for a different program (snapshot fingerprint %s, \
       loaded program %s) — pass the program the snapshot was taken for, \
       or regenerate it"
      snapshot loaded
  | Semantics_mismatch { snapshot; loaded } ->
    Printf.sprintf
      "snapshot: taken under %s semantics, but %s was requested — \
       regenerate the snapshot"
      snapshot loaded
  | Database_mismatch ->
    "snapshot: EDB digest does not match the database — the snapshot is \
     stale; re-evaluate to regenerate it"

let format_version = 1

let magic = "NEGDLSNP"

type kind = Edb | Idb | Unknown

type relation_image = {
  kind : kind;
  name : string;
  arity : int;
  row_count : int;
  word_off : int;
}

type image = {
  symbols : string array;
  relations : relation_image list;
  words : int array;
  program_md5 : string;
  semantics : string;
  edb_digest : string;
}

let kind_code = function Edb -> 0 | Idb -> 1 | Unknown -> 2

let kind_of_code = function
  | 0 -> Some Edb
  | 1 -> Some Idb
  | 2 -> Some Unknown
  | _ -> None

let section_name = function
  | 1 -> "symbols"
  | 2 -> "relations"
  | 3 -> "tuples"
  | 4 -> "program"
  | _ -> "unknown"

let compare_row (a : int array) (b : int array) =
  let n = Array.length a in
  let rec go i =
    if i = n then 0
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* --- fingerprints ------------------------------------------------------- *)

let digest_hex = Digest.to_hex

let program_digest p = Digest.string (Pretty.program_to_string p)

(* Capture's working form: one relation's rows as dictionary-id arrays,
   before they are flattened into the image's single word array. *)
type rel_rows = {
  rr_kind : kind;
  rr_name : string;
  rr_arity : int;
  rr_rows : int array array;
}

(* The EDB digest covers the canonical bytes of the universe and the EDB
   relations — computed identically from a live [Database.t]
   ([database_digest]) and by [capture], so the [--snapshot] fast paths
   can compare a snapshot against a freshly parsed database without
   restoring it. *)
let edb_digest_of ~names ~(edb : rel_rows list) =
  let b = Buffer.create 1024 in
  Codec.add_u32 b (Array.length names);
  Array.iter (Codec.add_str b) names;
  List.iter
    (fun rr ->
      Codec.add_str b rr.rr_name;
      Codec.add_u32 b rr.rr_arity;
      Codec.add_u32 b (Array.length rr.rr_rows);
      Array.iter (fun row -> Array.iter (Codec.add_u32 b) row) rr.rr_rows)
    edb;
  Digest.string (Buffer.contents b)

(* --- capture ------------------------------------------------------------ *)

exception Out_of_universe of string

(* The dictionary is the universe, name-sorted; [sym_to_dict] maps a
   process-local symbol id to its dictionary position, -1 when the symbol
   is not in the universe. *)
let dictionary_of db =
  let universe = Database.universe db in
  let names =
    List.map Symbol.name universe |> List.sort String.compare |> Array.of_list
  in
  let sym_to_dict = Array.make (Symbol.count ()) (-1) in
  Array.iteri
    (fun d name -> sym_to_dict.(Symbol.to_int (Symbol.intern name)) <- d)
    names;
  (* Interning pre-existing universe names allocates nothing new. *)
  (names, sym_to_dict)

let rows_of_relation sym_to_dict kind name r =
  let dict_of_word w =
    let d = if w < Array.length sym_to_dict then sym_to_dict.(w) else -1 in
    if d < 0 then raise (Out_of_universe name) else d
  in
  let acc = ref [] in
  (* Stream rows straight out of the packed store arrays — no per-tuple
     boxing.  The encoded rows are dictionary-coded and sorted below, so
     the output bytes are independent of intern order. *)
  let v = Store.view () in
  Idset.iter
    (fun id ->
      let off = v.Store.v_off.(id) and len = v.Store.v_len.(id) in
      acc := Array.init len (fun j -> dict_of_word v.Store.v_data.(off + j)) :: !acc)
    (Relation.ids r);
  let rows = Array.of_list !acc in
  Array.sort compare_row rows;
  { rr_kind = kind; rr_name = name; rr_arity = Relation.arity r; rr_rows = rows }

let edb_images sym_to_dict db =
  (* [Database.relations] is already name-sorted. *)
  List.map
    (fun (name, r) -> rows_of_relation sym_to_dict Edb name r)
    (Database.relations db)

let database_digest db =
  let names, sym_to_dict = dictionary_of db in
  edb_digest_of ~names ~edb:(edb_images sym_to_dict db)

(* Flatten the per-relation row arrays into the image's single word array,
   recording each relation's span. *)
let flatten rels =
  let total =
    List.fold_left
      (fun acc rr -> acc + (rr.rr_arity * Array.length rr.rr_rows))
      0 rels
  in
  let data = Array.make total 0 in
  let off = ref 0 in
  let images =
    List.map
      (fun rr ->
        let word_off = !off in
        Array.iter
          (fun row ->
            Array.iter
              (fun w ->
                data.(!off) <- w;
                incr off)
              row)
          rr.rr_rows;
        {
          kind = rr.rr_kind;
          name = rr.rr_name;
          arity = rr.rr_arity;
          row_count = Array.length rr.rr_rows;
          word_off;
        })
      rels
  in
  (images, data)

let capture ?(unknown = []) ~program ~semantics ~db idb =
  let names, sym_to_dict = dictionary_of db in
  let sorted group =
    List.sort (fun (a, _) (b, _) -> String.compare a b) group
  in
  match
    let edb = edb_images sym_to_dict db in
    let idb =
      List.map
        (fun (name, r) -> rows_of_relation sym_to_dict Idb name r)
        (sorted idb)
    in
    let unknown =
      List.map
        (fun (name, r) -> rows_of_relation sym_to_dict Unknown name r)
        (sorted unknown)
    in
    let relations, words = flatten (edb @ idb @ unknown) in
    {
      symbols = names;
      relations;
      words;
      program_md5 = program_digest program;
      semantics;
      edb_digest = edb_digest_of ~names ~edb;
    }
  with
  | image -> Ok image
  | exception Out_of_universe name ->
    Error
      (Io
         (Printf.sprintf
            "cannot snapshot: relation %s holds a constant outside the \
             database universe"
            name))

(* --- encode ------------------------------------------------------------- *)

let encode_symbols image =
  let b = Buffer.create 1024 in
  Codec.add_u32 b (Array.length image.symbols);
  Array.iter (Codec.add_str b) image.symbols;
  Buffer.contents b

let encode_relations image =
  let b = Buffer.create 256 in
  Codec.add_u32 b (List.length image.relations);
  List.iter
    (fun ri ->
      Codec.add_u8 b (kind_code ri.kind);
      Codec.add_str b ri.name;
      Codec.add_u32 b ri.arity;
      Codec.add_u32 b ri.row_count;
      Codec.add_u64 b ri.word_off)
    image.relations;
  Buffer.contents b

let encode_tuples image =
  let words = Array.length image.words in
  let b = Buffer.create (max 64 (8 + (4 * words))) in
  Codec.add_u64 b words;
  Array.iter (Codec.add_u32 b) image.words;
  Buffer.contents b

let encode_program image =
  if String.length image.program_md5 <> 16 then
    invalid_arg "Snapshot.encode: program_md5 must be 16 bytes";
  if String.length image.edb_digest <> 16 then
    invalid_arg "Snapshot.encode: edb_digest must be 16 bytes";
  let b = Buffer.create 64 in
  Buffer.add_string b image.program_md5;
  Codec.add_str b image.semantics;
  Buffer.add_string b image.edb_digest;
  Buffer.contents b

let encode image =
  let sections =
    [
      (1, encode_symbols image);
      (2, encode_relations image);
      (3, encode_tuples image);
      (4, encode_program image);
    ]
  in
  let header_len = 20 + (24 * List.length sections) + 4 in
  let hb = Buffer.create header_len in
  Buffer.add_string hb magic;
  Codec.add_u32 hb format_version;
  (* Flags: none are defined, and [decode] refuses any set bit. *)
  Codec.add_u32 hb 0;
  Codec.add_u32 hb (List.length sections);
  let off = ref header_len in
  List.iter
    (fun (id, body) ->
      Codec.add_u32 hb id;
      Codec.add_u64 hb !off;
      Codec.add_u64 hb (String.length body);
      Codec.add_u32 hb (Codec.crc32 body ~pos:0 ~len:(String.length body));
      off := !off + String.length body)
    sections;
  let head = Buffer.contents hb in
  let out = Buffer.create !off in
  Buffer.add_string out head;
  Codec.add_u32 out (Codec.crc32 head ~pos:0 ~len:(String.length head));
  List.iter (fun (_, body) -> Buffer.add_string out body) sections;
  Buffer.contents out

(* --- decode ------------------------------------------------------------- *)

exception Fail of error

let corrupt section reason = raise (Fail (Corrupt { section; reason }))

(* Runs a section parser with [Codec.Short] converted into a located
   [Corrupt] — the only exceptions a parser may raise. *)
let in_section name f =
  try f () with Codec.Short what -> corrupt name ("truncated: " ^ what)

let parse_symbols r =
  in_section "symbols" @@ fun () ->
  let count = Codec.u32 r in
  (* Each symbol needs at least its 4-byte length field, so a forged count
     cannot out-allocate the section. *)
  if count > Codec.remaining r / 4 then
    corrupt "symbols" "symbol count exceeds section size";
  (* Explicit loops throughout the parsers: [Array.init]/[List.init] do not
     specify evaluation order, and these reads advance a cursor. *)
  let names = Array.make count "" in
  for i = 0 to count - 1 do
    names.(i) <- Codec.str r
  done;
  for i = 1 to count - 1 do
    if String.compare names.(i - 1) names.(i) >= 0 then
      corrupt "symbols" "dictionary not strictly name-sorted"
  done;
  if not (Codec.at_end r) then corrupt "symbols" "trailing bytes";
  names

type dir_entry = {
  d_kind : kind;
  d_name : string;
  d_arity : int;
  d_rows : int;
}

let parse_relations r =
  in_section "relations" @@ fun () ->
  let count = Codec.u32 r in
  if count > Codec.remaining r / 21 then
    corrupt "relations" "relation count exceeds section size";
  let words = ref 0 in
  let entries =
    Array.make count { d_kind = Edb; d_name = ""; d_arity = 0; d_rows = 0 }
  in
  for i = 0 to count - 1 do
    let kind =
      match kind_of_code (Codec.u8 r) with
      | Some k -> k
      | None -> corrupt "relations" "unknown relation kind"
    in
    let name = Codec.str r in
    let arity = Codec.u32 r in
    let rows = Codec.u32 r in
    let word_off = Codec.u64 r in
    if word_off <> !words then corrupt "relations" "tuple spans not contiguous";
    if arity > 0 && rows > (max_int - !words) / arity then
      corrupt "relations" "tuple word count overflows";
    words := !words + (arity * rows);
    entries.(i) <- { d_kind = kind; d_name = name; d_arity = arity; d_rows = rows }
  done;
  for i = 1 to count - 1 do
    let a = entries.(i - 1) and b = entries.(i) in
    let c = Int.compare (kind_code a.d_kind) (kind_code b.d_kind) in
    let c = if c <> 0 then c else String.compare a.d_name b.d_name in
    if c >= 0 then corrupt "relations" "directory not sorted by (kind, name)"
  done;
  if not (Codec.at_end r) then corrupt "relations" "trailing bytes";
  (entries, !words)

(* The tuples section decodes to one flat word array — the hot loop of a
   restore, so no per-row allocation; sortedness is validated in place. *)
let parse_tuples r ~entries ~dir_words ~nsyms =
  in_section "tuples" @@ fun () ->
  let words = Codec.u64 r in
  if words <> dir_words then
    corrupt "tuples" "word count disagrees with the relation directory";
  if Codec.remaining r <> 4 * words then
    corrupt "tuples" "section size disagrees with word count";
  let data = Array.make words 0 in
  for i = 0 to words - 1 do
    let w = Codec.u32 r in
    if w >= nsyms then corrupt "tuples" "dictionary id out of range";
    data.(i) <- w
  done;
  let off = ref 0 in
  Array.iter
    (fun e ->
      let base = !off in
      for i = 1 to e.d_rows - 1 do
        let a = base + ((i - 1) * e.d_arity)
        and b = base + (i * e.d_arity) in
        let rec cmp j =
          if j = e.d_arity then 0
          else
            let c = Int.compare data.(a + j) data.(b + j) in
            if c <> 0 then c else cmp (j + 1)
        in
        if cmp 0 >= 0 then corrupt "tuples" "rows not strictly sorted"
      done;
      off := base + (e.d_rows * e.d_arity))
    entries;
  data

let parse_program r =
  in_section "program" @@ fun () ->
  let program_md5 = Codec.take r 16 "program digest" in
  let semantics = Codec.str r in
  let edb_digest = Codec.take r 16 "edb digest" in
  if not (Codec.at_end r) then corrupt "program" "trailing bytes";
  (program_md5, semantics, edb_digest)

let decode buf =
  try
    let dim = Bigarray.Array1.dim buf in
    let r =
      in_section "header" @@ fun () -> Codec.reader buf ~pos:0 ~len:dim
    in
    in_section "header" (fun () ->
        if Codec.take r 8 "magic" <> magic then corrupt "header" "bad magic");
    let version = in_section "header" (fun () -> Codec.u32 r) in
    if version <> format_version then
      raise (Fail (Version_skew { found = version; supported = format_version }));
    let count =
      in_section "header" @@ fun () ->
      (match Codec.u32 r with
      | 0 -> ()
      | 1 -> corrupt "header" "planner overrides are no longer supported"
      | _ -> corrupt "header" "unknown flag bits");
      Codec.u32 r
    in
    let expected_ids = [ 1; 2; 3; 4 ] in
    if count <> List.length expected_ids then
      corrupt "header" "wrong section count";
    let table =
      in_section "header" @@ fun () ->
      List.rev
        (List.fold_left
           (fun acc expected_id ->
             let id = Codec.u32 r in
             if id <> expected_id then corrupt "header" "unexpected section id";
             let off = Codec.u64 r in
             let len = Codec.u64 r in
             let crc = Codec.u32 r in
             (id, off, len, crc) :: acc)
           [] expected_ids)
    in
    let header_len = 20 + (24 * count) + 4 in
    let stored_hcrc = in_section "header" (fun () -> Codec.u32 r) in
    if Codec.crc32_big buf ~pos:0 ~len:(header_len - 4) <> stored_hcrc then
      corrupt "header" "header checksum mismatch";
    (* Layout: contiguous sections starting right after the header,
       covering the file exactly. *)
    let next = ref header_len in
    List.iter
      (fun (id, off, len, crc) ->
        let name = section_name id in
        if off <> !next then corrupt name "not contiguous with previous section";
        if off + len > dim then corrupt name "truncated";
        if Codec.crc32_big buf ~pos:off ~len <> crc then
          corrupt name "checksum mismatch";
        next := off + len)
      table;
    if !next <> dim then corrupt "trailer" "trailing bytes after last section";
    let reader_of id =
      let _, off, len, _ = List.find (fun (i, _, _, _) -> i = id) table in
      Codec.reader buf ~pos:off ~len
    in
    let symbols = parse_symbols (reader_of 1) in
    let entries, dir_words = parse_relations (reader_of 2) in
    let words =
      parse_tuples (reader_of 3) ~entries ~dir_words
        ~nsyms:(Array.length symbols)
    in
    let relations, _ =
      Array.fold_left
        (fun (acc, off) e ->
          ( {
              kind = e.d_kind;
              name = e.d_name;
              arity = e.d_arity;
              row_count = e.d_rows;
              word_off = off;
            }
            :: acc,
            off + (e.d_arity * e.d_rows) ))
        ([], 0) entries
    in
    let program_md5, semantics, edb_digest = parse_program (reader_of 4) in
    Ok
      {
        symbols;
        relations = List.rev relations;
        words;
        program_md5;
        semantics;
        edb_digest;
      }
  with Fail e -> Error e

let decode_string s = decode (Codec.of_string s)

(* --- files -------------------------------------------------------------- *)

let write_file path image =
  let data = encode image in
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc data);
    Sys.rename tmp path
  with
  | () -> Ok (String.length data)
  | exception Sys_error m -> Error (Io m)
  | exception Unix.Unix_error (e, _, p) ->
    Error (Io (Printf.sprintf "%s: %s" p (Unix.error_message e)))

let read_file path =
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let len = (Unix.fstat fd).Unix.st_size in
        try
          Bigarray.array1_of_genarray
            (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| len |])
        with _ ->
          (* Empty or unmappable (special) file: plain sequential read. *)
          let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout len in
          let chunk = Bytes.create 65536 in
          let pos = ref 0 in
          let rec loop () =
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              for i = 0 to n - 1 do
                Bigarray.Array1.set b (!pos + i) (Bytes.get chunk i)
              done;
              pos := !pos + n;
              loop ()
            end
          in
          loop ();
          if !pos <> len then raise (Fail (Io (path ^ ": short read")));
          b)
  with
  | buf -> decode buf
  | exception Fail e -> Error e
  | exception Unix.Unix_error (e, _, _) ->
    Error (Io (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  | exception Sys_error m -> Error (Io m)

(* --- restore ------------------------------------------------------------ *)

type restored = {
  r_db : Database.t;
  r_idb : (string * Relation.t) list;
  r_unknown : (string * Relation.t) list;
}

let restore ?storage:(_ : Relation.storage option) image =
  let syms = Array.map Symbol.intern image.symbols in
  let words = image.words in
  let relation_of ri =
    if ri.arity = 0 then
      (* At most one row (the empty tuple, validated by decode). *)
      Relation.of_array 0 (Array.make ri.row_count Tuple.empty)
    else begin
      (* Translate the span's dictionary ids to symbols in one flat
         sweep; [of_flat_rows] interns the rows in place from there —
         no per-row boxing anywhere on this path. *)
      let wlen = ri.row_count * ri.arity in
      let flat =
        Array.init wlen (fun i -> syms.(words.(ri.word_off + i)))
      in
      Relation.of_flat_rows ri.arity flat
    end
  in
  let db, idb, unknown =
    List.fold_left
      (fun (db, idb, unknown) ri ->
        match ri.kind with
        | Edb ->
          (Database.set_relation ri.name (relation_of ri) db, idb, unknown)
        | Idb -> (db, (ri.name, relation_of ri) :: idb, unknown)
        | Unknown -> (db, idb, (ri.name, relation_of ri) :: unknown))
      (Database.create ~universe:(Array.to_list syms), [], [])
      image.relations
  in
  Ok
    {
      r_db = db;
      r_idb = List.rev idb;
      r_unknown = List.rev unknown;
    }

let check_program image ~program ~semantics =
  if image.semantics <> semantics then
    Error
      (Semantics_mismatch { snapshot = image.semantics; loaded = semantics })
  else
    let loaded = program_digest program in
    if image.program_md5 <> loaded then
      Error
        (Program_mismatch
           {
             snapshot = digest_hex image.program_md5;
             loaded = digest_hex loaded;
           })
    else Ok ()
