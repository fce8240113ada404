(** Versioned binary snapshots of a materialized model.

    A snapshot persists everything needed to warm-restart evaluation
    without re-saturating: the symbol dictionary, every EDB/IDB relation as
    packed rows of dictionary ids, and the program and EDB fingerprints
    that gate restoring into the wrong process.

    {2 Layout (format version 1)}

    {v
    offset 0   magic "NEGDLSNP"                      8 bytes
               format version                        u32 le
               flags (none defined: always 0)        u32
               section count                         u32
               section table: id, offset, length,    (u32, u64, u64, u32)
                 crc32 per section                     x count
               header crc32 (all bytes above)        u32
    sections, contiguous, in table order:
      1 symbols    u32 count; (u32 len, bytes) x count — the universe,
                   name-sorted strictly ascending
      2 relations  u32 count; per relation: u8 kind (0 edb / 1 idb /
                   2 unknown), name, u32 arity, u32 rows, u64 word
                   offset into section 3 — sorted by (kind, name)
      3 tuples     u64 word count; u32 dictionary ids, each relation's
                   rows sorted lexicographically
      4 program    16-byte MD5 of the program text, semantics string,
                   16-byte EDB digest
    v}

    Earlier builds could set flag bit 0 and append a fifth section of
    planner cardinality overrides; such a file is refused with a [Corrupt]
    error of the header.  Every other file of format version 1 reads as
    before.

    Tuples are encoded as {e dictionary} ids (positions in the name-sorted
    symbol section), never process-local intern ids, and every variable
    part is sorted — so {!encode} is a pure function of the model:
    snapshotting a restored model reproduces the file byte for byte,
    whatever the intern order of the process.

    {2 Fail-closed reading}

    {!decode} (and {!read_file}) validates structure, covers every byte
    with exactly one CRC, and touches no global state: a truncated,
    bit-flipped, version-skewed or otherwise damaged snapshot yields
    [Error] naming the failing section, never an exception, and leaves
    {!Relalg.Store}/{!Relalg.Symbol} exactly as they were.  Symbols are
    interned only by {!restore}, after the caller has also checked
    fingerprints ({!check_program}). *)

type error =
  | Io of string  (** The file could not be read or written. *)
  | Corrupt of { section : string; reason : string }
      (** Structural damage, located to a section ("header", "symbols",
          "relations", "tuples", "program", "trailer"). *)
  | Version_skew of { found : int; supported : int }
      (** The snapshot's format version is not the one this build reads. *)
  | Program_mismatch of { snapshot : string; loaded : string }
      (** Program fingerprints (hex) differ — the snapshot holds some other
          program's model. *)
  | Semantics_mismatch of { snapshot : string; loaded : string }
  | Database_mismatch
      (** The snapshot's EDB digest does not match the supplied database. *)

val error_to_string : error -> string
(** One actionable line, e.g.
    ["snapshot: corrupt tuples section (checksum mismatch)"]. *)

val format_version : int

(** {1 The decoded form} *)

type kind =
  | Edb
  | Idb
  | Unknown  (** Three-valued semantics: facts with unknown truth value. *)

type relation_image = {
  kind : kind;
  name : string;
  arity : int;
  row_count : int;
  word_off : int;
      (** The relation's rows are the [row_count * arity] dictionary ids at
          [words.(word_off) ..] of the enclosing image, row-major, rows
          sorted lexicographically. *)
}

type image = {
  symbols : string array;  (** The universe, name-sorted. *)
  relations : relation_image list;  (** Sorted by (kind, name). *)
  words : int array;
      (** The tuples section as one flat word array — all relations'
          rows, concatenated in table order.  Keeping the decoded form
          flat (no per-row boxing) is what makes restore an array sweep. *)
  program_md5 : string;  (** 16 raw bytes. *)
  semantics : string;  (** E.g. ["stratified"], ["wellfounded"]. *)
  edb_digest : string;  (** 16 raw bytes, see {!database_digest}. *)
}

(** {1 Fingerprints} *)

val program_digest : Datalog.Ast.program -> string
(** 16-byte MD5 of the canonical program text. *)

val database_digest : Relalg.Database.t -> string
(** 16-byte MD5 of the canonical encoding of the universe and EDB
    relations — [capture] stores it and the [--snapshot] fast paths
    compare it against the database on disk to detect a stale snapshot. *)

val digest_hex : string -> string

(** {1 Codec} *)

val encode : image -> string
(** Canonical bytes: equal images encode identically. *)

val decode : Codec.bigstring -> (image, error) result

val decode_string : string -> (image, error) result

val write_file : string -> image -> (int, error) result
(** Writes atomically (temp file + rename); returns the bytes written. *)

val read_file : string -> (image, error) result
(** Maps the file ([Unix.map_file], falling back to a plain read) and
    decodes. *)

(** {1 Model capture and restore} *)

val capture :
  ?unknown:(string * Relalg.Relation.t) list ->
  program:Datalog.Ast.program ->
  semantics:string ->
  db:Relalg.Database.t ->
  (string * Relalg.Relation.t) list ->
  (image, error) result
(** [capture ~program ~semantics ~db idb] snapshots a materialized model.
    The dictionary is the database universe; a tuple mentioning a constant
    outside it yields [Error] (no such model is produced by evaluation).
    Relations stream straight out of the packed {!Relalg.Store} arrays. *)

type restored = {
  r_db : Relalg.Database.t;
  r_idb : (string * Relalg.Relation.t) list;  (** Sorted by name. *)
  r_unknown : (string * Relalg.Relation.t) list;
}

val restore :
  ?storage:Relalg.Relation.storage -> image -> (restored, error) result
(** Interns the dictionary and rebuilds relations with bulk constructors.
    An image that passed {!decode} always restores; the result type and
    [storage], which is ignored, remain for the same reason as
    {!Relalg.Relation.storage}: the frozen [bench/e2e] harness uses
    both. *)

val check_program :
  image ->
  program:Datalog.Ast.program ->
  semantics:string ->
  (unit, error) result
(** Fails closed when the snapshot was taken for a different program or
    semantics. *)
