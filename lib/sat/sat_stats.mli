(** Counters for the SAT search layer.

    Process-global and atomic, so a library caller may bump them from
    several domains.  The CLI
    surfaces a {!snapshot} through the [--stats] flag; the benchmark
    harness reads components counted and budget exhaustions. *)

val reset : unit -> unit

val budget_exhausted : unit -> unit

val component_counted : unit -> unit

val snapshot : unit -> (string * int) list
(** Current values as printable [(name, value)] pairs. *)
