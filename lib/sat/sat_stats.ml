(* Process-global counters for the SAT search layer.  A library caller may
   bump them from several domains, so every cell is an [Atomic.t]. *)

let budget_exhaustions = Atomic.make 0

let components_counted = Atomic.make 0

let reset () =
  Atomic.set budget_exhaustions 0;
  Atomic.set components_counted 0

let budget_exhausted () = Atomic.incr budget_exhaustions

let component_counted () = Atomic.incr components_counted

let snapshot () =
  [
    ("sat components counted", Atomic.get components_counted);
    ("sat budget exhaustions", Atomic.get budget_exhaustions);
  ]
