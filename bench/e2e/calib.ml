(* The calibration: a fixed computation, about 20 ms, that uses nothing of
   the repository.  It hashes, sorts, builds a balanced tree and allocates
   in a fresh process, as the timed operations do, so that a slower stretch
   of a shared host slows it about as much as it slows them.  See
   [Harness.rounds] for how its time scales the latencies. *)

let run () =
  let n = 20_000 in
  let h = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace h ((i * 7919) land 0xFFFFF) (Array.make 3 i)
  done;
  let hits = ref 0 in
  for i = 0 to (2 * n) - 1 do
    if Hashtbl.mem h ((i * 104729) land 0xFFFFF) then incr hits
  done;
  let a = Array.init n (fun i -> i * 48271 mod 2147483647) in
  Array.sort compare a;
  let module M = Map.Make (Int) in
  let m = ref M.empty in
  for i = 0 to n - 1 do
    m := M.add a.(i * 31 mod n) i !m
  done;
  let b = Buffer.create 16 in
  M.iter (fun k v -> if v land 7 = 0 then Buffer.add_string b (string_of_int k)) !m;
  ignore (Sys.opaque_identity (!hits, Buffer.length b))
