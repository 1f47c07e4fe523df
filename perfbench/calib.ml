(* Fixed reference program for the perfbench driver (run.py).

   It depends on nothing but the standard library, so no change to the
   repository's code changes its speed. The driver runs it as a child
   process around every timed CLI command; the CLI command's wall time
   divided by this program's gives a figure that does not move when the
   host turns faster or slower.

   The host's slow phases are contention for caches and memory: they slow
   the CLI's commands and this program's memory-bound work alike, but
   barely touch arithmetic in registers. So every round is memory-bound
   work of the kinds the CLI's commands do: small blocks kept alive in a
   large hash table (minor and major GC), balanced-tree inserts and
   lookups, and dependent loads scattered over a 16 MB array. The one
   stretch of arithmetic, filling that array, is kept short.

     calib.exe ROUNDS   prints one checksum line *)

module IMap = Map.Make (Int)

let () =
  let rounds = int_of_string Sys.argv.(1) in
  let st = ref 12345 in
  let rand () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st
  in
  let table = Hashtbl.create 4096 in
  let n = 2_000_000 in
  let chain = Array.init n (fun _ -> rand () mod n) in
  let sum = ref 0 in
  let p = ref 0 in
  for r = 1 to rounds do
    for i = 1 to 12_000 do
      let k = rand () land 0x3ffff in
      let l = Option.value (Hashtbl.find_opt table k) ~default:[] in
      let l = if List.length l >= 4 then [] else l in
      Hashtbl.replace table k ((i, r, Array.make 4 i) :: l)
    done;
    let m = ref IMap.empty in
    for i = 1 to 6_000 do
      m := IMap.add (rand () land 0xfffff) i !m
    done;
    for _ = 1 to 6_000 do
      match IMap.find_opt (rand () land 0xfffff) !m with
      | Some v -> sum := !sum + v
      | None -> ()
    done;
    for _ = 1 to 600_000 do
      p := chain.(!p);
      sum := !sum + !p
    done
  done;
  Printf.printf "checksum %d\n" ((!sum + Hashtbl.length table) land 0x3fffffff)
