(* Order statistics for timing samples.

   Percentiles use the nearest-rank definition over permille levels, in
   integer arithmetic, so "how many samples lie beyond p95" is exact (a
   float [0.95 *. n] can round up past the rank it means). *)

let rank ~n ~permille = max 1 ((permille * n + 999) / 1000)

let beyond ~n ~permille = n - rank ~n ~permille

let percentile_sorted sorted ~permille =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.percentile_sorted: no samples";
  sorted.(min (n - 1) (rank ~n ~permille - 1))

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let percentile xs ~permille = percentile_sorted (sorted xs) ~permille

(* Candidate tail levels, highest first: p99.9, p99, p95, p90, p75, p50. *)
let levels = [ 999; 990; 950; 900; 750; 500 ]

(* The highest level with at least this many samples beyond it. *)
let min_beyond = 10

let tail xs =
  let s = sorted xs in
  let n = Array.length s in
  List.find_opt (fun permille -> beyond ~n ~permille >= min_beyond) levels
  |> Option.map (fun permille -> (permille, percentile_sorted s ~permille))

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Pct.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let level_name permille =
  if permille mod 10 = 0 then Printf.sprintf "p%d" (permille / 10)
  else Printf.sprintf "p%d.%d" (permille / 10) (permille mod 10)
