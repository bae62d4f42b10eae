(* Host-speed calibration.

   On a shared host the same solve can take 1.5x longer a minute later:
   neighbours contend for memory bandwidth and caches, and CPU time tracks
   wall time, so neither clock removes it.  A fixed memory-bound kernel
   slows down with the workload, so each timed operation is bracketed by
   kernel samples and its wall time is scaled by [reference_s] over their
   mean.  On a host that runs the kernel in [reference_s] the scaled time is
   the wall time.

   The kernel allocates nothing.  A kernel that allocated would run the
   garbage collector's pending work: a sample taken just after a big solve
   would absorb that solve's mark and sweep, so the divisor would grow with
   the garbage of the program it calibrates. *)

let reference_s = 0.0075

let n = 20_000

let data = Float.Array.init n (fun i -> float_of_int (i * 7919 mod 20_011))

(* The working copy, allocated once. *)
let work = Float.Array.make n 0.0

(* In-place heap sort of [work], monomorphic so no float is boxed. *)
let rec sift a i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let r = l + 1 in
    let c = if r < len && Float.Array.get a r > Float.Array.get a l then r else l in
    if Float.Array.get a c > Float.Array.get a i then begin
      let t = Float.Array.get a i in
      Float.Array.set a i (Float.Array.get a c);
      Float.Array.set a c t;
      sift a c len
    end
  end

let heap_sort a =
  let len = Float.Array.length a in
  for i = (len / 2) - 1 downto 0 do
    sift a i len
  done;
  for last = len - 1 downto 1 do
    let t = Float.Array.get a 0 in
    Float.Array.set a 0 (Float.Array.get a last);
    Float.Array.set a last t;
    sift a 0 last
  done

(* Sort three fresh copies of a fixed array: a working set larger than L1,
   data-dependent branches, no allocation. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 3 do
    Float.Array.blit data 0 work 0 n;
    heap_sort work
  done;
  Unix.gettimeofday () -. t0

type t = { mutable last : float  (** the most recent sample *) }

let start () = { last = sample () }

(* Scale factor for the work done since the previous sample. *)
let factor t =
  let after = sample () in
  let f = reference_s /. ((t.last +. after) /. 2.0) in
  t.last <- after;
  f
