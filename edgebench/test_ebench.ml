(* Tests of the benchmark's own helpers: percentiles, span self time, the
   calibration kernel, the seeded generator and the churn list. *)

open Ebench

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_tail_level () =
  let level n = Option.map fst (Pct.tail (samples n)) in
  Alcotest.(check (option int)) "n=9: nothing has ten beyond" None (level 9);
  Alcotest.(check (option int)) "n=20: p50" (Some 500) (level 20);
  Alcotest.(check (option int)) "n=199: p95 has only 9 beyond" (Some 900) (level 199);
  Alcotest.(check (option int)) "n=200: p95" (Some 950) (level 200);
  Alcotest.(check (option int)) "n=999: p99 has only 9 beyond" (Some 950) (level 999);
  Alcotest.(check (option int)) "n=1000: p99" (Some 990) (level 1000);
  Alcotest.(check (option int)) "n=10000: p99.9" (Some 999) (level 10000)

let test_tail_value () =
  (* Shuffled input: the helper sorts a copy and leaves its argument alone. *)
  let xs = Array.init 200 (fun i -> float_of_int (((i * 37) mod 200) + 1)) in
  let before = Array.copy xs in
  (match Pct.tail xs with
  | Some (950, v) -> Alcotest.(check (float 0.0)) "p95 of 1..200" 190.0 v
  | _ -> Alcotest.fail "expected p95");
  Alcotest.(check (array (float 0.0))) "input untouched" before xs;
  Alcotest.(check int) "ten samples beyond p95 of 200" 10 (Pct.beyond ~n:200 ~permille:950);
  Alcotest.(check (float 0.0)) "median, even count" 2.5 (Pct.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "median, odd count" 2.0 (Pct.median [| 3.0; 1.0; 2.0 |])

(* A clock that advances one second per reading. *)
let stepping () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 1.0;
    v

let test_self_time_nested () =
  let tr = Spans.create ~clock:(stepping ()) () in
  let tr' = Some tr in
  Spans.span tr' ~layer:"bench" "root" (fun () ->
      Spans.span tr' ~layer:"scale" "a" (fun () ->
          Spans.span tr' ~layer:"joint" "a.1" (fun () -> ()));
      Spans.span tr' ~layer:"sim" "b" (fun () -> ()));
  (* Readings: root 0, a 1, a.1 2-3, a 4, b 5-6, root 7. *)
  let spans = Spans.spans tr in
  let self = Spans.self_times spans in
  let by_name n =
    let i = ref (-1) in
    Array.iteri (fun j (s : Spans.span) -> if s.name = n then i := j) spans;
    (Spans.duration spans.(!i), self.(!i), spans.(!i).parent)
  in
  let check n (dur, self, parent) =
    let d, s, p = by_name n in
    Alcotest.(check (float 1e-12)) (n ^ " duration") dur d;
    Alcotest.(check (float 1e-12)) (n ^ " self") self s;
    Alcotest.(check int) (n ^ " parent") parent p
  in
  check "root" (7.0, 3.0, -1);
  check "a" (3.0, 2.0, 0);
  check "a.1" (1.0, 1.0, 1);
  check "b" (1.0, 1.0, 0);
  let rows = Spans.by_layer spans in
  Alcotest.(check (list string)) "layers in order" [ "bench"; "scale"; "joint"; "sim" ]
    (List.map (fun (r : Spans.row) -> r.layer) rows);
  Alcotest.(check (float 1e-12)) "self times add up to the root" 7.0
    (List.fold_left (fun a (r : Spans.row) -> a +. r.self_s) 0.0 rows)

let test_self_time_overlap () =
  (* Overlapping children are covered once; a child sticking out of its
     parent only counts inside it. *)
  let mk id parent start_s stop_s =
    { Spans.id; parent; layer = "l"; name = string_of_int id; start_s; stop_s }
  in
  let spans = [| mk 0 (-1) 0.0 10.0; mk 1 0 1.0 4.0; mk 2 0 3.0 6.0; mk 3 0 8.0 12.0 |] in
  let self = Spans.self_times spans in
  Alcotest.(check (float 1e-12)) "parent self" 3.0 self.(0);
  Alcotest.(check int) "subtree of child 1" 1 (Array.length (Spans.subtree spans spans.(1)));
  Alcotest.(check int) "subtree of the root" 4 (Array.length (Spans.subtree spans spans.(0)))

let small w seed = Gen.make ~devices:40 w ~seed

let test_inputs_by_seed () =
  List.iter
    (fun w ->
      let name = Gen.name w in
      let a = Gen.digest (small w 7) and b = Gen.digest (small w 7) in
      let c = Gen.digest (small w 8) in
      Alcotest.(check string) (name ^ ": same seed, same inputs") a b;
      Alcotest.(check bool) (name ^ ": another seed, other inputs") true (a <> c);
      (* Every end-to-end metric is measured on every workload. *)
      let inp = small w 7 in
      Alcotest.(check bool) (name ^ ": serves arrivals") true (Array.length inp.arrivals > 0);
      Alcotest.(check bool) (name ^ ": re-plans") true (Array.length inp.churn > 0))
    Gen.all;
  let fs = Gen.fleet_seeds Gen.Fleet_10k ~seed:7 in
  Alcotest.(check int) "fleet-10k runs three fleets" 3 (Array.length fs);
  Alcotest.(check int) "the first fleet is the seed's own" 7 fs.(0);
  Alcotest.(check int) "the fleets are distinct" 3
    (List.length (List.sort_uniq compare (Array.to_list fs)));
  Alcotest.(check (array int)) "same seed, same fleets" fs (Gen.fleet_seeds Gen.Fleet_10k ~seed:7);
  Alcotest.(check bool) "another seed, other fleets" true
    (Array.for_all (fun s -> not (Array.mem s fs)) (Gen.fleet_seeds Gen.Fleet_10k ~seed:8));
  let inp = small Gen.Flash_guarded 7 in
  Alcotest.(check bool) "flash-guarded has a fault schedule" false
    (Es_sim.Faults.is_empty inp.faults);
  let churn = (small Gen.Churn_replan 7).churn in
  Alcotest.(check int) "churn-replan has its churn list" 200 (Array.length churn);
  let count k = Array.fold_left (fun a e -> if k e then a + 1 else a) 0 churn in
  Alcotest.(check (list int)) "a third of each kind" [ 67; 67; 66 ]
    [
      count (function Es_scale.Delta.Join _ -> true | _ -> false);
      count (function Es_scale.Delta.Leave _ -> true | _ -> false);
      count (function Es_scale.Delta.Rate_change _ -> true | _ -> false);
    ]

let test_churn_indices () =
  List.iter
    (fun (devices, events, seed) ->
      let c = Es_workload.Heavy.population ~devices Es_workload.Scenarios.smart_city in
      let n = ref devices in
      Array.iter
        (fun ev ->
          match ev with
          | Es_scale.Delta.Join _ -> incr n
          | Es_scale.Delta.Leave i ->
              Alcotest.(check bool) "leave never empties the fleet" true (!n > 1);
              Alcotest.(check bool) "leave index in range" true (i >= 0 && i < !n);
              decr n
          | Es_scale.Delta.Rate_change (i, r) ->
              Alcotest.(check bool) "rate-change index in range" true (i >= 0 && i < !n);
              Alcotest.(check bool) "rate positive and finite" true (r > 0.0 && Float.is_finite r))
        (Gen.churn ~seed ~events c))
    [ (1, 500, 3); (2, 500, 4); (40, 300, 5) ]

let test_churn_applies () =
  (* The list replays through Delta.apply without an out-of-range event. *)
  let c = Es_workload.Heavy.population ~devices:3 Es_workload.Scenarios.smart_city in
  let config = { Es_scale.default_config with Es_scale.jobs = 1 } in
  let st = ref (Es_scale.Delta.init ~config c) in
  Array.iter (fun ev -> st := Es_scale.Delta.apply !st ev) (Gen.churn ~seed:9 ~events:40 c);
  let final = Es_scale.Delta.cluster !st in
  Alcotest.(check bool) "decisions valid after churn" true
    (Es_edge.Decision.validate final (Es_scale.Delta.output !st).Es_scale.decisions = Ok ())

let test_calib_kernel () =
  ignore (Calib.sample ());
  let sorted = ref true in
  for i = 1 to Float.Array.length Calib.work - 1 do
    if Float.Array.get Calib.work (i - 1) > Float.Array.get Calib.work i then sorted := false
  done;
  Alcotest.(check bool) "the kernel sorts its copy" true !sorted;
  (* Only the two clock readings and the result are boxed. *)
  let minor0, _, major0 = Gc.counters () in
  ignore (Calib.sample ());
  let minor1, _, major1 = Gc.counters () in
  Alcotest.(check bool) "a sample allocates at most a few words" true (minor1 -. minor0 < 32.0);
  Alcotest.(check (float 0.0)) "a sample allocates nothing in the major heap" 0.0
    (major1 -. major0)

let () =
  Alcotest.run "edgebench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "highest level with ten beyond" `Quick test_tail_level;
          Alcotest.test_case "values and medians" `Quick test_tail_value;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time, nested" `Quick test_self_time_nested;
          Alcotest.test_case "self time, overlapping" `Quick test_self_time_overlap;
        ] );
      ("calibration", [ Alcotest.test_case "kernel allocates nothing" `Quick test_calib_kernel ]);
      ( "generator",
        [
          Alcotest.test_case "inputs follow the seed" `Quick test_inputs_by_seed;
          Alcotest.test_case "churn indices in range" `Quick test_churn_indices;
          Alcotest.test_case "churn replays through Delta" `Quick test_churn_applies;
        ] );
    ]
