(* EdgeSurgeon end-to-end benchmark.

     edgebench.exe --workload fleet-10k|flash-guarded|churn-replan
                   --seed N --seconds S --trace 0|1

   One process, one caller, jobs = 1: each plan, re-plan and simulation
   starts when the previous one returns (closed loop).  The simulated
   arrivals are the program's input, an open-loop schedule in simulated
   time.  Every workload plans a fleet, serves the plan and then re-plans
   through the fleet's churn list.  With --trace 0 the run sets up the
   inputs of its fleets (one or more, each from a seed derived from
   --seed) several times, then repeats the workload's iteration over the
   fleets in turn while another one fits in --seconds (every fleet once and
   at least twice) and prints the end-to-end metrics.  With --trace 1 it
   runs one untraced and one traced iteration of the first fleet, writes
   the spans as JSONL under _build/edgebench/, prints a per-layer table and
   the per-layer metrics.
   Every plan and report is checked; the last stdout line is one JSON
   object, and any failed check makes the exit code 1. *)

open Es_edge
open Ebench

let now = Unix.gettimeofday
let setup_reps = 3

(* Words allocated so far (minor + direct major). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---------- operations attempted and failed ---------- *)

let attempted = ref 0
let failed = ref 0
let problems = ref []

let operation what errors =
  incr attempted;
  if errors <> [] then begin
    incr failed;
    problems := List.rev_append (List.map (fun e -> what ^ ": " ^ e) errors) !problems
  end

(* ---------- the system under test ---------- *)

let config jobs = { Es_scale.default_config with Es_scale.jobs }

let sim_options (sh : Gen.shape) (inp : Gen.inputs) =
  let open Es_sim in
  {
    Runner.default_options with
    duration_s = sh.horizon_s;
    seed = inp.sim_seed;
    streaming = true;
    faults = inp.faults;
    resilience = (if sh.guarded then Some Runner.default_resilience else None);
    overload =
      (if sh.guarded then
         {
           Overload.admission = Some Overload.default_admission;
           breaker = Some Overload.default_breaker;
           brownout = Some Overload.default_brownout;
           rate_limit = Some Overload.default_rate_limit;
         }
       else Overload.off);
  }

(* Inputs for each fleet seed, plus candidate sets warmed from a cold cache;
   returns the Pareto plans kept. *)
let setup ?tr w ~seeds =
  Es_surgery.Candidate.clear_cache ();
  let inps = Array.map (fun seed -> Gen.make ?tr w ~seed) seeds in
  let kept =
    Spans.span tr ~layer:"surgery" "Es_surgery.Candidate.pareto_candidates" (fun () ->
        Array.fold_left
          (fun acc (inp : Gen.inputs) ->
            List.fold_left
              (fun acc g -> acc + List.length (Es_surgery.Candidate.pareto_candidates g))
              acc (Gen.models inp.cluster))
          0 inps)
  in
  (inps, kept)

type sim = {
  report : Es_sim.Metrics.report;
  sim_s : float;
  events : int;
  max_pending : int;
  sim_words : float;
}

let simulate ?tr ?metrics sh (inp : Gen.inputs) decisions =
  let stats = ref None in
  let w0 = words () in
  let t0 = now () in
  let report =
    Spans.span tr ~layer:"sim" "Es_sim.Runner.run" (fun () ->
        Es_sim.Runner.run ~options:(sim_options sh inp) ?metrics ~arrivals:inp.arrivals
          ~on_stats:(fun s -> stats := Some s)
          inp.served decisions)
  in
  let sim_s = now () -. t0 in
  let sim_words = words () -. w0 in
  let events, max_pending =
    match !stats with
    | Some s -> (s.Es_sim.Engine.events_processed, s.Es_sim.Engine.max_pending)
    | None -> (0, 0)
  in
  { report; sim_s; events; max_pending; sim_words }

type iteration = {
  wall_s : float;
  e2e_s : float;
  plan : Es_scale.output;
  plan_s : float;
  solve_words : float;
  sim : sim;
  states : Es_scale.Delta.state array;  (** one per churn event, in order *)
  replans_s : float array;
  delta_words : float;
  cache : Es_joint.Solve_cache.stats;
}

(* Re-plans between two calibration samples. *)
let replan_batch = 20

(* One pass over the workload: plan (Delta.init, a cold sharded solve over a
   fresh solve cache), serve that plan, then re-plan through the fleet's
   churn list.  Each iteration starts from its fleet's inputs and a fresh
   cache, so it replays that fleet's previous iteration exactly.  With
   [cal], every time it reports is scaled to the reference host speed
   ({!Calib}) and [e2e_s] is the sum of the scaled operations; without,
   times are wall times. *)
let iterate ?tr ?cal (sh : Gen.shape) (inp : Gen.inputs) =
  let factor () = match cal with None -> 1.0 | Some c -> Calib.factor c in
  let t0 = now () in
  let it =
    Spans.span tr ~layer:"bench" "iteration" (fun () ->
        let w0 = words () in
        let tp = now () in
        let cache = Es_joint.Solve_cache.create () in
        let init =
          Spans.span tr ~layer:"scale" "Es_scale.Delta.init" (fun () ->
              Es_scale.Delta.init ~config:(config 1) ~cache inp.cluster)
        in
        let plan = Es_scale.Delta.output init in
        let plan_s = (now () -. tp) *. factor () in
        let solve_words = words () -. w0 in
        let sim =
          let s = simulate ?tr sh inp plan.Es_scale.decisions in
          { s with sim_s = s.sim_s *. factor () }
        in
        let n = Array.length inp.churn in
        let replans_s = Array.make n 0.0 in
        let w1 = words () in
        let st = ref init in
        let states =
          Array.mapi
            (fun i ev ->
              let t = now () in
              st :=
                Spans.span tr ~layer:"scale" "Es_scale.Delta.apply" (fun () ->
                    Es_scale.Delta.apply !st ev);
              replans_s.(i) <- now () -. t;
              if (i + 1) mod replan_batch = 0 || i = n - 1 then begin
                let f = factor () in
                for j = i - (i mod replan_batch) to i do
                  replans_s.(j) <- replans_s.(j) *. f
                done
              end;
              !st)
            inp.churn
        in
        let delta_words = words () -. w1 in
        let cache =
          Spans.span tr ~layer:"joint" "Es_joint.Solve_cache.stats" (fun () ->
              Es_joint.Solve_cache.stats cache)
        in
        let e2e_s = plan_s +. sim.sim_s +. Array.fold_left ( +. ) 0.0 replans_s in
        {
          wall_s = 0.0;
          e2e_s;
          plan;
          plan_s;
          solve_words;
          sim;
          states;
          replans_s;
          delta_words;
          cache;
        })
  in
  let wall_s = now () -. t0 in
  { it with wall_s; e2e_s = (if cal = None then wall_s else it.e2e_s) }

let final_plan it =
  let n = Array.length it.states in
  if n = 0 then it.plan else Es_scale.Delta.output it.states.(n - 1)

let final_cluster (inp : Gen.inputs) it =
  let n = Array.length it.states in
  if n = 0 then inp.cluster else Es_scale.Delta.cluster it.states.(n - 1)

let mean_accuracy (ds : Decision.t array) =
  Array.fold_left (fun a (d : Decision.t) -> a +. d.Decision.plan.Es_surgery.Plan.accuracy) 0.0 ds
  /. float_of_int (Array.length ds)

(* ---------- correctness ---------- *)

let validate cluster ds =
  match Decision.validate cluster ds with Ok () -> [] | Error e -> [ "Decision.validate: " ^ e ]

(* generated = completed + dropped + timed out + shed, degraded within
   completed, and the per-device counts summing to every total. *)
let conservation (r : Es_sim.Metrics.report) =
  let open Es_sim.Metrics in
  let g = r.total_generated and c = r.total_completed and d = r.total_dropped in
  let t = r.total_timed_out and s = r.total_shed and dg = r.total_degraded in
  let sum f = Array.fold_left (fun a x -> a + f x) 0 r.per_device in
  let per_device =
    List.filter_map
      (fun (name, f, total) ->
        if sum f = total then None
        else Some (Printf.sprintf "per-device %s sums to %d, total is %d" name (sum f) total))
      [
        ("generated", (fun x -> x.generated), g);
        ("completed", (fun x -> x.completed), c);
        ("degraded", (fun x -> x.degraded), dg);
        ("dropped", (fun x -> x.dropped), d);
        ("timed_out", (fun x -> x.timed_out), t);
        ("shed", (fun x -> x.shed), s);
      ]
  in
  (if g = c + d + t + s then []
   else
     [
       Printf.sprintf "%d generated <> %d completed + %d dropped + %d timed out + %d shed" g c d t
         s;
     ])
  @ (if dg >= 0 && dg <= c then [] else [ Printf.sprintf "%d degraded of %d completed" dg c ])
  @ per_device

(* A guarded workload that sheds or degrades nothing is not measuring the
   overload and fault paths it exists for. *)
let guarded_paths (sh : Gen.shape) (r : Es_sim.Metrics.report) =
  if not sh.guarded then []
  else
    (if r.total_shed > 0 then [] else [ "no request was shed" ])
    @ if r.total_degraded > 0 then [] else [ "no request was degraded" ]

let check (sh : Gen.shape) (inp : Gen.inputs) it =
  operation "plan" (validate inp.cluster it.plan.Es_scale.decisions);
  Array.iter
    (fun st ->
      operation "re-plan"
        (validate (Es_scale.Delta.cluster st) (Es_scale.Delta.output st).Es_scale.decisions))
    it.states;
  operation "simulate" (conservation it.sim.report @ guarded_paths sh it.sim.report)

let report_json (r : Es_sim.Metrics.report) = Es_obs.Json.to_string (Es_sim.Metrics.report_to_json r)

(* Digest of everything an iteration produced: every plan, the cache
   counters, the report JSON and the event counts. *)
let fingerprint it =
  let b = Buffer.create 1024 in
  let add_plan (o : Es_scale.output) =
    Buffer.add_string b (Decision.fingerprint o.Es_scale.decisions);
    Buffer.add_string b (Printf.sprintf "%h;" o.Es_scale.objective)
  in
  add_plan it.plan;
  Buffer.add_string b (report_json it.sim.report);
  Buffer.add_string b (Printf.sprintf "events %d %d;" it.sim.events it.sim.max_pending);
  Array.iter (fun st -> add_plan (Es_scale.Delta.output st)) it.states;
  let c = it.cache in
  Buffer.add_string b (Printf.sprintf "cache %d %d %d %d" c.hits c.misses c.evictions c.entries);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------- output ---------- *)

(* The resident-set high-water mark, VmHWM, if the kernel reports it. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
          | _ -> scan ()
          | exception End_of_file -> None
        in
        scan ())
  with Sys_error _ | Scanf.Scan_failure _ -> None

let print_result metrics =
  let open Es_obs.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (!failed = 0));
            ("attempted", Int !attempted);
            ("failed", Int !failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (name, value, unit) ->
                     (name, Obj [ ("value", Float value); ("unit", String unit) ]))
                   metrics) );
          ]))

let finish metrics =
  List.iter (fun p -> Printf.eprintf "FAILED %s\n" p) (List.rev !problems);
  print_result metrics;
  exit (if !failed = 0 then 0 else 1)

(* ---------- --trace 0: end-to-end metrics ---------- *)

type summary = {
  s_e2e : float;
  s_plan : float;
  s_replans : float array;
  s_events_per_s : float;
  s_fingerprint : string;
  s_objective : float;
  s_accuracy : float;
  s_report : Es_sim.Metrics.report;
}

let summarize it =
  let fin = final_plan it in
  {
    s_e2e = it.e2e_s;
    s_plan = it.plan_s;
    s_replans = it.replans_s;
    s_events_per_s = float_of_int it.sim.events /. it.sim.sim_s;
    s_fingerprint = fingerprint it;
    s_objective = fin.Es_scale.objective;
    s_accuracy = mean_accuracy fin.Es_scale.decisions;
    s_report = it.sim.report;
  }

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let measure w ~seed ~seconds =
  let sh = Gen.shape w in
  let fleet_seeds = Gen.fleet_seeds w ~seed in
  let fleets = Array.length fleet_seeds in
  (* Each setup rebuilds every input; only the last one is kept. *)
  let setup_times = Array.make setup_reps 0.0 and digests = ref [] and last = ref None in
  for i = 0 to setup_reps - 1 do
    last := None;
    Gc.compact ();
    let cal = Calib.start () in
    let t0 = now () in
    let inps, _ = setup w ~seeds:fleet_seeds in
    setup_times.(i) <- (now () -. t0) *. Calib.factor cal;
    digests := String.concat "," (Array.to_list (Array.map Gen.digest inps)) :: !digests;
    last := Some inps
  done;
  operation "setup"
    (if List.length (List.sort_uniq String.compare !digests) = 1 then []
     else [ "setups replayed different inputs" ]);
  let inps = Option.get !last in
  (* Every fleet at least once, and at least two iterations. *)
  let min_iterations = max 2 fleets in
  let rss = ref 0.0 in
  let start = now () in
  (* The fleets take turns.  After the first [min_iterations], an iteration
     starts only if one more as long as the last still ends within
     [seconds]. *)
  let rec loop acc n last_s =
    if n >= min_iterations && now () -. start +. last_s > seconds then List.rev acc
    else begin
      let t0 = now () in
      let fleet = n mod fleets in
      let inp = inps.(fleet) in
      (* Every iteration starts from a compacted heap, so none inherits
         another's garbage. *)
      Gc.compact ();
      let it = iterate ~cal:(Calib.start ()) sh inp in
      check sh inp it;
      let s = summarize it in
      Printf.printf
        "iteration %d, fleet %d: wall %.3fs, scaled: e2e %.3fs plan %.3fs sim %.3fs (%d events) \
         re-plans %.3fs (%d)\n\
         %!"
        (n + 1) fleet it.wall_s s.s_e2e s.s_plan it.sim.sim_s it.sim.events
        (Array.fold_left ( +. ) 0.0 s.s_replans)
        (Array.length s.s_replans);
      (* The high-water mark after a fixed amount of work, however many
         iterations the run fits. *)
      if n + 1 = min_iterations then begin
        let hwm = peak_rss_mb () in
        operation "peak RSS" (if hwm = None then [ "VmHWM not readable" ] else []);
        rss := Option.value hwm ~default:0.0
      end;
      loop ((fleet, s) :: acc) (n + 1) (now () -. t0)
    end
  in
  let runs = loop [] 0 0.0 in
  (* Each fleet's iterations, in order; every fleet has at least one. *)
  let by_fleet =
    Array.init fleets (fun f ->
        Array.of_list (List.filter_map (fun (g, s) -> if g = f then Some s else None) runs))
  in
  Array.iteri
    (fun f its ->
      Array.iteri
        (fun i s ->
          if i > 0 then
            operation "replay"
              (if s.s_fingerprint = its.(0).s_fingerprint then []
               else [ Printf.sprintf "fleet %d: iteration %d output differs from its first" f (i + 1) ]))
        its)
    by_fleet;
  (* A metric is each fleet's median over its iterations, or its
     deterministic value, averaged over the fleets. *)
  let med f = mean (Array.map (fun its -> Pct.median (Array.map f its)) by_fleet) in
  let first f = mean (Array.map (fun its -> f its.(0)) by_fleet) in
  (* Re-plan times are printed, not gated: on fleet-10k a run fits a few
     re-plans of 0.5-3 s each, and how many re-plans trigger migrations
     depends on the fleet.  Re-plans are gated through e2e_s, which they
     dominate on churn-replan. *)
  let replans = Array.concat (List.map (fun (_, s) -> s.s_replans) runs) in
  Printf.printf "re-plans: p50 = %.4fs%s over %d samples\n"
    (Pct.percentile replans ~permille:500)
    (match Pct.tail replans with
    | Some (permille, v) when permille > 500 ->
        Printf.sprintf ", %s = %.4fs" (Pct.level_name permille) v
    | _ -> "")
    (Array.length replans);
  let metrics =
    [
      ("setup_s", Pct.median setup_times, "s");
      ("plan_s", med (fun s -> s.s_plan), "s");
      ("sim_events_per_s", med (fun s -> s.s_events_per_s), "1/s");
      ("e2e_s", med (fun s -> s.s_e2e), "s");
      ("peak_rss_mb", !rss, "MB");
      ("dsr", first (fun s -> s.s_report.Es_sim.Metrics.dsr), "ratio");
      (* Simulated, not measured: it repeats exactly for a seed. *)
      ("sim_p99_latency_s", first (fun s -> s.s_report.Es_sim.Metrics.p99_s), "sim_s");
      ("objective", first (fun s -> s.s_objective), "score");
      ("mean_accuracy", first (fun s -> s.s_accuracy), "ratio");
    ]
  in
  Printf.printf "%s seed %d: %d fleets, %d iterations, setup %s\n" (Gen.name w) seed fleets
    (List.length runs)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3fs") setup_times)));
  finish metrics

(* ---------- --trace 1: per-layer metrics ---------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let span_named spans name =
  Array.fold_left
    (fun acc (s : Spans.span) -> if acc = None && s.name = name then Some s else acc)
    None spans

let span_s spans name = match span_named spans name with Some s -> Spans.duration s | None -> 0.0

let print_table title rows total =
  Printf.printf "%s (%.3fs)\n  %-10s %6s %10s %10s %7s\n" title total "layer" "calls" "total_s"
    "self_s" "self%";
  List.iter
    (fun (r : Spans.row) ->
      Printf.printf "  %-10s %6d %10.4f %10.4f %6.1f%%\n" r.layer r.calls r.total_s r.self_s
        (100.0 *. r.self_s /. total))
    rows

let timed f =
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  (r, now () -. t0, words () -. w0)

(* [f ()] between two kernel samples, with the factor that scales its wall
   time to the reference host speed.  Both sides of a ratio are scaled, so
   it does not read the host's drift between them. *)
let calibrated f =
  let cal = Calib.start () in
  let r = f () in
  (r, Calib.factor cal)

let traced w ~seed =
  let out_dir = Filename.concat "_build" "edgebench" in
  let sh = Gen.shape w in
  (* Untraced reference for the overhead ratio and the replay check. *)
  let inp = (fst (setup w ~seeds:[| seed |])).(0) in
  Gc.compact ();
  let reference, reference_factor = calibrated (fun () -> iterate sh inp) in
  check sh inp reference;
  let reference_fp = fingerprint reference in
  (* Nearest-rank p95 of the untraced re-plans: ten samples lie beyond it
     on churn-replan (200 re-plans), none on the others. *)
  let replan_p95 = Pct.percentile reference.replans_s ~permille:950 in
  let replan_p50 = Pct.percentile reference.replans_s ~permille:500 in
  let tr = Spans.create () in
  let inps, kept =
    Spans.span (Some tr) ~layer:"bench" "setup" (fun () -> setup ~tr w ~seeds:[| seed |])
  in
  let inp = inps.(0) in
  Gc.compact ();
  let it, traced_factor = calibrated (fun () -> iterate ~tr sh inp) in
  check sh inp it;
  operation "traced replay"
    (if fingerprint it = reference_fp then [] else [ "traced iteration differs from untraced" ]);
  (* The only jobs = 2 call: the plan must be bit-identical to jobs = 1. *)
  let jobs2, jobs2_s, _ =
    timed (fun () ->
        Spans.span (Some tr) ~layer:"scale" "Es_scale.solve jobs=2" (fun () ->
            Es_scale.solve ~config:(config 2) inp.cluster))
  in
  operation "jobs=2 plan"
    (if
       Decision.fingerprint jobs2.Es_scale.decisions
       = Decision.fingerprint it.plan.Es_scale.decisions
       && Int64.equal
            (Int64.bits_of_float jobs2.Es_scale.objective)
            (Int64.bits_of_float it.plan.Es_scale.objective)
     then []
     else [ "jobs=2 plan differs from the jobs=1 plan" ]);
  (* Every final shard re-solved alone through Shard.solve. *)
  let fin = final_plan it and fcl = final_cluster inp it in
  let shard_cfg = Es_scale.shard_config (config 1) in
  let shard_runs =
    List.filter_map
      (fun server -> Es_scale.Shard.make fcl ~assignment:fin.Es_scale.assignment ~server)
      (List.init (Cluster.n_servers fcl) Fun.id)
    |> List.map (fun shard ->
           let _, s, wds =
             timed (fun () ->
                 Spans.span (Some tr) ~layer:"joint" "Es_scale.Shard.solve" (fun () ->
                     Es_scale.Shard.solve ~config:shard_cfg shard))
           in
           (s, wds))
    |> Array.of_list
  in
  (* The simulation without, with and again without a metrics registry,
     each from a compacted heap; the registry run is compared with the mean
     of the two around it, so neither order nor drift favours one side. *)
  let registry_ratio, switches =
    let decisions = it.plan.Es_scale.decisions in
    let plain () =
      Gc.compact ();
      let run, factor = calibrated (fun () -> simulate sh inp decisions) in
      (run.report, run.sim_s *. factor)
    in
    let before_report, before_s = plain () in
    Gc.compact ();
    let reg = Es_obs.Metric.create () in
    let run, run_factor =
      calibrated (fun () ->
          Spans.span (Some tr) ~layer:"obs" "Es_sim.Runner.run with registry" (fun () ->
              simulate ~metrics:reg sh inp decisions))
    in
    let _, after_s = plain () in
    operation "registry run"
      (if report_json run.report = report_json before_report then []
       else [ "a metrics registry changed the report" ]);
    let switches =
      match Es_obs.Metric.find reg "overload/brownout_switches" with
      | Some (Es_obs.Metric.Counter n) -> n
      | _ -> 0
    in
    (run.sim_s *. run_factor /. ((before_s +. after_s) /. 2.0), switches)
  in
  let generated =
    Spans.span (Some tr) ~layer:"surgery" "Es_surgery.Candidate.generate" (fun () ->
        List.fold_left
          (fun acc g -> acc + List.length (Es_surgery.Candidate.generate g))
          0 (Gen.models inp.cluster))
  in
  let spans = Spans.spans tr in
  mkdir_p out_dir;
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" (Gen.name w) seed) in
  let oc = open_out path in
  Spans.to_jsonl oc spans;
  close_out oc;
  let root s = Option.get (span_named spans s) in
  let iter_spans = Spans.subtree spans (root "iteration") in
  let iter_rows = Spans.by_layer iter_spans in
  let traced_e2e = Spans.duration (root "iteration") in
  let self layer =
    match List.find_opt (fun (r : Spans.row) -> r.layer = layer) iter_rows with
    | Some r -> r.self_s
    | None -> 0.0
  in
  let setup_spans = Spans.subtree spans (root "setup") in
  print_table "setup" (Spans.by_layer setup_spans) (Spans.duration (root "setup"));
  print_table "iteration" iter_rows traced_e2e;
  let attributed =
    List.fold_left
      (fun a (r : Spans.row) -> if r.layer = "bench" then a else a +. r.self_s)
      0.0 iter_rows
  in
  Printf.printf "  attributed %.4fs + unattributed %.4fs = traced e2e %.4fs; spans in %s\n"
    attributed (self "bench") traced_e2e path;
  let replans = it.replans_s in
  let per_event x = x /. float_of_int (Array.length replans) in
  let delta_shard_solves =
    Array.fold_left
      (fun a st -> a + (Es_scale.Delta.output st).Es_scale.shard_solves)
      0 it.states
  in
  let plans_kept = float_of_int kept and plans_generated = float_of_int generated in
  let cache = it.cache in
  let lookups = cache.hits + cache.misses in
  let sim = it.sim in
  let outcome f = float_of_int (f sim.report) in
  let gc = Gc.quick_stat () in
  let shard_times = Array.map fst shard_runs and shard_words = Array.map snd shard_runs in
  let p50 a = if Array.length a = 0 then 0.0 else Pct.median a in
  let f = float_of_int in
  let solve_s = it.plan_s and shard_solves = f it.plan.Es_scale.shard_solves in
  finish
    [
      ("workload.population_s", span_s setup_spans "Es_workload.Heavy.population", "s");
      ("workload.trace_s", span_s setup_spans "Es_workload.Heavy.trace", "s");
      ("workload.arrivals", f (Array.length inp.arrivals), "count");
      ("surgery.candidates_s", span_s setup_spans "Es_surgery.Candidate.pareto_candidates", "s");
      ("surgery.plans_generated", plans_generated, "count");
      ("surgery.plans_kept", plans_kept, "count");
      ("surgery.frontier_ratio", plans_kept /. plans_generated, "ratio");
      ("scale.solve_s", solve_s, "s");
      ("scale.solve_mwords", it.solve_words /. 1e6, "Mwords");
      ("scale.sweeps", f it.plan.Es_scale.sweeps, "count");
      ("scale.shard_solves", shard_solves, "count");
      ("scale.moves", f it.plan.Es_scale.moves, "count");
      ("scale.s_per_shard_solve", solve_s /. Float.max 1.0 shard_solves, "s");
      ("scale.solve_jobs2_s", jobs2_s, "s");
      ("scale.delta_apply_s", per_event (Array.fold_left ( +. ) 0.0 replans), "s");
      ("scale.replan_p50_s", replan_p50, "s");
      ("scale.replan_p95_s", replan_p95, "s");
      ("scale.delta_shard_solves_per_event", per_event (f delta_shard_solves), "count");
      ("scale.delta_mwords_per_event", per_event (it.delta_words /. 1e6), "Mwords");
      ("joint.shard_solve_p50_s", p50 shard_times, "s");
      ("joint.shard_solve_mwords_p50", p50 shard_words /. 1e6, "Mwords");
      ("joint.cache_hits", f cache.hits, "count");
      ("joint.cache_misses", f cache.misses, "count");
      ("joint.cache_hit_ratio", (if lookups = 0 then 0.0 else f cache.hits /. f lookups), "ratio");
      ("joint.cache_evictions", f cache.evictions, "count");
      ("sim.run_s", sim.sim_s, "s");
      ("sim.events", f sim.events, "count");
      ("sim.max_pending", f sim.max_pending, "count");
      ("sim.words_per_event", sim.sim_words /. f (max 1 sim.events), "words");
      ("sim.generated", outcome (fun r -> r.Es_sim.Metrics.total_generated), "count");
      ("sim.completed", outcome (fun r -> r.Es_sim.Metrics.total_completed), "count");
      ("sim.degraded", outcome (fun r -> r.Es_sim.Metrics.total_degraded), "count");
      ("sim.dropped", outcome (fun r -> r.Es_sim.Metrics.total_dropped), "count");
      ("sim.timed_out", outcome (fun r -> r.Es_sim.Metrics.total_timed_out), "count");
      ("sim.shed", outcome (fun r -> r.Es_sim.Metrics.total_shed), "count");
      ("sim.brownout_switches", f switches, "count");
      ("obs.sim_registry_overhead", registry_ratio, "ratio");
      ("gc.minor_collections", f gc.Gc.minor_collections, "count");
      ("gc.major_collections", f gc.Gc.major_collections, "count");
      ("gc.top_heap_words", f gc.Gc.top_heap_words, "words");
      ("trace.e2e_s", traced_e2e, "s");
      ( "trace.overhead_ratio",
        traced_e2e *. traced_factor /. (reference.e2e_s *. reference_factor),
        "ratio" );
      ("trace.unattributed_s", self "bench", "s");
      ("self.scale_s", self "scale", "s");
      ("self.joint_s", self "joint", "s");
      ("self.sim_s", self "sim", "s");
    ]

(* ---------- arguments ---------- *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME fleet-10k | flash-guarded | churn-replan");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S measurement time");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 per-layer traced run");
    ]
  in
  let usage = "edgebench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline msg;
    Arg.usage specs usage;
    exit 2
  in
  let w =
    match Gen.of_name !workload with Some w -> w | None -> fail ("unknown workload " ^ !workload)
  in
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some 0 -> measure w ~seed ~seconds
  | Some seed, Some _, Some 1 -> traced w ~seed
  | _ -> fail "--seed, --seconds and --trace 0|1 are required"
